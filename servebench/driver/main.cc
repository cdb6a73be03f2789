// servebench_driver — the served-path benchmark's load generator.
//
//   servebench_driver --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> --serve-bin <lps_serve> --work-dir <dir>
//
// --trace 0 starts lps_serve, drives the workload in a closed loop for
// --seconds, checks every answer and prints the end-to-end metrics;
// --trace 1 replays every workload's inputs in-process layer by layer
// and prints the per-layer metrics. The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Exit code 1 (and
// no JSON) when the run could not be carried out at all.
// servebench/run.py builds this binary and passes the paths.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "servebench/driver/common.h"
#include "servebench/driver/served.h"
#include "servebench/driver/traced.h"

namespace {

using servebench::Args;
using servebench::RunResult;

int Usage() {
  std::fprintf(stderr,
               "usage: servebench_driver --workload "
               "<hh_ingest|sampler_window_spill|tenant_fanin|epoch_fold>\n"
               "                         --seed n --seconds s --trace 0|1\n"
               "                         --serve-bin path --work-dir dir\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int a = 1; a + 1 < argc; a += 2) {
    const std::string flag = argv[a];
    const char* value = argv[a + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else if (flag == "--serve-bin") {
      args->serve_bin = value;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->serve_bin.empty() && !args->work_dir.empty();
}

void PrintJson(const RunResult& result) {
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t m = 0; m < result.metrics.size(); ++m) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", result.metrics[m].value);
    if (m > 0) json += ", ";
    json += "\"" + result.metrics[m].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + result.metrics[m].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  if (args.workload != "hh_ingest" && args.workload != "sampler_window_spill" &&
      args.workload != "tenant_fanin" && args.workload != "epoch_fold") {
    return Usage();
  }
  RunResult result;
  try {
    if (args.trace) {
      result = servebench::RunTraced(args);
    } else if (args.workload == "hh_ingest") {
      result = servebench::RunHhIngest(args);
    } else if (args.workload == "sampler_window_spill") {
      result = servebench::RunSamplerWindowSpill(args);
    } else if (args.workload == "tenant_fanin") {
      result = servebench::RunTenantFanin(args);
    } else {
      result = servebench::RunEpochFold(args);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 1;
  }
  for (const servebench::Metric& metric : result.metrics) {
    if (!std::isfinite(metric.value)) {
      result.Problem(metric.name + " is not a finite number");
    }
  }
  if (result.attempted == 0) result.Problem("no operation was attempted");
  for (const std::string& problem : result.problems) {
    std::fprintf(stderr, "servebench: CHECK FAILED: %s\n", problem.c_str());
  }
  for (servebench::Metric& metric : result.metrics) {
    if (!std::isfinite(metric.value)) metric.value = -1;
  }
  PrintJson(result);
  return 0;
}
