#include "servebench/driver/served.h"

#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "servebench/driver/checks.h"
#include "servebench/driver/inputs.h"
#include "servebench/driver/server_process.h"
#include "src/api/sketch_spec.h"
#include "src/dist/worker.h"
#include "src/server/client.h"

namespace servebench {
namespace {

using lps::QueryResult;
using lps::server::Client;
using lps::server::SketchConfig;
using lps::stream::Update;

template <typename T>
T Must(lps::Result<T> result, const std::string& what) {
  if (!result.ok()) {
    throw std::runtime_error(what + ": " + result.status().ToString());
  }
  return std::move(result.value());
}

void Must(const lps::Status& status, const std::string& what) {
  if (!status.ok()) throw std::runtime_error(what + ": " + status.ToString());
}

/// Calls `request`, appending its wall time in microseconds to `sink`.
template <typename F>
auto Timed(std::vector<double>* sink, F&& request) {
  const auto start = Clock::now();
  auto reply = request();
  sink->push_back(NanosSince(start) / 1000);
  return reply;
}

struct Latencies {
  std::vector<double> ingest_us;
  std::vector<double> query_us;
  std::vector<double> window_us;
};

/// Records a failed check, keeping the first few reasons.
void Note(RunResult* result, const std::string& problem, const char* where) {
  if (problem.empty()) return;
  if (result->problems.size() < 8) {
    result->Problem(std::string(where) + ": " + problem);
  } else {
    result->correct = false;
  }
}

/// A corrupted answer must be rejected by the check that passed the
/// real one; a check that cannot fail shows nothing.
void RequireRejected(RunResult* result, const std::string& verdict,
                     const char* corruption) {
  if (verdict.empty()) {
    result->Problem(std::string("check accepted ") + corruption);
  } else {
    std::fprintf(stderr, "servebench: check rejects %s: %s\n", corruption,
                 verdict.c_str());
  }
}

/// A running lps_serve with its own data directory in the work dir.
/// Tearing down kills a daemon that was not stopped and removes the
/// directory.
class Daemon {
 public:
  Daemon(const Args& args, size_t resident_checkpoints)
      : data_dir_(args.work_dir + "/" + args.workload + "-" +
                  std::to_string(::getpid())) {
    std::error_code ignored;
    std::filesystem::remove_all(data_dir_, ignored);
    std::filesystem::create_directories(data_dir_);
    process_ = Must(ServerProcess::Start(
                        args.serve_bin,
                        {"--port", "0", "--data-dir", data_dir_,
                         "--resident-checkpoints",
                         std::to_string(resident_checkpoints),
                         // No periodic snapshot (and fsync) inside a run;
                         // the final one on shutdown still happens.
                         "--snapshot-interval-ms", "3600000"}),
                    "start lps_serve");
  }
  ~Daemon() {
    process_.reset();
    std::error_code ignored;
    std::filesystem::remove_all(data_dir_, ignored);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return process_->port(); }

  Client Connect() const {
    return Must(Client::Connect("127.0.0.1", process_->port()), "connect");
  }

  void Stop() { Must(process_->Stop(), "stop lps_serve"); }

  /// Reads STATS and the daemon's peak RSS, stops the daemon and adds
  /// the end-to-end metrics. The spill is counted from `since`, the
  /// STATS taken when the measured phase began (zeros: from boot).
  /// Returns the STATS answer for the checks.
  lps::server::ServerStats Report(
      Client* client, const Latencies& latencies, double setup_s,
      double updates, double phase_s, RunResult* result,
      const lps::server::ServerStats& since = {}) {
    const lps::server::ServerStats stats = Must(client->Stats(), "STATS");
    const uint64_t rss = process_->PeakRssBytes();
    Stop();
    result->Add("setup_s", setup_s, "s");
    result->Add("updates_per_s", updates / phase_s, "updates/s");
    result->Add("ingest_p50_us", Percentile(latencies.ingest_us, 0.50), "us");
    result->Add("server_peak_rss_bytes", double(rss), "bytes");
    result->Add("resident_bytes", double(stats.resident_bytes), "bytes");
    result->Add("spilled_bytes_per_update",
                double(stats.spilled_bytes - since.spilled_bytes) /
                    double(std::max<uint64_t>(stats.updates - since.updates,
                                              1)),
                "bytes/update");
    std::fprintf(stderr,
                 "servebench: %zu ingest, %zu query, %zu window samples; "
                 "%llu updates in %.2f s; %llu bytes spilled; query p50 "
                 "%.1f us, window p50 %.1f us\n",
                 latencies.ingest_us.size(), latencies.query_us.size(),
                 latencies.window_us.size(),
                 static_cast<unsigned long long>(stats.updates), phase_s,
                 static_cast<unsigned long long>(stats.spilled_bytes),
                 Percentile(latencies.query_us, 0.50),
                 Percentile(latencies.window_us, 0.50));
    return stats;
  }

 private:
  std::string data_dir_;
  std::unique_ptr<ServerProcess> process_;
};

/// Exact prefix vectors at the positions a window may start from,
/// keeping the newest `keep`.
template <typename Vector>
class Prefixes {
 public:
  explicit Prefixes(size_t keep) : keep_(keep) {}
  void Save(uint64_t position, const Vector& x) {
    saved_[position] = x;
    while (saved_.size() > keep_) saved_.erase(saved_.begin());
  }
  const Vector* At(uint64_t position) const {
    auto it = saved_.find(position);
    return it == saved_.end() ? nullptr : &it->second;
  }

 private:
  size_t keep_;
  std::map<uint64_t, Vector> saved_;
};

std::vector<int64_t> Minus(const std::vector<int64_t>& now,
                           const std::vector<int64_t>& then) {
  std::vector<int64_t> window(now.size());
  for (size_t i = 0; i < now.size(); ++i) window[i] = now[i] - then[i];
  return window;
}

/// The window a WINDOW reply claims must end at the stream's position
/// and start where the benchmark kept a prefix. (It may be shorter than
/// asked when the ring no longer reaches back that far.)
template <typename Vector>
const Vector* WindowStart(const Client::WindowReply& reply, uint64_t seen,
                          const Prefixes<Vector>& prefixes,
                          RunResult* result) {
  if (reply.start + reply.length != seen) {
    Note(result,
         "window [" + std::to_string(reply.start) + ", +" +
             std::to_string(reply.length) + ") does not end at " +
             std::to_string(seen),
         "WINDOW");
    return nullptr;
  }
  const Vector* start = prefixes.At(reply.start);
  if (start == nullptr) {
    Note(result, "window start " + std::to_string(reply.start) +
                     " is not a checkpoint position", "WINDOW");
  }
  return start;
}

}  // namespace

// ------------------------------------------------------------ hh_ingest --

RunResult RunHhIngest(const Args& args) {
  RunResult result;
  const SketchConfig config = HhConfig();
  const double phi = config.spec.phi;
  PlantedStream input(HhShape(), kHhLayout, args.seed);

  const auto setup_start = Clock::now();
  Daemon daemon(args, 4);
  Client client = daemon.Connect();
  Must(client.Create("hh", "x", config), "CREATE");
  const double setup_s = SecondsSince(setup_start);

  std::vector<int64_t> x(config.spec.n, 0);
  Prefixes<std::vector<int64_t>> prefixes(8);
  prefixes.Save(0, x);
  uint64_t seen = 0;
  Latencies latencies;
  std::vector<Update> batch;
  QueryResult kept;  // a real answer for the corruption test
  std::vector<int64_t> kept_x;

  // One round: two 1024-update batches, one whole-stream QUERY and one
  // trailing WINDOW over the last two checkpoints.
  const auto phase_start = Clock::now();
  do {
    for (const char op : {'I', 'Q', 'I', 'W'}) {
      ++result.attempted;
      if (op == 'I') {
        input.Fill(kHhBatch, &batch);
        const auto acked = Timed(&latencies.ingest_us,
                                 [&] { return client.Ingest("hh", "x", batch); });
        if (!acked.ok()) {
          ++result.failed;
          continue;
        }
        for (const Update& u : batch) {
          x[u.index] += u.delta;
          if (++seen % config.window_checkpoint == 0) prefixes.Save(seen, x);
        }
      } else if (op == 'Q') {
        const auto answer = Timed(&latencies.query_us,
                                  [&] { return client.Query("hh", "x"); });
        if (!answer.ok()) {
          ++result.failed;
          continue;
        }
        Note(&result, CheckHeavySet(x, phi, *answer), "QUERY");
        if (kept_x.empty()) {
          kept = *answer;
          kept_x = x;
        }
      } else {
        const auto reply = Timed(&latencies.window_us, [&] {
          return client.Window("hh", "x", kHhWindow, false);
        });
        if (!reply.ok()) {
          ++result.failed;
          continue;
        }
        if (const auto* start =
                WindowStart(*reply, seen, prefixes, &result)) {
          Note(&result, CheckHeavySet(Minus(x, *start), phi, reply->result),
               "WINDOW");
        }
      }
    }
  } while (SecondsSince(phase_start) < args.seconds);
  const double phase_s = SecondsSince(phase_start);

  daemon.Report(&client, latencies, setup_s, double(seen), phase_s,
                &result);

  // Corruption: drop a planted item from a real answer.
  QueryResult missing = kept;
  const uint64_t planted = input.heavy()[0];
  missing.items.erase(
      std::remove(missing.items.begin(), missing.items.end(), planted),
      missing.items.end());
  RequireRejected(&result, CheckHeavySet(kept_x, phi, missing),
                  "a heavy-hitter set missing a planted item");
  return result;
}

// ------------------------------------------------- sampler_window_spill --

RunResult RunSamplerWindowSpill(const Args& args) {
  RunResult result;
  const SketchConfig config = SpillConfig();
  const double eps = config.spec.eps;
  const uint64_t n = config.spec.n;
  PlantedStream input(SpillShape(), kSpillLayout, args.seed);

  const auto setup_start = Clock::now();
  Daemon daemon(args, kSpillResident);
  Client client = daemon.Connect();
  Must(client.Create("spill", "x", config), "CREATE");
  const double setup_s = SecondsSince(setup_start);

  // Every seal lands on a batch end (reads come between batches and the
  // checkpoint interval is a multiple of the batch), so a prefix per
  // batch end covers every window start the ring can hold.
  std::vector<int64_t> x(n, 0);
  Prefixes<std::vector<int64_t>> prefixes(256);
  prefixes.Save(0, x);
  uint64_t seen = 0;
  uint64_t answers = 0;
  uint64_t fails = 0;
  Latencies latencies;
  std::vector<Update> batch;
  QueryResult kept;
  std::vector<int64_t> kept_x;

  const auto check = [&](const QueryResult& answer,
                         const std::vector<int64_t>& v, const char* where) {
    ++answers;
    if (answer.type == QueryResult::Type::kFailed) {
      ++fails;
      return;
    }
    const int64_t exact = answer.index < n ? v[answer.index] : 0;
    Note(&result, CheckLpSample(exact, eps, answer), where);
    if (kept_x.empty() && answer.type == QueryResult::Type::kSample) {
      kept = answer;
      kept_x = v;
    }
  };

  // One round: four batches, a whole-stream QUERY, four batches, and a
  // WINDOW that reaches past the resident ring into spilled checkpoints.
  // Each read lands mid-epoch on the pipelined tenant.
  const auto phase_start = Clock::now();
  do {
    for (const char op : {'I', 'I', 'I', 'I', 'Q', 'I', 'I', 'I', 'I', 'W'}) {
      ++result.attempted;
      if (op == 'I') {
        input.Fill(kSpillBatch, &batch);
        const auto acked = Timed(&latencies.ingest_us, [&] {
          return client.Ingest("spill", "x", batch);
        });
        if (!acked.ok()) {
          ++result.failed;
          continue;
        }
        for (const Update& u : batch) x[u.index] += u.delta;
        seen += batch.size();
        prefixes.Save(seen, x);
      } else if (op == 'Q') {
        const auto answer = Timed(&latencies.query_us,
                                  [&] { return client.Query("spill", "x"); });
        if (!answer.ok()) {
          ++result.failed;
          continue;
        }
        check(*answer, x, "QUERY");
      } else {
        const auto reply = Timed(&latencies.window_us, [&] {
          return client.Window("spill", "x", kSpillDeepWindow, false);
        });
        if (!reply.ok()) {
          ++result.failed;
          continue;
        }
        if (const auto* start = WindowStart(*reply, seen, prefixes, &result)) {
          check(reply->result, Minus(x, *start), "WINDOW");
        }
      }
    }
  } while (SecondsSince(phase_start) < args.seconds);
  const double phase_s = SecondsSince(phase_start);

  daemon.Report(&client, latencies, setup_s, double(seen), phase_s,
                &result);
  Note(&result, CheckFailShare(fails, answers, config.spec.delta), "FAIL share");
  std::fprintf(stderr, "servebench: %llu of %llu sampler answers FAIL\n",
               static_cast<unsigned long long>(fails),
               static_cast<unsigned long long>(answers));

  // Corruption: move a real sample to a coordinate outside the support.
  if (kept_x.empty()) {
    result.Problem("no sample answer to corrupt");
  } else {
    QueryResult outside = kept;
    outside.index = uint64_t(
        std::find(kept_x.begin(), kept_x.end(), int64_t{0}) - kept_x.begin());
    const int64_t exact = outside.index < n ? kept_x[outside.index] : 0;
    RequireRejected(&result, CheckLpSample(exact, eps, outside),
                    "a sample outside the support");
  }
  return result;
}

// --------------------------------------------------------- tenant_fanin --

namespace {

using SparseVector = std::unordered_map<uint64_t, int64_t>;

int64_t ValueAt(const SparseVector& x, uint64_t i) {
  auto it = x.find(i);
  return it == x.end() ? 0 : it->second;
}

struct FaninTenant {
  FaninTenant(int id, uint64_t seed)
      : key("t" + std::to_string(id)),
        input(FaninStream(seed, id)),
        prefixes(8) {
    prefixes.Save(0, x);
  }
  std::string key;
  PlantedStream input;
  SparseVector x;
  Prefixes<SparseVector> prefixes;
  uint64_t seen = 0;
};

/// What the closed loop produced.
struct FaninLoop {
  Latencies latencies;
  uint64_t updates = 0;  ///< acknowledged, warm-up included
  uint64_t answers = 0;
  uint64_t fails = 0;
  QueryResult kept;
  int64_t kept_exact = 0;
};

/// One round: 64 passes over the tenants, one small INGEST each, so
/// every tenant seals exactly one checkpoint per round. Every eighth
/// pass (3, 11, ...) QUERYs each tenant and every eighth (7, 15, ...)
/// WINDOWs it.
void FaninRound(Client* client, std::vector<FaninTenant>* tenants,
                RunResult* result, FaninLoop* loop) {
  std::vector<Update> batch;
  const auto check = [&](const QueryResult& answer, const SparseVector& x,
                         const SparseVector* start, const char* where) {
    ++loop->answers;
    if (answer.type == QueryResult::Type::kFailed) {
      ++loop->fails;
      return;
    }
    int64_t exact = ValueAt(x, answer.index);
    if (start != nullptr) exact -= ValueAt(*start, answer.index);
    Note(result, CheckL0Sample(exact, answer), where);
    if (loop->kept.type != QueryResult::Type::kSample &&
        answer.type == QueryResult::Type::kSample) {
      loop->kept = answer;
      loop->kept_exact = exact;
    }
  };
  for (uint64_t pass = 0; pass < kFaninPasses; ++pass) {
    for (FaninTenant& t : *tenants) {
      ++result->attempted;
      t.input.Fill(kFaninBatch, &batch);
      const auto acked = Timed(&loop->latencies.ingest_us, [&] {
        return client->Ingest("fan", t.key, batch);
      });
      if (!acked.ok()) {
        ++result->failed;
        continue;
      }
      loop->updates += batch.size();
      for (const Update& u : batch) {
        int64_t& v = t.x[u.index];
        v += u.delta;
        if (v == 0) t.x.erase(u.index);
        if (++t.seen % kFaninCheckpoint == 0) t.prefixes.Save(t.seen, t.x);
      }
      if (pass % 8 == 3) {
        ++result->attempted;
        const auto answer = Timed(&loop->latencies.query_us, [&] {
          return client->Query("fan", t.key);
        });
        if (!answer.ok()) {
          ++result->failed;
          continue;
        }
        check(*answer, t.x, nullptr, "QUERY");
      } else if (pass % 8 == 7) {
        ++result->attempted;
        const auto reply = Timed(&loop->latencies.window_us, [&] {
          return client->Window("fan", t.key, kFaninWindow, false);
        });
        if (!reply.ok()) {
          ++result->failed;
          continue;
        }
        if (const auto* start = WindowStart(*reply, t.seen, t.prefixes, result)) {
          check(reply->result, t.x, start, "WINDOW");
        }
      }
    }
  }
}

}  // namespace

RunResult RunTenantFanin(const Args& args) {
  RunResult result;
  std::vector<FaninTenant> tenants;
  for (int t = 0; t < kFaninTenants; ++t) tenants.emplace_back(t, args.seed);

  const auto setup_start = Clock::now();
  Daemon daemon(args, kFaninResident);
  Client client = daemon.Connect();
  for (int t = 0; t < kFaninTenants; ++t) {
    Must(client.Create("fan", tenants[t].key, FaninConfig(t)), "CREATE");
  }
  const double setup_s = SecondsSince(setup_start);

  // Warm-up: fill every tenant's resident ring, so that from here on
  // each round spills one checkpoint per tenant. Its answers are checked
  // but it is not timed.
  FaninLoop loop;
  for (size_t round = 0; round < kFaninResident; ++round) {
    FaninRound(&client, &tenants, &result, &loop);
  }
  loop.latencies = Latencies();
  const uint64_t warm_updates = loop.updates;
  const lps::server::ServerStats warm = Must(client.Stats(), "STATS");

  const auto phase_start = Clock::now();
  do {
    FaninRound(&client, &tenants, &result, &loop);
  } while (SecondsSince(phase_start) < args.seconds);
  const double phase_s = SecondsSince(phase_start);
  uint64_t answers = loop.answers;
  uint64_t fails = loop.fails;

  // After the timed phase: one more QUERY per tenant for the law check.
  // Conditioned on success the L0 sampler is exactly uniform on the
  // support, so the sample's rank in the sorted support, bucketed, is
  // uniform across tenants.
  std::vector<uint64_t> buckets(8, 0);
  for (const FaninTenant& t : tenants) {
    const QueryResult answer =
        Must(client.Query("fan", t.key), "final QUERY");
    ++answers;
    if (answer.type == QueryResult::Type::kFailed) {
      ++fails;
      continue;
    }
    Note(&result, CheckL0Sample(ValueAt(t.x, answer.index), answer),
         "final QUERY");
    std::vector<uint64_t> support;
    for (const auto& [i, v] : t.x) support.push_back(i);
    std::sort(support.begin(), support.end());
    const size_t rank = size_t(
        std::lower_bound(support.begin(), support.end(), answer.index) -
        support.begin());
    if (!support.empty()) {
      ++buckets[rank * buckets.size() / support.size()];
    }
  }
  const double p_value = UniformPValue(buckets);
  if (p_value < kUniformLevel) {
    result.Problem("L0 samples are not uniform over the supports (p = " +
                   std::to_string(p_value) + ")");
  }
  Note(&result, CheckFailShare(fails, answers, FaninConfig(0).spec.delta),
       "FAIL share");

  const lps::server::ServerStats stats =
      daemon.Report(&client, loop.latencies, setup_s,
                    double(loop.updates - warm_updates), phase_s, &result,
                    warm);
  if (stats.updates != loop.updates) {
    result.Problem("STATS counts " + std::to_string(stats.updates) +
                   " updates, the generator had " +
                   std::to_string(loop.updates) +
                   " acknowledged");
  }
  std::fprintf(stderr,
               "servebench: uniformity p = %.4f; %llu of %llu L0 answers "
               "FAIL\n",
               p_value, static_cast<unsigned long long>(fails),
               static_cast<unsigned long long>(answers));

  // Corruption: a real L0 answer with its value off by one.
  if (loop.kept.type != QueryResult::Type::kSample) {
    result.Problem("no L0 sample to corrupt");
  } else {
    QueryResult off = loop.kept;
    off.value += 1;
    RequireRejected(&result, CheckL0Sample(loop.kept_exact, off),
                    "an L0 value off by one");
  }
  return result;
}

// ----------------------------------------------------------- epoch_fold --

RunResult RunEpochFold(const Args& args) {
  RunResult result;
  const SketchConfig config = EpochConfig();
  const uint64_t heavy = kEpochHeavy;

  const auto setup_start = Clock::now();
  Daemon daemon(args, 4);
  Client reader = daemon.Connect();
  Must(reader.Create("dist", "s", config), "CREATE");
  std::vector<std::unique_ptr<lps::dist::Worker>> workers;
  for (int w = 0; w < kEpochWorkers; ++w) {
    lps::dist::Worker::Options options;
    options.uplink.port = daemon.port();
    options.tenant = "dist";
    options.key = "s";
    options.config = config;
    options.epoch_interval = kEpochInterval;
    options.worker_id = "w" + std::to_string(w);
    options.session = uint64_t(w) + 1;
    workers.push_back(
        Must(lps::dist::Worker::Create(std::move(options)), "worker"));
  }
  const double setup_s = SecondsSince(setup_start);

  // Worker w ingests positions w, w + W, ...; each Push is exactly one
  // epoch, so its wall time is that epoch's seal, ship and fold ack.
  struct Lane {
    std::vector<double> push_us;
    uint64_t pushed = 0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
  };
  std::vector<Lane> lanes(kEpochWorkers);
  std::mutex mutex;
  std::condition_variable progress;
  uint64_t epochs = 0;          // under mutex
  int running = kEpochWorkers;  // under mutex
  const auto phase_start = Clock::now();
  const auto drive = [&](int w) {
    Lane& lane = lanes[w];
    std::vector<Update> batch(kEpochInterval);
    do {
      for (uint64_t k = 0; k < kEpochInterval; ++k) {
        batch[k] =
            EpochUpdate(args.seed, (lane.pushed + k) * kEpochWorkers + w);
      }
      ++lane.attempted;
      const lps::Status pushed =
          Timed(&lane.push_us, [&] { return workers[w]->Push(batch); });
      if (!pushed.ok()) {
        ++lane.failed;
        break;
      }
      lane.pushed += kEpochInterval;
      {
        std::lock_guard<std::mutex> lock(mutex);
        ++epochs;
      }
      progress.notify_all();
    } while (SecondsSince(phase_start) < args.seconds);
    ++lane.attempted;
    if (!workers[w]->Finish().ok()) ++lane.failed;
    {
      std::lock_guard<std::mutex> lock(mutex);
      --running;
    }
    progress.notify_all();
  };

  // The reader reads at the root while it folds: a QUERY and a WINDOW
  // after every second epoch acknowledged.
  Latencies latencies;
  const auto read = [&] {
    uint64_t next = 2;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex);
        progress.wait(lock, [&] { return epochs >= next || running == 0; });
        if (running == 0) return;
        next += 2;
      }
      ++result.attempted;
      const auto answer = Timed(&latencies.query_us,
                                [&] { return reader.Query("dist", "s"); });
      if (!answer.ok()) {
        ++result.failed;
      } else if (!std::binary_search(answer->items.begin(),
                                     answer->items.end(), heavy)) {
        Note(&result, "planted item missing: " + answer->ToText(), "QUERY");
      }
      ++result.attempted;
      const auto reply = Timed(&latencies.window_us, [&] {
        return reader.Window("dist", "s", kEpochWindow, false);
      });
      if (!reply.ok()) {
        ++result.failed;
      } else if (!std::binary_search(reply->result.items.begin(),
                                     reply->result.items.end(), heavy)) {
        Note(&result, "planted item missing: " + reply->result.ToText(),
             "WINDOW");
      }
    }
  };
  {
    std::vector<std::thread> threads;
    for (int w = 0; w < kEpochWorkers; ++w) threads.emplace_back(drive, w);
    threads.emplace_back(read);
    for (std::thread& thread : threads) thread.join();
  }
  const double phase_s = SecondsSince(phase_start);

  uint64_t total = 0;
  for (const Lane& lane : lanes) {
    latencies.ingest_us.insert(latencies.ingest_us.end(),
                               lane.push_us.begin(), lane.push_us.end());
    total += lane.pushed;
    result.attempted += lane.attempted;
    result.failed += lane.failed;
  }

  // After the fold: the root's state against a solo sketch fed the
  // whole input in stream order. cm_heavy_hitters counts in integers,
  // so by linearity the fold must be bit-identical.
  const QueryResult final_answer = Must(reader.Query("dist", "s"), "QUERY");
  const lps::server::SnapshotBlob snapshot =
      Must(reader.Snapshot("dist", "s"), "SNAPSHOT");
  const auto solo = lps::MakeSketch(config.spec);
  std::vector<Update> chunk;
  for (uint64_t position = 0;; ++position) {
    const Lane& lane = lanes[position % kEpochWorkers];
    const uint64_t k = position / kEpochWorkers;
    if (k >= lanes[0].pushed && k >= lanes[kEpochWorkers - 1].pushed) break;
    if (k < lane.pushed) chunk.push_back(EpochUpdate(args.seed, position));
    if (chunk.size() == 4096) {
      solo->UpdateBatch(chunk.data(), chunk.size());
      chunk.clear();
    }
  }
  solo->UpdateBatch(chunk.data(), chunk.size());
  lps::BitWriter want;
  solo->Serialize(&want);
  Note(&result,
       CheckSameState(snapshot.state_words, snapshot.state_bits, want.words(),
                      want.bit_count()),
       "SNAPSHOT");
  if (snapshot.updates_seen != total) {
    result.Problem("root saw " + std::to_string(snapshot.updates_seen) +
                   " updates, the traces hold " + std::to_string(total));
  }
  if (final_answer != lps::Query(*solo)) {
    result.Problem("root QUERY differs from the solo sketch's");
  }

  daemon.Report(&reader, latencies, setup_s, double(total), phase_s,
                &result);

  // Corruption: one flipped word in the served state.
  std::vector<uint64_t> flipped = snapshot.state_words;
  flipped[flipped.size() / 2] ^= 1;
  RequireRejected(&result,
                  CheckSameState(flipped, snapshot.state_bits, want.words(),
                                 want.bit_count()),
                  "a snapshot with one flipped word");
  return result;
}

double ServedFaninIngestNs(const Args& args, int requests) {
  Daemon daemon(args, kFaninResident);
  Client client = daemon.Connect();
  std::vector<FaninTenant> tenants;
  for (int t = 0; t < kFaninTenants; ++t) {
    tenants.emplace_back(t, args.seed);
    Must(client.Create("fan", tenants.back().key, FaninConfig(t)), "CREATE");
  }
  std::vector<double> round_trip_us;
  std::vector<Update> batch;
  for (int r = 0; r < requests; ++r) {
    FaninTenant& t = tenants[size_t(r) % tenants.size()];
    t.input.Fill(kFaninBatch, &batch);
    Must(Timed(&round_trip_us,
               [&] { return client.Ingest("fan", t.key, batch); }),
         "INGEST");
  }
  daemon.Stop();
  return Median(round_trip_us) * 1000;
}

}  // namespace servebench
