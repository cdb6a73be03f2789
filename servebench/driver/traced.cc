#include "servebench/driver/traced.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "servebench/driver/checks.h"
#include "servebench/driver/inputs.h"
#include "servebench/driver/served.h"
#include "src/api/query_result.h"
#include "src/api/sketch_spec.h"
#include "src/dist/aggregator.h"
#include "src/io/update_decoder.h"
#include "src/norm/lp_norm.h"
#include "src/persist/checkpoint_store.h"
#include "src/persist/delta_codec.h"
#include "src/server/protocol.h"
#include "src/server/tenant_registry.h"
#include "src/stream/parallel_pipeline.h"
#include "src/stream/window_manager.h"

namespace servebench {
namespace {

using lps::QueryResult;
using lps::server::SketchConfig;
using lps::server::TenantRegistry;
using lps::stream::Update;

/// Per-call wall times of one layer, in ns (divided by `per` to report
/// per update where a call carries a batch).
class Span {
 public:
  template <typename F>
  auto Time(F&& call, double per = 1) {
    const auto start = Clock::now();
    auto out = call();
    ns_.push_back(NanosSince(start) / per);
    return out;
  }
  template <typename F>
  void TimeVoid(F&& call, double per = 1) {
    const auto start = Clock::now();
    call();
    ns_.push_back(NanosSince(start) / per);
  }
  double Median() const { return servebench::Median(ns_); }
  size_t calls() const { return ns_.size(); }

 private:
  std::vector<double> ns_;
};

void Require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error("traced replay: " + what);
}

/// Accumulates the run's result: every Span's median as one metric and
/// its call count in `attempted`.
struct Report {
  RunResult result;
  void Add(const std::string& name, const Span& span) {
    result.attempted += span.calls();
    result.Add(name, span.Median(), "ns");
  }
};

// ------------------------------------------------- hh_ingest's inputs --

void TraceHeavy(const Args& args, Report* report) {
  const SketchConfig config = HhConfig();
  PlantedStream input(HhShape(), kHhLayout, args.seed);
  const auto sketch = lps::MakeSketch(config.spec);
  // The norm estimator a non-strict cs_heavy_hitters tenant carries,
  // standalone, with the tenant's 1200 rows.
  lps::norm::LpNormEstimator norm(config.spec.p, 1200, config.spec.seed);
  std::vector<int64_t> x(config.spec.n, 0);
  std::vector<Update> batch;
  Span update, norm_update, query;
  for (int b = 0; b < 48; ++b) {
    input.Fill(kHhBatch, &batch);
    update.TimeVoid([&] { sketch->UpdateBatch(batch.data(), batch.size()); },
                    double(batch.size()));
    norm_update.TimeVoid([&] { norm.UpdateBatch(batch.data(), batch.size()); },
                         double(batch.size()));
    for (const Update& u : batch) x[u.index] += u.delta;
    const QueryResult answer = query.Time([&] { return lps::Query(*sketch); });
    const std::string verdict = CheckHeavySet(x, config.spec.phi, answer);
    if (!verdict.empty()) report->result.Problem("cs_heavy_hitters: " + verdict);
  }
  report->Add("heavy.cs_hh.update_ns", update);
  report->Add("norm.lp_norm.update_ns", norm_update);
  report->Add("api.query_ns.cs_heavy_hitters", query);
}

// ------------------------------------- sampler_window_spill's inputs --

std::vector<uint64_t> Words(const lps::LinearSketch& sketch, size_t* bits) {
  lps::BitWriter writer;
  sketch.Serialize(&writer);
  *bits = writer.bit_count();
  return writer.words();
}

void TraceSampler(const Args& args, const std::string& dir, Report* report) {
  const SketchConfig config = SpillConfig();
  const uint64_t n = config.spec.n;
  PlantedStream input(SpillShape(), kSpillLayout, args.seed);
  const auto solo = lps::MakeSketch(config.spec);
  std::vector<std::unique_ptr<lps::LinearSketch>> replicas;
  for (int s = 0; s < config.shards; ++s) {
    replicas.push_back(lps::MakeSketch(config.spec));
  }
  lps::stream::ParallelPipeline::Options pipeline_options;
  pipeline_options.shards = config.shards;
  pipeline_options.threads = config.threads;
  lps::stream::ParallelPipeline pipeline(pipeline_options);
  pipeline.Add("sampler", {replicas[0].get(), replicas[1].get()});
  lps::stream::WindowManager::Options window_options;
  window_options.checkpoint_interval = config.window_checkpoint;
  window_options.max_checkpoints = size_t(config.max_checkpoints);
  lps::stream::WindowManager window(replicas[0].get(), window_options);

  auto store = lps::persist::CheckpointStore::Open(dir + "/store");
  Require(store.ok(), "open store: " + store.status().ToString());

  std::vector<int64_t> x(n, 0);
  std::vector<Update> batch;
  std::vector<uint64_t> previous;
  size_t previous_bits = 0;
  double raw_bytes = 0;
  double encoded_bytes = 0;
  Span update, query, drive, merge, seal, encode, decode, append;
  // An epoch of two batches, as the served tenant sees between reads.
  for (int b = 0; b < 96; ++b) {
    input.Fill(kSpillBatch, &batch);
    for (const Update& u : batch) x[u.index] += u.delta;
    update.TimeVoid([&] { solo->UpdateBatch(batch.data(), batch.size()); },
                    double(batch.size()));
    drive.TimeVoid([&] { pipeline.Drive(batch.data(), batch.size()); },
                   double(batch.size()));
    if (b % 2 == 0) continue;
    merge.TimeVoid([&] { pipeline.MergeShards(); });
    seal.TimeVoid([&] { window.SealEpoch(2 * kSpillBatch); });
    const QueryResult answer = query.Time([&] { return lps::Query(*solo); });
    const int64_t exact = answer.index < n ? x[answer.index] : 0;
    const std::string verdict = CheckLpSample(exact, config.spec.eps, answer);
    if (!verdict.empty()) report->result.Problem("lp_sampler: " + verdict);

    // The spill path of that checkpoint: delta against its predecessor,
    // decode back, append to the store.
    size_t bits = 0;
    const std::vector<uint64_t> words = Words(*replicas[0], &bits);
    const lps::persist::EncodedDelta delta = encode.Time([&] {
      return lps::persist::EncodeBestDelta(words, bits, previous,
                                           previous_bits);
    });
    std::vector<uint64_t> decoded;
    size_t decoded_bits = 0;
    const bool round_trip = decode.Time([&] {
      return lps::persist::DecodeDelta(delta, previous, previous_bits,
                                       &decoded, &decoded_bits);
    });
    Require(round_trip && decoded == words && decoded_bits == bits,
            "delta codec round trip");
    const lps::Status appended = append.Time([&] {
      return store.value()->Append("trace", 1, delta.bytes.data(),
                                   delta.bytes.size());
    });
    Require(appended.ok(), "store append: " + appended.ToString());
    raw_bytes += double(words.size() * 8);
    encoded_bytes += double(delta.bytes.size());
    previous = words;
    previous_bits = bits;
  }
  report->Add("core.lp_sampler.update_ns", update);
  report->Add("api.query_ns.lp_sampler", query);
  report->Add("stream.pipeline.drive_ns", drive);
  report->Add("stream.pipeline.merge_ns", merge);
  report->Add("stream.window.seal_ns", seal);
  report->Add("persist.delta.encode_ns", encode);
  report->Add("persist.delta.decode_ns", decode);
  report->Add("persist.store.append_ns", append);
  report->result.Add("persist.delta.ratio", raw_bytes / encoded_bytes, "ratio");

  // Windows over that ring, once spilled behind the served resident
  // budget: a window inside the resident ring materializes from RAM, a
  // deep one rehydrates its start from the store first.
  lps::stream::WindowManager::SpillOptions spill;
  spill.store = store.value().get();
  spill.stream_key = "window";
  spill.resident_checkpoints = kSpillResident;
  window.AttachSpill(spill);
  Span materialize, rehydrate;
  Rng pick(args.seed);
  const uint64_t step = 2 * kSpillBatch;
  for (int r = 0; r < 24; ++r) {
    materialize.TimeVoid([&] { window.WindowSketch(step); });
    const uint64_t back = (kSpillResident + 2 + pick.Below(36)) * step;
    rehydrate.TimeVoid([&] { window.WindowSketch(back); });
  }
  report->Add("stream.window.materialize_ns", materialize);
  report->Add("stream.window.rehydrate_ns", rehydrate);
}

/// Checkpoints a served sampler tenant seals over 64 batches of the
/// workload's read mix (a read after every batch), replayed through an
/// in-process registry with the store attached.
void TraceCheckpoints(const Args& args, const std::string& dir,
                      Report* report) {
  auto store = lps::persist::CheckpointStore::Open(dir + "/registry");
  Require(store.ok(), "open store: " + store.status().ToString());
  TenantRegistry registry;
  TenantRegistry::PersistOptions options;
  options.resident_checkpoints = kSpillResident;
  registry.AttachStore(store.value().get(), options);
  Require(registry.Create("spill", "x", SpillConfig()).ok(), "CREATE");
  PlantedStream input(SpillShape(), kSpillLayout, args.seed);
  std::vector<Update> batch;
  for (int b = 0; b < 64; ++b) {
    input.Fill(kSpillBatch, &batch);
    Require(registry.Ingest("spill", "x", batch).ok(), "ingest");
    if (b % 2 == 0) {
      Require(registry.Query("spill", "x").ok(), "query");
    } else {
      Require(registry.Window("spill", "x", kSpillDeepWindow, false).ok(),
              "window");
    }
  }
  size_t spilled = 0;
  for (const std::string& key : store.value()->Keys()) {
    if (key.compare(0, 2, "w:") == 0) spilled += store.value()->RecordCount(key);
  }
  report->result.attempted += 128;
  report->result.Add("stream.window.checkpoints",
                     double(spilled + kSpillResident), "count");
}

// --------------------------------------------- tenant_fanin's inputs --

void TraceFanin(const Args& args, Report* report) {
  std::vector<PlantedStream> inputs;
  for (int t = 0; t < kFaninTenants; ++t) {
    inputs.push_back(FaninStream(args.seed, t));
  }
  TenantRegistry registry;
  for (int t = 0; t < kFaninTenants; ++t) {
    Require(registry.Create("fan", "t" + std::to_string(t), FaninConfig(t))
                .ok(),
            "CREATE");
  }
  const auto solo = lps::MakeSketch(FaninConfig(0).spec);
  std::unordered_map<uint64_t, int64_t> x0;  // tenant 0's exact vector
  std::vector<Update> batch;
  const std::vector<Update> empty;
  Span update, query, encode, decode, ingest, lookup;
  double frame_bytes = 0;
  double updates = 0;
  for (int r = 0; r < 8192; ++r) {
    const int t = r % kFaninTenants;
    const std::string key = "t" + std::to_string(t);
    inputs[size_t(t)].Fill(kFaninBatch, &batch);
    if (t == 0) {
      update.TimeVoid([&] { solo->UpdateBatch(batch.data(), batch.size()); },
                      double(batch.size()));
      for (const Update& u : batch) x0[u.index] += u.delta;
      const QueryResult answer = query.Time([&] { return lps::Query(*solo); });
      auto it = x0.find(answer.index);
      const std::string verdict =
          CheckL0Sample(it == x0.end() ? 0 : it->second, answer);
      if (!verdict.empty()) report->result.Problem("l0_sampler: " + verdict);
    }
    // The INGEST request as the client frames it and the server reads it.
    const std::vector<uint8_t> frame = encode.Time([&] {
      lps::BitWriter body;
      lps::server::WriteString(&body, "fan");
      lps::server::WriteString(&body, key);
      lps::server::WriteUpdates(&body, batch.data(), batch.size());
      return lps::server::EncodeFrame(
          uint8_t(lps::server::Opcode::kIngest), body);
    });
    const std::vector<Update> read = decode.Time([&] {
      auto decoded = lps::server::DecodeFramePayload(frame.data() + 4,
                                                     frame.size() - 4);
      Require(decoded.ok(), "frame decode");
      lps::BitReader& body = decoded.value().body;
      lps::server::ReadString(&body);
      lps::server::ReadString(&body);
      return lps::server::ReadUpdates(&body);
    });
    Require(read.size() == batch.size() && read.back().index ==
                                               batch.back().index,
            "codec round trip");
    frame_bytes += double(frame.size());
    updates += double(batch.size());
    Require(ingest.Time([&] { return registry.Ingest("fan", key, batch); }).ok(),
            "registry ingest");
    Require(lookup.Time([&] { return registry.Ingest("fan", key, empty); }).ok(),
            "registry lookup");
  }
  report->Add("core.l0_sampler.update_ns", update);
  report->Add("api.query_ns.l0_sampler", query);
  report->Add("server.codec.encode_ns", encode);
  report->Add("server.codec.decode_ns", decode);
  report->result.Add("server.codec.bytes_per_update", frame_bytes / updates,
                     "bytes/update");
  report->Add("server.registry.ingest_ns", ingest);
  report->Add("server.registry.lookup_ns", lookup);

  // The served round trip of the same requests, minus what the codec and
  // the registry account for: socket I/O, the server's threads and
  // queues, and the reply.
  const int served = 4096;
  const double round_trip = ServedFaninIngestNs(args, served);
  report->result.attempted += served;
  report->result.Add("server.transport_ns",
                     round_trip - encode.Median() - decode.Median() -
                         ingest.Median(),
                     "ns");
}

// ----------------------------------------------- epoch_fold's inputs --

void TraceEpochs(const Args& args, Report* report) {
  const SketchConfig config = EpochConfig();
  const uint64_t n = config.spec.n;
  const auto solo = lps::MakeSketch(config.spec);
  const auto delta = lps::MakeSketch(config.spec);
  TenantRegistry registry;
  Require(registry.Create("dist", "s", config).ok(), "CREATE");
  std::vector<Update> epoch(kEpochInterval);
  lps::stream::UpdateStream all;
  Span update, query, serialize, validate, fold;
  for (uint64_t e = 0; e < 64; ++e) {
    for (uint64_t k = 0; k < kEpochInterval; ++k) {
      epoch[k] = EpochUpdate(args.seed, e * kEpochInterval + k);
    }
    all.insert(all.end(), epoch.begin(), epoch.end());
    update.TimeVoid([&] { solo->UpdateBatch(epoch.data(), epoch.size()); },
                    double(epoch.size()));
    query.TimeVoid([&] { lps::Query(*solo); });
    delta->Reset();
    delta->UpdateBatch(epoch.data(), epoch.size());
    // A worker's epoch close: serialize the delta into its blob.
    lps::server::EpochBlob blob;
    lps::BitWriter wire;
    serialize.TimeVoid([&] {
      lps::BitWriter state;
      delta->Serialize(&state);
      blob.tenant = "dist";
      blob.key = "s";
      blob.seq = e;
      blob.count = kEpochInterval;
      blob.config = config;
      blob.state_words = state.words();
      blob.state_bits = state.bit_count();
      lps::server::SerializeEpoch(blob, &wire);
    });
    // The root's half: validate the state against the config, fold it.
    auto decoded = validate.Time([&] {
      return lps::dist::DecodeEpochState(config, blob.state_words,
                                         blob.state_bits);
    });
    Require(decoded.ok(), "epoch validation");
    const lps::Status folded = fold.Time([&] {
      return registry.FoldEpoch("dist", "s", config, *decoded.value(),
                                kEpochInterval);
    });
    Require(folded.ok(), "fold: " + folded.ToString());
  }
  auto snapshot = registry.Snapshot("dist", "s");
  Require(snapshot.ok(), "snapshot");
  size_t bits = 0;
  const std::vector<uint64_t> want = Words(*solo, &bits);
  const std::string verdict = CheckSameState(
      snapshot.value().state_words, snapshot.value().state_bits, want, bits);
  if (!verdict.empty()) report->result.Problem("epoch fold: " + verdict);
  report->Add("heavy.cm_hh.update_ns", update);
  report->Add("api.query_ns.cm_heavy_hitters", query);
  report->Add("dist.epoch.serialize_ns", serialize);
  report->Add("dist.epoch.validate_ns", validate);
  report->Add("dist.epoch.fold_ns", fold);

  // The same updates as a binary trace through the incremental decoder,
  // in 64 KiB reads.
  std::string trace;
  lps::io::WriteBinaryTrace(&trace, n, all);
  std::vector<double> mb_per_s;
  for (int r = 0; r < 8; ++r) {
    lps::io::UpdateDecoder decoder;
    lps::stream::UpdateStream out;
    out.reserve(all.size());
    const auto start = Clock::now();
    for (size_t at = 0; at < trace.size(); at += 65536) {
      decoder.Consume(trace.data() + at,
                      std::min<size_t>(65536, trace.size() - at), &out);
    }
    Require(decoder.Finish(&out).ok(), "trace decode");
    mb_per_s.push_back(double(trace.size()) / 1e6 / SecondsSince(start));
    Require(out.size() == all.size() && out.back().index == all.back().index,
            "trace round trip");
  }
  report->result.attempted += mb_per_s.size();
  report->result.Add("io.decode_mb_per_s", Median(mb_per_s), "MB/s");
}

}  // namespace

RunResult RunTraced(const Args& args) {
  const std::string dir =
      args.work_dir + "/traced-" + std::to_string(::getpid());
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
  std::filesystem::create_directories(dir);
  Report report;
  try {
    TraceHeavy(args, &report);
    TraceSampler(args, dir, &report);
    TraceCheckpoints(args, dir, &report);
    TraceFanin(args, &report);
    TraceEpochs(args, &report);
  } catch (...) {
    std::filesystem::remove_all(dir, ignored);
    throw;
  }
  std::filesystem::remove_all(dir, ignored);
  return report.result;
}

}  // namespace servebench
