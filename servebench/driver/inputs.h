// The four workloads' tenant configurations and their seeded inputs.
//
// Every stream is a planted turnstile vector: a few "heavy" coordinates
// that mostly grow, in +-1 noise over a working set. The same seed gives
// the same updates in the same order, so the served run, the traced
// replay and the checks all see one input. The server receives only the
// generated updates; the seed never crosses the wire.
#pragma once

#include <cstdint>
#include <vector>

#include "servebench/driver/common.h"
#include "src/server/protocol.h"
#include "src/stream/update.h"

namespace servebench {

struct StreamShape {
  uint64_t n = 0;             ///< universe size
  int heavy_count = 0;        ///< planted coordinates
  double heavy_share = 0;     ///< share of updates that hit one of them
  double heavy_up = 1.0;      ///< P(+1) for a planted update, else -1
  uint64_t support = 0;       ///< noise working-set size (0 = all of n)
  double noise_up = 0.5;      ///< P(+1) for a noise update, else -1
};

/// An endless seeded update stream of one shape. Where the planted
/// coordinates and the working set lie is part of the workload and comes
/// from `layout`; the updates themselves come from `seed`. (Query cost
/// depends strongly on where the planted coordinates fall; a fixed
/// layout keeps that from dominating the run-to-run spread.)
class PlantedStream {
 public:
  PlantedStream(const StreamShape& shape, uint64_t layout, uint64_t seed);

  lps::stream::Update Next();
  /// Replaces *out with the next `count` updates.
  void Fill(size_t count, std::vector<lps::stream::Update>* out);

  const std::vector<uint64_t>& heavy() const { return heavy_; }

 private:
  StreamShape shape_;
  Rng rng_;
  std::vector<uint64_t> heavy_;
  std::vector<uint64_t> support_;  // empty = the whole universe
};

// ---- hh_ingest: one windowed, non-strict cs_heavy_hitters tenant.
inline constexpr size_t kHhBatch = 1024;
inline constexpr uint64_t kHhLayout = 101;
inline constexpr uint64_t kHhWindow = 16384;
lps::server::SketchConfig HhConfig();
StreamShape HhShape();

// ---- sampler_window_spill: a windowed lp_sampler (p = 1.5) on a
// shards=2, threads=2 pipeline, spilling behind a 2-checkpoint ring.
inline constexpr size_t kSpillBatch = 1024;
inline constexpr uint64_t kSpillLayout = 202;
inline constexpr size_t kSpillResident = 2;
/// Reaches back past the resident ring into spilled checkpoints.
inline constexpr uint64_t kSpillDeepWindow = 6 * 16384;
lps::server::SketchConfig SpillConfig();
StreamShape SpillShape();

// ---- tenant_fanin: many small l0_sampler tenants behind one connection.
inline constexpr int kFaninTenants = 128;
inline constexpr size_t kFaninBatch = 16;
inline constexpr uint64_t kFaninCheckpoint = 1024;
inline constexpr size_t kFaninResident = 2;
/// Passes over the tenants in one round: one checkpoint interval each.
inline constexpr uint64_t kFaninPasses = kFaninCheckpoint / kFaninBatch;
inline constexpr uint64_t kFaninWindow = 2048;
lps::server::SketchConfig FaninConfig(int tenant);
StreamShape FaninShape();
/// Tenant t's stream: its own working set, its own slice of the seed.
PlantedStream FaninStream(uint64_t seed, int tenant);

// ---- epoch_fold: two epoch-shipping workers into lps_serve as root.
inline constexpr int kEpochWorkers = 2;
inline constexpr uint64_t kEpochInterval = 2048;
inline constexpr uint64_t kEpochWindow = 4 * kEpochInterval;
lps::server::SketchConfig EpochConfig();
/// The planted coordinate of the epoch_fold stream.
inline constexpr uint64_t kEpochHeavy = 2718;
/// The position-th update of the epoch_fold stream: a pure function, so
/// worker w of W ingests positions w, w + W, ... and the union is the
/// solo stream.
lps::stream::Update EpochUpdate(uint64_t seed, uint64_t position);

}  // namespace servebench
