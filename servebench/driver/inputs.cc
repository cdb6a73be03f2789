#include "servebench/driver/inputs.h"

#include <unordered_set>

#include "src/dist/planted.h"

namespace servebench {

PlantedStream::PlantedStream(const StreamShape& shape, uint64_t layout,
                             uint64_t seed)
    : shape_(shape), rng_(seed) {
  Rng place(layout);
  std::unordered_set<uint64_t> taken;
  while (int(heavy_.size()) < shape_.heavy_count) {
    const uint64_t i = place.Below(shape_.n);
    if (taken.insert(i).second) heavy_.push_back(i);
  }
  if (shape_.support > 0 && shape_.support < shape_.n) {
    while (support_.size() < shape_.support) {
      const uint64_t i = place.Below(shape_.n);
      if (taken.insert(i).second) support_.push_back(i);
    }
  }
}

lps::stream::Update PlantedStream::Next() {
  lps::stream::Update u;
  if (!heavy_.empty() && rng_.Unit() < shape_.heavy_share) {
    u.index = heavy_[rng_.Below(heavy_.size())];
    u.delta = rng_.Unit() < shape_.heavy_up ? 1 : -1;
  } else {
    u.index = support_.empty() ? rng_.Below(shape_.n)
                               : support_[rng_.Below(support_.size())];
    u.delta = rng_.Unit() < shape_.noise_up ? 1 : -1;
  }
  return u;
}

void PlantedStream::Fill(size_t count, std::vector<lps::stream::Update>* out) {
  out->resize(count);
  for (auto& u : *out) u = Next();
}

lps::server::SketchConfig HhConfig() {
  // lps_bench_client's served tenant.
  lps::server::SketchConfig config;
  config.spec.kind = lps::SketchKind::kCsHeavyHitters;
  config.spec.n = 1 << 14;
  config.spec.p = 1.0;
  config.spec.phi = 0.05;
  config.spec.seed = 1000;
  config.window_checkpoint = 8192;
  return config;
}

StreamShape HhShape() {
  // Three planted items near 11% of the updates each (net drift 0.8)
  // keep every window's heavy share far above phi, and the noise far
  // below phi / 2, so a valid answer is always well defined.
  StreamShape shape;
  shape.n = 1 << 14;
  shape.heavy_count = 3;
  shape.heavy_share = 0.4;
  shape.heavy_up = 0.9;
  return shape;
}

lps::server::SketchConfig SpillConfig() {
  lps::server::SketchConfig config;
  config.spec.kind = lps::SketchKind::kLpSampler;
  config.spec.n = 1 << 12;
  config.spec.p = 1.5;
  config.spec.eps = 0.5;
  config.spec.delta = 0.25;
  config.spec.seed = 77;
  config.window_checkpoint = 16384;
  config.shards = 2;
  config.threads = 2;
  return config;
}

StreamShape SpillShape() {
  // A hot set of 8 coordinates takes half the updates, the rest is
  // turnstile noise over a quarter of the universe: the sampler's mass
  // sits on the hot set, and most coordinates stay outside the support.
  StreamShape shape;
  shape.n = 1 << 12;
  shape.heavy_count = 8;
  shape.heavy_share = 0.5;
  shape.heavy_up = 0.75;
  shape.support = 1024;
  return shape;
}

lps::server::SketchConfig FaninConfig(int tenant) {
  lps::server::SketchConfig config;
  config.spec.kind = lps::SketchKind::kL0Sampler;
  config.spec.n = 1 << 16;
  config.spec.delta = 0.25;
  config.spec.seed = 5000 + uint64_t(tenant);
  config.window_checkpoint = kFaninCheckpoint;
  return config;
}

StreamShape FaninShape() {
  StreamShape shape;
  shape.n = 1 << 16;
  shape.support = 512;
  shape.noise_up = 0.6;
  return shape;
}

PlantedStream FaninStream(uint64_t seed, int tenant) {
  return PlantedStream(FaninShape(), 300 + uint64_t(tenant),
                       seed * 1000003 + uint64_t(tenant) * 7919 + 17);
}

lps::server::SketchConfig EpochConfig() { return lps::dist::PlantedConfig(); }

lps::stream::Update EpochUpdate(uint64_t seed, uint64_t position) {
  // The shape of dist::PlantedUpdate (a quarter of the updates on the
  // planted coordinate, +-1 noise elsewhere, one third of it deletions),
  // drawn from the seed. The planted updates are spread by hash, not by
  // position, so every worker's slice carries them.
  Rng rng(seed * 0x2545f4914f6cdd1dull + position);
  const uint64_t z = rng.Next();
  lps::stream::Update u;
  if (z % 4 == 0) {
    u.index = kEpochHeavy;
    u.delta = 1;
  } else {
    u.index = (z >> 2) % lps::dist::kPlantedUniverse;
    u.delta = (z >> 40) % 3 == 0 ? -1 : 1;
  }
  return u;
}

}  // namespace servebench
