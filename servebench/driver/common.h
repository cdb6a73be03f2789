// Shared types of the served-path benchmark driver: the run's arguments,
// its result (what main prints as the final JSON line), timing helpers
// and the seeded generator every input is drawn from.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double NanosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string serve_bin;  ///< path of the lps_serve binary to spawn
  std::string work_dir;   ///< scratch space inside the checkout
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports. `correct` covers every answer that was checked;
/// `failed` counts requests the program answered with an error.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< why `correct` is false

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Problem(std::string what) {
    correct = false;
    problems.push_back(std::move(what));
  }
};

/// splitmix64: the benchmark's only source of randomness, so one seed
/// fixes every input.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  double Unit() { return double(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Nearest-rank percentile (q in [0, 1]) of a sample; sorts a copy.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = size_t(q * double(values.size()));
  if (rank >= values.size()) rank = values.size() - 1;
  return values[rank];
}

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

}  // namespace servebench
