#include "servebench/driver/checks.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "src/stats/stats.h"

namespace servebench {

using lps::QueryResult;

std::string CheckHeavySet(const std::vector<int64_t>& x, double phi,
                          const QueryResult& answer) {
  if (answer.type != QueryResult::Type::kHeavyHitters) {
    return "not a heavy-hitter answer: " + answer.ToText();
  }
  double l1 = 0;
  for (const int64_t v : x) l1 += double(std::llabs(v));
  for (const uint64_t i : answer.items) {
    if (i >= x.size()) return "item " + std::to_string(i) + " out of range";
    if (double(std::llabs(x[i])) < phi / 2 * l1) {
      return "light item " + std::to_string(i) + " (|x_i| = " +
             std::to_string(std::llabs(x[i])) + ", ||x||_1 = " +
             std::to_string(l1) + ")";
    }
  }
  for (size_t i = 0; i < x.size(); ++i) {
    if (double(std::llabs(x[i])) >= phi * l1 &&
        !std::binary_search(answer.items.begin(), answer.items.end(),
                            uint64_t(i))) {
      return "heavy item " + std::to_string(i) + " missing (|x_i| = " +
             std::to_string(std::llabs(x[i])) + ", ||x||_1 = " +
             std::to_string(l1) + ")";
    }
  }
  return "";
}

double LpEstimateFactor(double eps) { return eps / (1 - eps); }

std::string CheckLpSample(int64_t exact, double eps,
                          const QueryResult& answer) {
  if (answer.type == QueryResult::Type::kFailed) return "";
  if (answer.type != QueryResult::Type::kSample) {
    return "not a sample: " + answer.ToText();
  }
  if (exact == 0) {
    return "index " + std::to_string(answer.index) + " outside the support";
  }
  const double error = std::abs(answer.value - double(exact));
  // 1e-9 relative slack for floating-point rounding in the recovery.
  if (error > LpEstimateFactor(eps) * double(std::llabs(exact)) * (1 + 1e-9)) {
    return "estimate " + std::to_string(answer.value) + " of x_" +
           std::to_string(answer.index) + " = " + std::to_string(exact) +
           " outside the recovery bound";
  }
  return "";
}

std::string CheckL0Sample(int64_t exact, const QueryResult& answer) {
  if (answer.type == QueryResult::Type::kFailed) return "";
  if (answer.type != QueryResult::Type::kSample) {
    return "not a sample: " + answer.ToText();
  }
  if (exact == 0) {
    return "index " + std::to_string(answer.index) + " outside the support";
  }
  if (answer.value != double(exact)) {
    return "value " + std::to_string(answer.value) + " of x_" +
           std::to_string(answer.index) + " = " + std::to_string(exact) +
           " is not exact";
  }
  return "";
}

std::string CheckSameState(const std::vector<uint64_t>& got, size_t got_bits,
                           const std::vector<uint64_t>& want,
                           size_t want_bits) {
  if (got_bits != want_bits) {
    return "state is " + std::to_string(got_bits) + " bits, solo is " +
           std::to_string(want_bits);
  }
  for (size_t w = 0; w < want.size(); ++w) {
    if (w >= got.size() || got[w] != want[w]) {
      return "state differs from the solo sketch at word " + std::to_string(w);
    }
  }
  return "";
}

std::string CheckFailShare(uint64_t fails, uint64_t answers, double delta) {
  if (answers == 0) return "no answers";
  const double n = double(answers);
  const double limit = delta + 4 * std::sqrt(delta * (1 - delta) / n);
  if (double(fails) / n > limit) {
    return std::to_string(fails) + " FAIL answers of " +
           std::to_string(answers) + " exceed delta = " +
           std::to_string(delta);
  }
  return "";
}

double UniformPValue(const std::vector<uint64_t>& counts) {
  const std::vector<double> probs(counts.size(), 1.0 / double(counts.size()));
  return lps::stats::ChiSquareGof(counts, probs).p_value;
}

}  // namespace servebench
