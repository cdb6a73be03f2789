// Output checks. Each compares one answer of the program against exact
// counts the benchmark keeps itself (plain vectors and maps, never the
// library's own ExactVector), or against a property the method must
// have. A check returns "" when the answer is right and a reason when it
// is not. Every run also feeds one of its real answers, corrupted, back
// through its check and requires the check to reject it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/api/query_result.h"

namespace servebench {

/// hh_ingest: a valid heavy-hitter set for p = 1 (Section 4.4) of the
/// dense vector x: every i with |x_i| >= phi ||x||_1 is in the answer and
/// no i with |x_i| < (phi / 2) ||x||_1 is.
std::string CheckHeavySet(const std::vector<int64_t>& x, double phi,
                          const lps::QueryResult& answer);

/// Relative error the Lp sampler's recovery step guarantees for its
/// estimate: it accepts only when |z*_i| >= eps^(-1/p) r and
/// s <= beta m^(1/2) r with beta = eps^(1 - 1/p), and the count-sketch
/// point error is at most s / m^(1/2) <= beta r, so
/// |est - x_i| <= beta eps^(1/p) / (1 - beta eps^(1/p)) |x_i|
///            = eps / (1 - eps) |x_i|.
double LpEstimateFactor(double eps);

/// sampler_window_spill: a FAIL is allowed (its share is checked
/// separately against delta); otherwise the sampled index must lie in
/// the window's support (`exact` is its exact value there) and the
/// estimate must be within LpEstimateFactor(eps) of it.
std::string CheckLpSample(int64_t exact, double eps,
                          const lps::QueryResult& answer);

/// tenant_fanin: a FAIL is allowed; otherwise the sampled index lies in
/// the support and the reported value equals x_i exactly.
std::string CheckL0Sample(int64_t exact, const lps::QueryResult& answer);

/// epoch_fold: the served state is bit-identical to the solo sketch's.
std::string CheckSameState(const std::vector<uint64_t>& got, size_t got_bits,
                           const std::vector<uint64_t>& want,
                           size_t want_bits);

/// A FAIL share above `delta` plus four binomial standard errors over
/// `answers` draws is more than the guarantee allows.
std::string CheckFailShare(uint64_t fails, uint64_t answers, double delta);

/// Chi-square p-value that `counts` (sample ranks bucketed over their
/// supports) are uniform over the buckets.
double UniformPValue(const std::vector<uint64_t>& counts);

/// The uniformity test's fixed, loose level: a correct sampler fails it
/// about once in a million runs.
inline constexpr double kUniformLevel = 1e-6;

}  // namespace servebench
