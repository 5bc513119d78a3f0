#ifndef VUPRED_PERFBENCH_LOADGEN_H_
#define VUPRED_PERFBENCH_LOADGEN_H_

// Seeded load generation and latency accounting for vupbench.
// Header-only on top of vup::Rng, so selftest.cc checks it in isolation:
// the request stream and the percentile rule decide what the serve_zipf
// numbers mean, so they get their own tests.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/random.h"

namespace perfbench {

/// Zipf distribution over ranks 0..n-1: P(rank r) is proportional to
/// 1 / (r + 1)^exponent. Sampling inverts the precomputed CDF by binary
/// search, so a draw costs O(log n) and depends only on the uniform input.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double exponent) : cdf_(n) {
    double total = 0.0;
    for (size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
    if (n > 0) cdf_.back() = 1.0;
  }

  size_t size() const { return cdf_.size(); }

  double Probability(size_t rank) const {
    return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
  }

  /// The rank whose CDF interval holds `u` in [0, 1).
  size_t Sample(double u) const {
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Due times (seconds from the start of the window) of a Poisson arrival
/// process at `rate` per second over [0, duration_s): exponential gaps.
inline std::vector<double> PoissonArrivals(double rate, double duration_s,
                                           uint64_t seed) {
  std::vector<double> due;
  if (rate <= 0.0 || duration_s <= 0.0) return due;
  vup::Rng rng(seed);
  for (double t = rng.Exponential(rate); t < duration_s;
       t += rng.Exponential(rate)) {
    due.push_back(t);
  }
  return due;
}

/// Minimum number of samples that must lie beyond a percentile before it
/// is reported: a p99 read off fewer than ten slower samples is one
/// scheduler hiccup, not a tail.
inline constexpr size_t kMinSamplesBeyond = 10;

/// A nearest-rank percentile with the evidence behind it.
struct TailPercentile {
  double value = 0.0;
  size_t samples = 0;  // Sample count the percentile was taken over.
  size_t beyond = 0;   // Samples ranked strictly after the reported one.
  bool reported = false;
};

/// Nearest-rank percentile `q` in (0, 1] of `samples` (sorted in place):
/// the value at rank ceil(q * n). Reported only when at least
/// kMinSamplesBeyond samples rank after it.
inline TailPercentile Percentile(std::vector<double>* samples, double q) {
  TailPercentile out;
  out.samples = samples->size();
  if (samples->empty()) return out;
  std::sort(samples->begin(), samples->end());
  const double n = static_cast<double>(samples->size());
  size_t rank = static_cast<size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, samples->size());
  out.value = (*samples)[rank - 1];
  out.beyond = samples->size() - rank;
  out.reported = out.beyond >= kMinSamplesBeyond;
  return out;
}

/// Where one open-loop request's time went. The request fell due at
/// `due`; the generator could not send it before the previous call
/// returned (`previous_done`), sent it at `submit`, and got the response
/// at `done`. All in seconds on one clock.
struct LatencySplit {
  double queue_wait = 0.0;     // due -> ready: waited for an in-flight call.
  double generator_lag = 0.0;  // ready -> submit: the generator ran late.
  double service = 0.0;        // submit -> done: inside PredictBatch.
  double total = 0.0;          // due -> done: the latency a caller sees.
};

inline LatencySplit SplitLatency(double due, double previous_done,
                                 double submit, double done) {
  const double ready = std::max(due, previous_done);
  LatencySplit split;
  split.queue_wait = ready - due;
  split.generator_lag = std::max(0.0, submit - ready);
  split.service = done - submit;
  split.total = done - due;
  return split;
}

}  // namespace perfbench

#endif  // VUPRED_PERFBENCH_LOADGEN_H_
