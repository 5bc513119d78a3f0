// Self-tests of the benchmark's load generator and latency accounting
// (loadgen.h): the Zipf sampler, the Poisson arrival schedule, the
// "ten samples beyond" percentile rule and the open-loop lateness split.
//
// Run: python3 perfbench/run.py --self-test   (exit 0 when all pass)

#include <cmath>
#include <cstdio>
#include <vector>

#include "loadgen.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what);
  }
}

bool Near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

void TestZipfSampler() {
  const perfbench::ZipfSampler zipf(1000, 1.0);
  double total = 0.0;
  for (size_t r = 0; r < zipf.size(); ++r) total += zipf.Probability(r);
  Expect(Near(total, 1.0, 1e-12), "zipf probabilities sum to 1");
  Expect(Near(zipf.Probability(0) / zipf.Probability(1), 2.0, 1e-9),
         "zipf(1): rank 1 is twice as likely as rank 2");
  Expect(zipf.Sample(0.0) == 0, "u = 0 maps to the head");
  Expect(zipf.Sample(1.0 - 1e-16) == zipf.size() - 1,
         "u -> 1 maps to the tail");

  // Empirical frequencies of the head ranks match the pmf.
  vup::Rng rng(7);
  std::vector<size_t> counts(zipf.size(), 0);
  const size_t draws = 400000;
  for (size_t i = 0; i < draws; ++i) ++counts[zipf.Sample(rng.Uniform())];
  for (size_t r = 0; r < 5; ++r) {
    const double p = zipf.Probability(r);
    const double sd = std::sqrt(p * (1 - p) / static_cast<double>(draws));
    Expect(Near(static_cast<double>(counts[r]) / draws, p, 5 * sd),
           "zipf head frequency within 5 sigma of its probability");
  }

  // Same seed, same stream; another seed, another stream.
  vup::Rng a(42), b(42), c(43);
  bool same = true, differs = false;
  for (int i = 0; i < 100; ++i) {
    const size_t x = zipf.Sample(a.Uniform());
    same = same && x == zipf.Sample(b.Uniform());
    differs = differs || x != zipf.Sample(c.Uniform());
  }
  Expect(same, "zipf stream is a function of the seed");
  Expect(differs, "different seeds give different streams");

  const perfbench::ZipfSampler uniform(10, 0.0);
  Expect(Near(uniform.Probability(3), 0.1, 1e-12),
         "exponent 0 is uniform");
}

void TestPoissonArrivals() {
  const double rate = 5000.0, duration = 4.0;
  const std::vector<double> due =
      perfbench::PoissonArrivals(rate, duration, 11);
  const double expected = rate * duration;
  Expect(Near(static_cast<double>(due.size()), expected,
              5 * std::sqrt(expected)),
         "poisson count within 5 sigma of rate x duration");
  bool increasing = true;
  for (size_t i = 1; i < due.size(); ++i) {
    increasing = increasing && due[i] > due[i - 1];
  }
  Expect(increasing && !due.empty() && due.front() >= 0 &&
             due.back() < duration,
         "arrivals increase inside [0, duration)");
  // Exponential gaps: the coefficient of variation is 1.
  double sum = 0, sum2 = 0;
  for (size_t i = 1; i < due.size(); ++i) {
    const double gap = due[i] - due[i - 1];
    sum += gap;
    sum2 += gap * gap;
  }
  const double n = static_cast<double>(due.size() - 1);
  const double mean = sum / n;
  const double cv = std::sqrt(sum2 / n - mean * mean) / mean;
  Expect(Near(mean, 1.0 / rate, 0.05 / rate), "mean gap is 1 / rate");
  Expect(Near(cv, 1.0, 0.05), "gap coefficient of variation is 1");
  Expect(perfbench::PoissonArrivals(rate, duration, 11) == due,
         "schedule is a function of the seed");
  Expect(perfbench::PoissonArrivals(0.0, duration, 11).empty(),
         "zero rate gives no arrivals");
}

void TestPercentileRule() {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // Unsorted input.
  perfbench::TailPercentile p99 = perfbench::Percentile(&v, 0.99);
  Expect(p99.value == 990 && p99.beyond == 10 && p99.reported &&
             p99.samples == 1000,
         "p99 of 1..1000 is 990 with exactly 10 beyond: reported");

  v.pop_back();  // 999 samples: only 9 beyond rank ceil(0.99 * 999) = 990.
  p99 = perfbench::Percentile(&v, 0.99);
  Expect(p99.beyond == 9 && !p99.reported,
         "p99 of 999 samples has 9 beyond: not reported");

  std::vector<double> w = {5, 1, 4, 2, 3};
  const perfbench::TailPercentile p50 = perfbench::Percentile(&w, 0.5);
  Expect(p50.value == 3 && p50.beyond == 2 && !p50.reported,
         "median of 5 samples is the 3rd; too few beyond to report");

  std::vector<double> empty;
  Expect(!perfbench::Percentile(&empty, 0.5).reported,
         "no samples, no percentile");
}

void TestLatencySplit() {
  // Idle generator: due at 1.0, sent late at 1.2, done at 1.5.
  perfbench::LatencySplit s = perfbench::SplitLatency(1.0, 0.5, 1.2, 1.5);
  Expect(Near(s.queue_wait, 0.0, 1e-12) && Near(s.generator_lag, 0.2, 1e-12) &&
             Near(s.service, 0.3, 1e-12) && Near(s.total, 0.5, 1e-12),
         "idle: lateness is the generator's");

  // Busy: due at 1.0 while a call ran until 1.4, sent at 1.45.
  s = perfbench::SplitLatency(1.0, 1.4, 1.45, 2.0);
  Expect(Near(s.queue_wait, 0.4, 1e-12) && Near(s.generator_lag, 0.05, 1e-12) &&
             Near(s.service, 0.55, 1e-12),
         "busy: the wait for the in-flight call is queueing, not lag");

  // The parts always add up to the latency a caller sees.
  vup::Rng rng(3);
  bool sums = true;
  for (int i = 0; i < 1000; ++i) {
    const double due = rng.Uniform();
    const double prev = rng.Uniform();
    const double submit = std::max(due, prev) + rng.Uniform() * 0.01;
    const double done = submit + rng.Uniform() * 0.01;
    const perfbench::LatencySplit x =
        perfbench::SplitLatency(due, prev, submit, done);
    sums = sums && Near(x.queue_wait + x.generator_lag + x.service, x.total,
                        1e-12) &&
           x.queue_wait >= 0 && x.generator_lag >= 0;
  }
  Expect(sums, "queue wait + lag + service == due-to-done latency");
}

}  // namespace

int main() {
  TestZipfSampler();
  TestPoissonArrivals();
  TestPercentileRule();
  TestLatencySplit();
  std::printf("%s (%d failure%s)\n", failures == 0 ? "PASS" : "FAIL", failures,
              failures == 1 ? "" : "s");
  return failures == 0 ? 0 : 1;
}
