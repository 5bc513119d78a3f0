#include "ml/svr.h"

#include <algorithm>
#include <cmath>

#include "stats/descriptive.h"

namespace vup {

namespace {

/// Objective change of moving the pair by delta:
///   dW = 1/2 * eta * delta^2 + (f_i - f_j) * delta
///        + eps * (|bi + delta| - |bi|) + eps * (|bj - delta| - |bj|).
double PairObjectiveDelta(double delta, double eta, double f_diff, double eps,
                          double bi, double bj) {
  return 0.5 * eta * delta * delta + f_diff * delta +
         eps * (std::abs(bi + delta) - std::abs(bi)) +
         eps * (std::abs(bj - delta) - std::abs(bj));
}

}  // namespace

Status Svr::Fit(const Matrix& x, std::span<const double> y) {
  fitted_ = false;
  if (x.rows() == 0 || x.cols() == 0) {
    return Status::InvalidArgument("empty design matrix");
  }
  if (y.size() != x.rows()) {
    return Status::InvalidArgument("target size does not match design matrix");
  }
  if (options_.c <= 0.0) {
    return Status::InvalidArgument("C must be positive");
  }
  if (options_.epsilon < 0.0) {
    return Status::InvalidArgument("epsilon must be non-negative");
  }

  const size_t n = x.rows();
  num_features_ = x.cols();
  const double c = options_.c;
  const double eps = options_.epsilon;

  KernelParams kernel = options_.kernel;
  if (kernel.gamma <= 0.0) {
    kernel.gamma = kernel.EffectiveGamma(num_features_);
  }
  Matrix k = KernelMatrix(kernel, x);

  std::vector<double> beta(n, 0.0);
  // f_i = sum_k beta_k K_ik - y_i (gradient of the smooth part).
  std::vector<double> f(n);
  for (size_t i = 0; i < n; ++i) f[i] = -y[i];

  for (size_t sweep = 0; sweep < options_.max_sweeps; ++sweep) {
    double sweep_improvement = 0.0;
    for (size_t i = 0; i < n; ++i) {
      // Partner: the index with the largest |f_i - f_k| (steepest pair).
      size_t j = i;
      double best_gap = 0.0;
      for (size_t kk = 0; kk < n; ++kk) {
        double gap = std::abs(f[i] - f[kk]);
        if (kk != i && gap > best_gap) {
          best_gap = gap;
          j = kk;
        }
      }
      if (j == i) continue;

      double eta = k(i, i) + k(j, j) - 2.0 * k(i, j);
      if (eta <= 1e-12) continue;
      double f_diff = f[i] - f[j];
      double bi = beta[i];
      double bj = beta[j];

      // Feasible delta range from the box constraints.
      double lo = std::max(-c - bi, bj - c);
      double hi = std::min(c - bi, bj + c);
      if (lo >= hi) continue;

      // Candidate minimizers: stationary points per sign region of
      // (bi + delta, bj - delta), plus the kinks and the box ends.
      double candidates[8];
      int num_candidates = 0;
      for (double sa : {-1.0, 1.0}) {
        for (double sb : {-1.0, 1.0}) {
          candidates[num_candidates++] =
              -(f_diff + eps * (sa - sb)) / eta;
        }
      }
      candidates[num_candidates++] = -bi;  // bi + delta == 0.
      candidates[num_candidates++] = bj;   // bj - delta == 0.
      candidates[num_candidates++] = lo;
      candidates[num_candidates++] = hi;

      double best_delta = 0.0;
      double best_obj = 0.0;
      for (int ci = 0; ci < num_candidates; ++ci) {
        double delta = std::clamp(candidates[ci], lo, hi);
        double obj = PairObjectiveDelta(delta, eta, f_diff, eps, bi, bj);
        if (obj < best_obj) {
          best_obj = obj;
          best_delta = delta;
        }
      }
      if (best_obj >= -1e-14 || best_delta == 0.0) continue;

      beta[i] += best_delta;
      beta[j] -= best_delta;
      for (size_t kk = 0; kk < n; ++kk) {
        f[kk] += best_delta * (k(i, kk) - k(j, kk));
      }
      sweep_improvement += -best_obj;
    }
    if (sweep_improvement < options_.tol) break;
  }

  // Bias from the KKT conditions of free support vectors:
  // 0 < beta_i < C  ->  b = -f_i - eps;  -C < beta_i < 0  ->  b = -f_i + eps.
  const double bound_slack = c * (1.0 - 1e-9);
  std::vector<double> bias_estimates;
  for (size_t i = 0; i < n; ++i) {
    if (beta[i] > 1e-12 && beta[i] < bound_slack) {
      bias_estimates.push_back(-f[i] - eps);
    } else if (beta[i] < -1e-12 && beta[i] > -bound_slack) {
      bias_estimates.push_back(-f[i] + eps);
    }
  }
  if (!bias_estimates.empty()) {
    bias_ = Mean(bias_estimates);
  } else {
    // No free SVs (all at bounds or beta == 0): fall back to the feasible
    // midpoint over all points, which reduces to mean(y) when beta == 0.
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) sum += -f[i];
    bias_ = sum / static_cast<double>(n);
  }

  // Keep only support vectors.
  std::vector<size_t> sv_rows;
  for (size_t i = 0; i < n; ++i) {
    if (std::abs(beta[i]) > 1e-12) sv_rows.push_back(i);
  }
  support_ = x.SelectRows(sv_rows);
  beta_.clear();
  beta_.reserve(sv_rows.size());
  for (size_t i : sv_rows) beta_.push_back(beta[i]);

  // Remember the resolved kernel (gamma fixed at fit time).
  options_.kernel = kernel;
  fitted_ = true;
  return Status::OK();
}

StatusOr<double> Svr::PredictOne(std::span<const double> features) const {
  if (!fitted_) return Status::FailedPrecondition("model not fitted");
  if (features.size() != num_features_) {
    return Status::InvalidArgument("feature count differs from training");
  }
  double sum = bias_;
  for (size_t s = 0; s < beta_.size(); ++s) {
    sum += beta_[s] * KernelFunction(options_.kernel, support_.Row(s),
                                     features);
  }
  return sum;
}

}  // namespace vup
