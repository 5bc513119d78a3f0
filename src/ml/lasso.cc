#include "ml/lasso.h"

#include <algorithm>
#include <cmath>

#include "stats/descriptive.h"

namespace vup {

namespace {

double SoftThreshold(double v, double threshold) {
  if (v > threshold) return v - threshold;
  if (v < -threshold) return v + threshold;
  return 0.0;
}

}  // namespace

Status Lasso::Fit(const Matrix& x, std::span<const double> y) {
  fitted_ = false;
  if (x.rows() == 0 || x.cols() == 0) {
    return Status::InvalidArgument("empty design matrix");
  }
  if (y.size() != x.rows()) {
    return Status::InvalidArgument("target size does not match design matrix");
  }
  if (options_.alpha < 0.0) {
    return Status::InvalidArgument("alpha must be non-negative");
  }

  const size_t n = x.rows();
  const size_t d = x.cols();

  // Center (intercept handled by centering, the standard trick).
  std::vector<double> x_mean(d, 0.0);
  double y_mean = 0.0;
  if (options_.fit_intercept) {
    for (size_t c = 0; c < d; ++c) {
      double sum = 0.0;
      for (size_t r = 0; r < n; ++r) sum += x(r, c);
      x_mean[c] = sum / static_cast<double>(n);
    }
    y_mean = Mean(y);
  }

  // Work on centered copies.
  Matrix xc(n, d);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < d; ++c) xc(r, c) = x(r, c) - x_mean[c];
  }
  std::vector<double> yc(n);
  for (size_t r = 0; r < n; ++r) yc[r] = y[r] - y_mean;

  // Per-column squared norms; dead (constant) columns stay at zero weight.
  std::vector<double> col_sq(d, 0.0);
  for (size_t c = 0; c < d; ++c) {
    for (size_t r = 0; r < n; ++r) col_sq[c] += xc(r, c) * xc(r, c);
  }

  coef_.assign(d, 0.0);
  std::vector<double> residual = yc;  // r = yc - Xc w, with w = 0.
  const double n_alpha = options_.alpha * static_cast<double>(n);

  iterations_run_ = 0;
  for (size_t sweep = 0; sweep < options_.max_iter; ++sweep) {
    ++iterations_run_;
    double max_delta = 0.0;
    for (size_t c = 0; c < d; ++c) {
      if (col_sq[c] == 0.0) continue;
      double w_old = coef_[c];
      // rho = x_c . (residual + x_c * w_old)
      double rho = 0.0;
      for (size_t r = 0; r < n; ++r) {
        rho += xc(r, c) * residual[r];
      }
      rho += col_sq[c] * w_old;
      double w_new = SoftThreshold(rho, n_alpha) / col_sq[c];
      if (w_new != w_old) {
        double delta = w_new - w_old;
        for (size_t r = 0; r < n; ++r) residual[r] -= delta * xc(r, c);
        coef_[c] = w_new;
        max_delta = std::max(max_delta, std::abs(delta));
      }
    }
    if (max_delta < options_.tol) break;
  }

  intercept_ = y_mean;
  if (options_.fit_intercept) {
    for (size_t c = 0; c < d; ++c) intercept_ -= coef_[c] * x_mean[c];
  }
  fitted_ = true;
  return Status::OK();
}

StatusOr<double> Lasso::PredictOne(std::span<const double> features) const {
  if (!fitted_) return Status::FailedPrecondition("model not fitted");
  if (features.size() != coef_.size()) {
    return Status::InvalidArgument("feature count differs from training");
  }
  return intercept_ + Dot(features, coef_);
}

}  // namespace vup
