#ifndef VUPRED_ML_SVR_H_
#define VUPRED_ML_SVR_H_

#include <memory>
#include <vector>

#include "ml/kernel.h"
#include "ml/model.h"

namespace vup {

/// Epsilon-insensitive Support Vector Regression.
///
/// Solves the standard dual in the collapsed variables beta_i = alpha_i -
/// alpha_i^* in [-C, C]:
///
///   min_beta  1/2 beta^T K beta - y^T beta + epsilon * ||beta||_1
///   s.t.      sum_i beta_i = 0
///
/// with an SMO-style pairwise coordinate descent: each step moves a pair
/// (beta_i += delta, beta_j -= delta), keeping the equality constraint
/// satisfied; the optimal delta of the piecewise-quadratic one-dimensional
/// subproblem is found analytically over its sign regions.
///
/// The paper's configuration is kernel=rbf, C=10, epsilon=0.1. For gamma,
/// see KernelParams: gamma <= 0 resolves to 1/num_features at fit time.
class Svr : public Regressor {
 public:
  struct Options {
    double c = 10.0;
    double epsilon = 0.1;
    KernelParams kernel;
    /// Stop when the best pair improvement in a full sweep is below tol.
    double tol = 1e-5;
    size_t max_sweeps = 300;
  };

  Svr() = default;
  explicit Svr(Options options) : options_(options) {}

  /// Reconstructs a fitted model from serialized state (ml/serialize.h).
  /// `options.kernel.gamma` must be the resolved (positive) value.
  static Svr FromState(Options options, Matrix support_vectors,
                       std::vector<double> beta, double bias,
                       size_t num_features) {
    Svr m(options);
    m.support_ = std::move(support_vectors);
    m.beta_ = std::move(beta);
    m.bias_ = bias;
    m.num_features_ = num_features;
    m.fitted_ = true;
    return m;
  }

  const Options& options() const { return options_; }
  const Matrix& support_vectors() const { return support_; }
  const std::vector<double>& dual_coefficients() const { return beta_; }
  size_t num_features() const { return num_features_; }

  Status Fit(const Matrix& x, std::span<const double> y) override;
  StatusOr<double> PredictOne(std::span<const double> features) const override;
  std::string name() const override { return "SVR"; }
  std::unique_ptr<Regressor> Clone() const override {
    return std::make_unique<Svr>(options_);
  }
  bool fitted() const override { return fitted_; }
  size_t ResidentBytes() const override {
    return sizeof(*this) +
           (support_.rows() * support_.cols() + beta_.capacity()) *
               sizeof(double);
  }

  /// Number of support vectors (beta != 0) after fitting.
  size_t num_support_vectors() const { return support_.rows(); }
  double bias() const { return bias_; }

 private:
  Options options_;
  bool fitted_ = false;
  size_t num_features_ = 0;
  Matrix support_;                 // Support vectors, one per row.
  std::vector<double> beta_;       // Dual coefficient per support vector.
  double bias_ = 0.0;
};

}  // namespace vup

#endif  // VUPRED_ML_SVR_H_
