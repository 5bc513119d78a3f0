#include "ml/kernel.h"

#include <cmath>

#include "common/check.h"

namespace vup {

std::string_view KernelTypeToString(KernelType t) {
  switch (t) {
    case KernelType::kRbf:
      return "rbf";
    case KernelType::kLinear:
      return "linear";
    case KernelType::kPolynomial:
      return "poly";
  }
  return "?";
}

double KernelParams::EffectiveGamma(size_t num_features) const {
  if (gamma > 0.0) return gamma;
  VUP_CHECK(num_features > 0);
  return 1.0 / static_cast<double>(num_features);
}

double KernelFunction(const KernelParams& params, std::span<const double> a,
                      std::span<const double> b) {
  VUP_CHECK(a.size() == b.size());
  double g = params.EffectiveGamma(a.size());
  switch (params.type) {
    case KernelType::kRbf: {
      double sq = 0.0;
      for (size_t i = 0; i < a.size(); ++i) {
        double d = a[i] - b[i];
        sq += d * d;
      }
      return std::exp(-g * sq);
    }
    case KernelType::kLinear:
      return Dot(a, b);
    case KernelType::kPolynomial:
      return std::pow(g * Dot(a, b) + params.coef0, params.degree);
  }
  return 0.0;
}

Matrix KernelMatrix(const KernelParams& params, const Matrix& x) {
  const size_t n = x.rows();
  Matrix k(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      double v = KernelFunction(params, x.Row(i), x.Row(j));
      k(i, j) = v;
      k(j, i) = v;
    }
  }
  return k;
}

}  // namespace vup
