#include "ml/svr.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/random.h"
#include "ml/metrics.h"

namespace vup {
namespace {

TEST(KernelTest, RbfProperties) {
  KernelParams params;
  params.type = KernelType::kRbf;
  params.gamma = 0.5;
  std::vector<double> a = {1, 2};
  std::vector<double> b = {1, 2};
  EXPECT_DOUBLE_EQ(KernelFunction(params, a, b), 1.0);  // Self-similarity.
  std::vector<double> c = {3, 4};
  double k_ac = KernelFunction(params, a, c);
  EXPECT_GT(k_ac, 0.0);
  EXPECT_LT(k_ac, 1.0);
  EXPECT_DOUBLE_EQ(k_ac, KernelFunction(params, c, a));  // Symmetry.
  EXPECT_NEAR(k_ac, std::exp(-0.5 * 8.0), 1e-12);
}

TEST(KernelTest, LinearAndPolynomial) {
  KernelParams lin;
  lin.type = KernelType::kLinear;
  std::vector<double> a = {1, 2};
  std::vector<double> b = {3, 4};
  EXPECT_DOUBLE_EQ(KernelFunction(lin, a, b), 11.0);

  KernelParams poly;
  poly.type = KernelType::kPolynomial;
  poly.gamma = 1.0;
  poly.coef0 = 1.0;
  poly.degree = 2;
  EXPECT_DOUBLE_EQ(KernelFunction(poly, a, b), 144.0);
}

TEST(KernelTest, AutoGammaIsInverseDimension) {
  KernelParams params;
  params.gamma = -1.0;
  EXPECT_DOUBLE_EQ(params.EffectiveGamma(20), 0.05);
  params.gamma = 2.0;
  EXPECT_DOUBLE_EQ(params.EffectiveGamma(20), 2.0);
}

TEST(KernelTest, MatrixIsSymmetricWithUnitDiagonal) {
  Rng rng(3);
  Matrix x(10, 3);
  for (size_t r = 0; r < 10; ++r) {
    for (size_t c = 0; c < 3; ++c) x(r, c) = rng.Normal();
  }
  KernelParams params;  // RBF default.
  Matrix k = KernelMatrix(params, x);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(k(i, i), 1.0);
    for (size_t j = 0; j < 10; ++j) {
      EXPECT_DOUBLE_EQ(k(i, j), k(j, i));
      EXPECT_GE(k(i, j), 0.0);
      EXPECT_LE(k(i, j), 1.0);
    }
  }
}

TEST(KernelTest, MatrixMatchesKernelFunctionBitwise) {
  // KernelMatrix fills k(j, i) from k(i, j); that is exact only because
  // every kernel is bitwise-symmetric in floating point.
  Rng rng(303);
  Matrix x(24, 4);
  for (size_t r = 0; r < 24; ++r) {
    for (size_t c = 0; c < 4; ++c) x(r, c) = rng.Normal();
  }
  for (KernelType type :
       {KernelType::kRbf, KernelType::kLinear, KernelType::kPolynomial}) {
    KernelParams params;
    params.type = type;
    params.coef0 = 1.0;
    params.degree = 2;
    Matrix k = KernelMatrix(params, x);
    for (size_t i = 0; i < 24; ++i) {
      for (size_t j = 0; j < 24; ++j) {
        ASSERT_EQ(k(i, j), KernelFunction(params, x.Row(i), x.Row(j)))
            << KernelTypeToString(type) << " (" << i << ", " << j << ")";
      }
    }
  }
}

TEST(SvrTest, FitsConstantFunction) {
  Matrix x = Matrix::FromRows({{0}, {1}, {2}, {3}});
  std::vector<double> y = {5, 5, 5, 5};
  Svr svr;
  ASSERT_TRUE(svr.Fit(x, y).ok());
  EXPECT_NEAR(svr.PredictOne(std::vector<double>{1.5}).value(), 5.0, 0.2);
}

TEST(SvrTest, FitsLinearFunctionWithinEpsilon) {
  Matrix x(40, 1);
  std::vector<double> y(40);
  for (size_t i = 0; i < 40; ++i) {
    x(i, 0) = static_cast<double>(i) / 10.0 - 2.0;
    y[i] = 2.0 * x(i, 0) + 1.0;
  }
  Svr::Options opts;
  opts.kernel.type = KernelType::kLinear;
  opts.c = 10.0;
  opts.epsilon = 0.1;
  Svr svr(opts);
  ASSERT_TRUE(svr.Fit(x, y).ok());
  for (double probe : {-1.5, 0.0, 1.5}) {
    EXPECT_NEAR(svr.PredictOne(std::vector<double>{probe}).value(),
                2.0 * probe + 1.0, 0.25);
  }
}

TEST(SvrTest, FitsNonlinearFunctionWithRbf) {
  Matrix x(60, 1);
  std::vector<double> y(60);
  for (size_t i = 0; i < 60; ++i) {
    x(i, 0) = static_cast<double>(i) / 10.0 - 3.0;
    y[i] = std::sin(x(i, 0));
  }
  Svr::Options opts;
  opts.kernel.gamma = 1.0;
  opts.c = 10.0;
  opts.epsilon = 0.05;
  Svr svr(opts);
  ASSERT_TRUE(svr.Fit(x, y).ok());
  std::vector<double> pred;
  std::vector<double> actual;
  for (double probe = -2.5; probe <= 2.5; probe += 0.25) {
    pred.push_back(svr.PredictOne(std::vector<double>{probe}).value());
    actual.push_back(std::sin(probe));
  }
  EXPECT_LT(MeanAbsoluteError(pred, actual), 0.12);
  EXPECT_GT(svr.num_support_vectors(), 0u);
}

TEST(SvrTest, EpsilonInsensitiveTubeIgnoresSmallNoise) {
  // All targets within the epsilon tube around a constant -> few/no SVs
  // needed and flat prediction.
  Matrix x = Matrix::FromRows({{0}, {1}, {2}, {3}, {4}});
  std::vector<double> y = {1.0, 1.05, 0.95, 1.02, 0.98};
  Svr::Options opts;
  opts.epsilon = 0.2;
  Svr svr(opts);
  ASSERT_TRUE(svr.Fit(x, y).ok());
  EXPECT_NEAR(svr.PredictOne(std::vector<double>{2.0}).value(), 1.0, 0.21);
  EXPECT_LE(svr.num_support_vectors(), 2u);
}

TEST(SvrTest, DualVariablesRespectBoxConstraint) {
  // Indirectly: with tiny C the model barely moves from the bias.
  Matrix x(20, 1);
  std::vector<double> y(20);
  for (size_t i = 0; i < 20; ++i) {
    x(i, 0) = static_cast<double>(i);
    y[i] = (i % 2 == 0) ? 10.0 : -10.0;
  }
  Svr::Options opts;
  opts.c = 1e-4;
  Svr svr(opts);
  ASSERT_TRUE(svr.Fit(x, y).ok());
  double p = svr.PredictOne(std::vector<double>{5.0}).value();
  EXPECT_NEAR(p, 0.0, 1.0);  // Can't chase the +-10 targets with tiny C.
}

TEST(SvrTest, ErrorHandling) {
  Svr svr;
  EXPECT_TRUE(svr.Fit(Matrix(), {}).IsInvalidArgument());
  Matrix x(2, 1);
  EXPECT_TRUE(svr.Fit(x, std::vector<double>{1}).IsInvalidArgument());
  Svr::Options bad_c;
  bad_c.c = -1;
  EXPECT_TRUE(
      Svr(bad_c).Fit(x, std::vector<double>{1, 2}).IsInvalidArgument());
  Svr::Options bad_eps;
  bad_eps.epsilon = -0.1;
  EXPECT_TRUE(
      Svr(bad_eps).Fit(x, std::vector<double>{1, 2}).IsInvalidArgument());
  EXPECT_TRUE(
      svr.PredictOne(std::vector<double>{1}).status().IsFailedPrecondition());
  ASSERT_TRUE(svr.Fit(x, std::vector<double>{1, 2}).ok());
  EXPECT_TRUE(svr.PredictOne(std::vector<double>{1, 2})
                  .status()
                  .IsInvalidArgument());
}

TEST(SvrTest, CloneIsUnfitted) {
  Svr svr;
  auto clone = svr.Clone();
  EXPECT_FALSE(clone->fitted());
  EXPECT_EQ(clone->name(), "SVR");
}

TEST(SvrTest, DeterministicFit) {
  Rng rng(11);
  Matrix x(30, 2);
  std::vector<double> y(30);
  for (size_t r = 0; r < 30; ++r) {
    x(r, 0) = rng.Normal();
    x(r, 1) = rng.Normal();
    y[r] = x(r, 0) - x(r, 1);
  }
  Svr a, b;
  ASSERT_TRUE(a.Fit(x, y).ok());
  ASSERT_TRUE(b.Fit(x, y).ok());
  std::vector<double> probe = {0.3, -0.7};
  EXPECT_DOUBLE_EQ(a.PredictOne(probe).value(), b.PredictOne(probe).value());
}

}  // namespace
}  // namespace vup
