#include "ml/gradient_boosting.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/random.h"
#include "ml/metrics.h"

namespace vup {
namespace {

void MakeFriedmanish(Matrix* x, std::vector<double>* y, size_t n,
                     uint64_t seed) {
  Rng rng(seed);
  *x = Matrix(n, 3);
  y->resize(n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < 3; ++c) (*x)(r, c) = rng.Uniform();
    (*y)[r] = 5.0 * (*x)(r, 0) + std::sin(6.0 * (*x)(r, 1)) +
              0.05 * rng.Normal();
  }
}

TEST(GbTest, TrainingLossDecreasesMonotonically) {
  Matrix x;
  std::vector<double> y;
  MakeFriedmanish(&x, &y, 150, 1);
  GradientBoosting gb(GradientBoosting::Options{
      .learning_rate = 0.1, .n_estimators = 60, .max_depth = 2});
  ASSERT_TRUE(gb.Fit(x, y).ok());
  const std::vector<double>& losses = gb.training_loss_per_stage();
  ASSERT_EQ(losses.size(), 60u);
  for (size_t i = 1; i < losses.size(); ++i) {
    EXPECT_LE(losses[i], losses[i - 1] + 1e-9) << "stage " << i;
  }
}

TEST(GbTest, BeatsConstantPredictor) {
  Matrix x;
  std::vector<double> y;
  MakeFriedmanish(&x, &y, 200, 2);
  GradientBoosting gb(GradientBoosting::Options{
      .learning_rate = 0.1, .n_estimators = 100, .max_depth = 2,
      .loss = GbLoss::kLeastSquares});
  ASSERT_TRUE(gb.Fit(x, y).ok());
  std::vector<double> pred = gb.Predict(x).value();
  double mean = 0;
  for (double v : y) mean += v;
  mean /= static_cast<double>(y.size());
  std::vector<double> const_pred(y.size(), mean);
  EXPECT_LT(MeanAbsoluteError(pred, y),
            0.3 * MeanAbsoluteError(const_pred, y));
}

TEST(GbTest, LadInitIsMedianLsInitIsMean) {
  Matrix x = Matrix::FromRows({{1}, {2}, {3}});
  std::vector<double> y = {1, 2, 30};
  GradientBoosting lad(GradientBoosting::Options{
      .n_estimators = 1, .loss = GbLoss::kLeastAbsoluteDeviation});
  ASSERT_TRUE(lad.Fit(x, y).ok());
  EXPECT_DOUBLE_EQ(lad.initial_prediction(), 2.0);
  GradientBoosting ls(GradientBoosting::Options{
      .n_estimators = 1, .loss = GbLoss::kLeastSquares});
  ASSERT_TRUE(ls.Fit(x, y).ok());
  EXPECT_DOUBLE_EQ(ls.initial_prediction(), 11.0);
}

TEST(GbTest, LadRobustToOutliers) {
  // One extreme outlier: LAD predictions stay near the bulk.
  Matrix x(21, 1);
  std::vector<double> y(21);
  for (size_t i = 0; i < 21; ++i) {
    x(i, 0) = static_cast<double>(i % 7);
    y[i] = x(i, 0);
  }
  y[10] = 1000.0;  // Corruption.
  GradientBoosting lad(GradientBoosting::Options{
      .learning_rate = 0.2, .n_estimators = 80, .max_depth = 2,
      .loss = GbLoss::kLeastAbsoluteDeviation});
  ASSERT_TRUE(lad.Fit(x, y).ok());
  // Predictions at uncorrupted inputs remain close to the clean line.
  double p = lad.PredictOne(std::vector<double>{2.0}).value();
  EXPECT_NEAR(p, 2.0, 1.5);
}

TEST(GbTest, PaperConfigurationStumps) {
  // lr=0.1, 100 estimators, depth 1, LAD: the paper's settings must fit an
  // additive step function well.
  Matrix x(80, 1);
  std::vector<double> y(80);
  for (size_t i = 0; i < 80; ++i) {
    x(i, 0) = static_cast<double>(i);
    y[i] = (i < 40 ? 2.0 : 6.0);
  }
  GradientBoosting gb;  // Defaults == paper settings.
  ASSERT_TRUE(gb.Fit(x, y).ok());
  EXPECT_EQ(gb.num_stages(), 100u);
  EXPECT_NEAR(gb.PredictOne(std::vector<double>{10}).value(), 2.0, 0.3);
  EXPECT_NEAR(gb.PredictOne(std::vector<double>{70}).value(), 6.0, 0.3);
}

TEST(GbTest, SubsampleStillLearns) {
  Matrix x;
  std::vector<double> y;
  MakeFriedmanish(&x, &y, 300, 5);
  GradientBoosting gb(GradientBoosting::Options{
      .learning_rate = 0.1, .n_estimators = 80, .max_depth = 2,
      .subsample = 0.5, .seed = 42});
  ASSERT_TRUE(gb.Fit(x, y).ok());
  std::vector<double> pred = gb.Predict(x).value();
  EXPECT_LT(MeanAbsoluteError(pred, y), 0.6);
}

TEST(GbTest, DeterministicForSeed) {
  Matrix x;
  std::vector<double> y;
  MakeFriedmanish(&x, &y, 100, 9);
  GradientBoosting::Options opts;
  opts.subsample = 0.7;
  opts.seed = 11;
  GradientBoosting a(opts), b(opts);
  ASSERT_TRUE(a.Fit(x, y).ok());
  ASSERT_TRUE(b.Fit(x, y).ok());
  std::vector<double> probe = {0.5, 0.5, 0.5};
  EXPECT_DOUBLE_EQ(a.PredictOne(probe).value(), b.PredictOne(probe).value());
}

TEST(GbTest, RefitMatchesFreshFitBitwise) {
  // A Fit keeps nothing from the previous one: refitting a used model
  // reproduces a fresh model exactly.
  Matrix x, other_x;
  std::vector<double> y, other_y;
  MakeFriedmanish(&x, &y, 50, 53);
  MakeFriedmanish(&other_x, &other_y, 40, 54);
  GradientBoosting::Options opts;
  opts.n_estimators = 15;
  GradientBoosting fresh(opts), reused(opts);
  ASSERT_TRUE(fresh.Fit(x, y).ok());
  ASSERT_TRUE(reused.Fit(other_x, other_y).ok());
  ASSERT_TRUE(reused.Fit(x, y).ok());
  EXPECT_EQ(reused.num_stages(), 15u);
  EXPECT_EQ(reused.initial_prediction(), fresh.initial_prediction());
  for (size_t r = 0; r < x.rows(); ++r) {
    EXPECT_EQ(reused.PredictOne(x.Row(r)).value(),
              fresh.PredictOne(x.Row(r)).value())
        << "row " << r;
  }
}

TEST(GbTest, ErrorHandling) {
  GradientBoosting gb;
  EXPECT_TRUE(gb.Fit(Matrix(), {}).IsInvalidArgument());
  Matrix x(2, 1);
  EXPECT_TRUE(gb.Fit(x, std::vector<double>{1}).IsInvalidArgument());
  EXPECT_TRUE(GradientBoosting(GradientBoosting::Options{.learning_rate = 0})
                  .Fit(x, std::vector<double>{1, 2})
                  .IsInvalidArgument());
  EXPECT_TRUE(GradientBoosting(GradientBoosting::Options{.subsample = 1.5})
                  .Fit(x, std::vector<double>{1, 2})
                  .IsInvalidArgument());
  EXPECT_TRUE(
      gb.PredictOne(std::vector<double>{1}).status().IsFailedPrecondition());
}

TEST(GbTest, CloneIsUnfitted) {
  GradientBoosting gb;
  auto clone = gb.Clone();
  EXPECT_FALSE(clone->fitted());
  EXPECT_EQ(clone->name(), "GB");
}

}  // namespace
}  // namespace vup
