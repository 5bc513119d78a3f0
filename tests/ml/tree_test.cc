#include "ml/tree.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace vup {
namespace {

TEST(TreeTest, StumpFindsObviousSplit) {
  // y = 0 for x<5, y = 10 for x>=5.
  Matrix x(10, 1);
  std::vector<double> y(10);
  for (size_t i = 0; i < 10; ++i) {
    x(i, 0) = static_cast<double>(i);
    y[i] = i < 5 ? 0.0 : 10.0;
  }
  RegressionTree tree(RegressionTree::Options{.max_depth = 1});
  ASSERT_TRUE(tree.Fit(x, y).ok());
  EXPECT_EQ(tree.num_leaves(), 2u);
  EXPECT_EQ(tree.depth(), 1);
  EXPECT_DOUBLE_EQ(tree.PredictOne(std::vector<double>{2}).value(), 0.0);
  EXPECT_DOUBLE_EQ(tree.PredictOne(std::vector<double>{7}).value(), 10.0);
}

TEST(TreeTest, DepthZeroPredictsMean) {
  Matrix x = Matrix::FromRows({{1}, {2}, {3}});
  std::vector<double> y = {1, 2, 6};
  RegressionTree tree(RegressionTree::Options{.max_depth = 0});
  ASSERT_TRUE(tree.Fit(x, y).ok());
  EXPECT_EQ(tree.num_leaves(), 1u);
  EXPECT_DOUBLE_EQ(tree.PredictOne(std::vector<double>{5}).value(), 3.0);
}

TEST(TreeTest, PicksMostInformativeFeature) {
  // Feature 1 is pure noise; feature 0 determines y.
  Rng rng(3);
  Matrix x(100, 2);
  std::vector<double> y(100);
  for (size_t i = 0; i < 100; ++i) {
    x(i, 0) = rng.Uniform();
    x(i, 1) = rng.Uniform();
    y[i] = x(i, 0) > 0.5 ? 4.0 : -4.0;
  }
  RegressionTree tree(RegressionTree::Options{.max_depth = 1});
  ASSERT_TRUE(tree.Fit(x, y).ok());
  // Verify behaviorally: prediction depends on feature 0, not feature 1.
  EXPECT_GT(tree.PredictOne(std::vector<double>{0.9, 0.1}).value(), 0.0);
  EXPECT_LT(tree.PredictOne(std::vector<double>{0.1, 0.9}).value(), 0.0);
}

TEST(TreeTest, DeepTreeFitsPiecewiseFunction) {
  Matrix x(32, 1);
  std::vector<double> y(32);
  for (size_t i = 0; i < 32; ++i) {
    x(i, 0) = static_cast<double>(i);
    y[i] = static_cast<double>(i / 8);  // 4 steps.
  }
  RegressionTree tree(RegressionTree::Options{.max_depth = 3});
  ASSERT_TRUE(tree.Fit(x, y).ok());
  for (size_t i = 0; i < 32; ++i) {
    EXPECT_DOUBLE_EQ(tree.PredictOne(x.Row(i)).value(), y[i]);
  }
}

TEST(TreeTest, MinSamplesLeafRespected) {
  Matrix x(10, 1);
  std::vector<double> y(10);
  for (size_t i = 0; i < 10; ++i) {
    x(i, 0) = static_cast<double>(i);
    y[i] = i == 9 ? 100.0 : 0.0;  // Lone outlier invites a 9/1 split.
  }
  RegressionTree tree(RegressionTree::Options{.max_depth = 4,
                                              .min_samples_leaf = 3});
  ASSERT_TRUE(tree.Fit(x, y).ok());
  // Any split must leave >= 3 samples per side; the lone-outlier split is
  // forbidden, so prediction at x=9 cannot be exactly 100.
  EXPECT_LT(tree.PredictOne(std::vector<double>{9}).value(), 100.0);
}

TEST(TreeTest, ConstantTargetSingleLeaf) {
  Matrix x = Matrix::FromRows({{1}, {2}, {3}, {4}});
  std::vector<double> y = {5, 5, 5, 5};
  RegressionTree tree(RegressionTree::Options{.max_depth = 5});
  ASSERT_TRUE(tree.Fit(x, y).ok());
  EXPECT_EQ(tree.num_leaves(), 1u);
}

TEST(TreeTest, IdenticalFeatureRowsCannotSplit) {
  Matrix x = Matrix::FromRows({{1, 2}, {1, 2}, {1, 2}});
  std::vector<double> y = {1, 2, 3};
  RegressionTree tree(RegressionTree::Options{.max_depth = 3});
  ASSERT_TRUE(tree.Fit(x, y).ok());
  EXPECT_EQ(tree.num_leaves(), 1u);
  EXPECT_DOUBLE_EQ(tree.PredictOne(std::vector<double>{1, 2}).value(), 2.0);
}

/// Fits a stump on two rows with feature values a < b and expects a clean
/// split: each row lands in its own leaf.
void ExpectTwoRowSplit(double a, double b) {
  Matrix x = Matrix::FromRows({{a}, {b}});
  std::vector<double> y = {0.0, 10.0};
  RegressionTree tree(RegressionTree::Options{.max_depth = 1});
  ASSERT_TRUE(tree.Fit(x, y).ok());
  EXPECT_EQ(tree.num_leaves(), 2u);
  EXPECT_EQ(tree.PredictOne(std::vector<double>{a}).value(), 0.0);
  EXPECT_EQ(tree.PredictOne(std::vector<double>{b}).value(), 10.0);
}

TEST(TreeTest, SplitsAdjacentDoubles) {
  // 0.5 * (a + b) rounds up to b, so a midpoint threshold separates
  // nothing.
  ExpectTwoRowSplit(1.0 + 0x1p-52, 1.0 + 0x1p-51);
}

TEST(TreeTest, SplitsValuesWhoseSumOverflows) {
  // a + b overflows to inf, and so does the midpoint.
  ExpectTwoRowSplit(1e308, 1.5e308);
}

TEST(TreeTest, RelabelLeavesWithMedian) {
  Matrix x(6, 1);
  std::vector<double> grad(6);
  for (size_t i = 0; i < 6; ++i) {
    x(i, 0) = static_cast<double>(i);
    grad[i] = i < 3 ? -1.0 : 1.0;  // Signs, like LAD boosting.
  }
  RegressionTree tree(RegressionTree::Options{.max_depth = 1});
  ASSERT_TRUE(tree.Fit(x, grad).ok());
  // Relabel with raw residuals; the left leaf must take their median.
  std::vector<double> residuals = {-5, -7, -100, 2, 3, 50};
  ASSERT_TRUE(tree.RelabelLeaves(x, residuals, /*use_median=*/true).ok());
  EXPECT_DOUBLE_EQ(tree.PredictOne(std::vector<double>{0}).value(), -7.0);
  EXPECT_DOUBLE_EQ(tree.PredictOne(std::vector<double>{5}).value(), 3.0);
}

TEST(TreeTest, RelabelLeavesWithMean) {
  Matrix x(4, 1);
  std::vector<double> y = {0, 0, 1, 1};
  for (size_t i = 0; i < 4; ++i) x(i, 0) = static_cast<double>(i);
  RegressionTree tree(RegressionTree::Options{.max_depth = 1});
  ASSERT_TRUE(tree.Fit(x, y).ok());
  std::vector<double> values = {2, 4, 10, 20};
  ASSERT_TRUE(tree.RelabelLeaves(x, values, /*use_median=*/false).ok());
  EXPECT_DOUBLE_EQ(tree.PredictOne(std::vector<double>{0}).value(), 3.0);
  EXPECT_DOUBLE_EQ(tree.PredictOne(std::vector<double>{3}).value(), 15.0);
}

TEST(TreeTest, ErrorHandling) {
  RegressionTree tree;
  EXPECT_TRUE(tree.Fit(Matrix(), {}).IsInvalidArgument());
  Matrix x(2, 1);
  EXPECT_TRUE(tree.Fit(x, std::vector<double>{1}).IsInvalidArgument());
  EXPECT_TRUE(
      tree.PredictOne(std::vector<double>{1}).status().IsFailedPrecondition());
  EXPECT_TRUE(tree.RelabelLeaves(x, std::vector<double>{1, 2}, true)
                  .IsFailedPrecondition());
  ASSERT_TRUE(tree.Fit(x, std::vector<double>{1, 2}).ok());
  // Shape mismatches: wrong value count, wrong feature count.
  EXPECT_TRUE(tree.RelabelLeaves(x, std::vector<double>{1}, true)
                  .IsInvalidArgument());
  EXPECT_TRUE(tree.RelabelLeaves(Matrix(2, 3), std::vector<double>{1, 2},
                                 true)
                  .IsInvalidArgument());
}

TEST(TreeTest, CloneIsUnfitted) {
  RegressionTree tree(RegressionTree::Options{.max_depth = 2});
  auto clone = tree.Clone();
  EXPECT_FALSE(clone->fitted());
  EXPECT_EQ(clone->name(), "Tree");
}

}  // namespace
}  // namespace vup
