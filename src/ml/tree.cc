#include "ml/tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "stats/descriptive.h"

namespace vup {

RegressionTree RegressionTree::FromState(Options options,
                                         const std::vector<NodeState>& nodes,
                                         size_t num_features) {
  RegressionTree tree(options);
  tree.nodes_.reserve(nodes.size());
  for (const NodeState& n : nodes) {
    Node node;
    node.feature = n.feature;
    node.threshold = n.threshold;
    node.left = n.left;
    node.right = n.right;
    node.value = n.value;
    tree.nodes_.push_back(node);
  }
  tree.num_features_ = num_features;
  tree.fitted_ = !tree.nodes_.empty();
  return tree;
}

std::vector<RegressionTree::NodeState> RegressionTree::GetState() const {
  std::vector<NodeState> out;
  out.reserve(nodes_.size());
  for (const Node& n : nodes_) {
    out.push_back({n.feature, n.threshold, n.left, n.right, n.value});
  }
  return out;
}

Status RegressionTree::Fit(const Matrix& x, std::span<const double> y) {
  fitted_ = false;
  nodes_.clear();
  if (x.rows() == 0 || x.cols() == 0) {
    return Status::InvalidArgument("empty design matrix");
  }
  if (y.size() != x.rows()) {
    return Status::InvalidArgument("target size does not match design matrix");
  }
  if (options_.max_depth < 0) {
    return Status::InvalidArgument("max_depth must be >= 0");
  }
  num_features_ = x.cols();
  std::vector<size_t> indices(x.rows());
  std::iota(indices.begin(), indices.end(), 0);
  Grow(x, y, indices, 0);
  fitted_ = true;
  return Status::OK();
}

int RegressionTree::Grow(const Matrix& x, std::span<const double> y,
                         std::vector<size_t>& indices, int depth) {
  VUP_CHECK(!indices.empty());
  const size_t n = indices.size();

  double sum = 0.0;
  for (size_t i : indices) sum += y[i];
  double mean = sum / static_cast<double>(n);

  int node_index = static_cast<int>(nodes_.size());
  nodes_.push_back(Node{});
  nodes_[static_cast<size_t>(node_index)].value = mean;

  if (depth >= options_.max_depth || n < options_.min_samples_split) {
    return node_index;
  }

  // Find the best (feature, threshold) split by SSE reduction. With the
  // node SSE fixed, minimizing child SSE == maximizing
  // sum_L^2 / n_L + sum_R^2 / n_R.
  double best_gain = -std::numeric_limits<double>::infinity();
  int best_feature = -1;
  double best_threshold = 0.0;

  std::vector<size_t> sorted = indices;
  for (size_t f = 0; f < x.cols(); ++f) {
    std::sort(sorted.begin(), sorted.end(), [&](size_t a, size_t b) {
      return x(a, f) < x(b, f);
    });
    double left_sum = 0.0;
    for (size_t pos = 0; pos + 1 < n; ++pos) {
      left_sum += y[sorted[pos]];
      // Can't split between equal feature values.
      if (x(sorted[pos], f) == x(sorted[pos + 1], f)) continue;
      size_t n_left = pos + 1;
      size_t n_right = n - n_left;
      if (n_left < options_.min_samples_leaf ||
          n_right < options_.min_samples_leaf) {
        continue;
      }
      double right_sum = sum - left_sum;
      double gain = left_sum * left_sum / static_cast<double>(n_left) +
                    right_sum * right_sum / static_cast<double>(n_right);
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(f);
        // The midpoint rounds up to the right value for adjacent doubles
        // and overflows to inf near DBL_MAX; either way `<= threshold`
        // would send every row left. The left value always separates.
        const double lo = x(sorted[pos], f);
        const double hi = x(sorted[pos + 1], f);
        const double mid = 0.5 * (lo + hi);
        best_threshold = mid < hi ? mid : lo;
      }
    }
  }

  // Split only on a strict SSE reduction: child score must beat the
  // parent's sum^2/n. Otherwise stay a leaf (all rows identical, or the
  // leaf-size constraints forbid every split point).
  double parent_score = sum * sum / static_cast<double>(n);
  if (best_feature < 0 || best_gain <= parent_score + 1e-12) {
    return node_index;
  }

  std::vector<size_t> left_idx, right_idx;
  left_idx.reserve(n);
  right_idx.reserve(n);
  for (size_t i : indices) {
    if (x(i, static_cast<size_t>(best_feature)) <= best_threshold) {
      left_idx.push_back(i);
    } else {
      right_idx.push_back(i);
    }
  }
  VUP_CHECK(!left_idx.empty() && !right_idx.empty());

  int left = Grow(x, y, left_idx, depth + 1);
  int right = Grow(x, y, right_idx, depth + 1);
  Node& node = nodes_[static_cast<size_t>(node_index)];
  node.feature = best_feature;
  node.threshold = best_threshold;
  node.left = left;
  node.right = right;
  return node_index;
}

int RegressionTree::LeafIndex(std::span<const double> features) const {
  int idx = 0;
  while (nodes_[static_cast<size_t>(idx)].feature >= 0) {
    const Node& node = nodes_[static_cast<size_t>(idx)];
    idx = features[static_cast<size_t>(node.feature)] <= node.threshold
              ? node.left
              : node.right;
  }
  return idx;
}

StatusOr<double> RegressionTree::PredictOne(
    std::span<const double> features) const {
  if (!fitted_) return Status::FailedPrecondition("model not fitted");
  if (features.size() != num_features_) {
    return Status::InvalidArgument("feature count differs from training");
  }
  return nodes_[static_cast<size_t>(LeafIndex(features))].value;
}

Status RegressionTree::RelabelLeaves(const Matrix& x,
                                     std::span<const double> values,
                                     bool use_median) {
  if (!fitted_) return Status::FailedPrecondition("model not fitted");
  if (x.rows() != values.size() || x.cols() != num_features_) {
    return Status::InvalidArgument("relabel data shape mismatch");
  }
  std::vector<std::vector<double>> per_leaf(nodes_.size());
  for (size_t r = 0; r < x.rows(); ++r) {
    per_leaf[static_cast<size_t>(LeafIndex(x.Row(r)))].push_back(values[r]);
  }
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].feature >= 0 || per_leaf[i].empty()) continue;
    nodes_[i].value =
        use_median ? Median(per_leaf[i]) : Mean(per_leaf[i]);
  }
  return Status::OK();
}

size_t RegressionTree::num_leaves() const {
  size_t count = 0;
  for (const Node& n : nodes_) {
    if (n.feature < 0) ++count;
  }
  return count;
}

int RegressionTree::depth() const {
  if (nodes_.empty()) return 0;
  // Iterative depth computation over the node array.
  std::vector<std::pair<int, int>> stack = {{0, 0}};
  int max_depth = 0;
  while (!stack.empty()) {
    auto [idx, d] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, d);
    const Node& n = nodes_[static_cast<size_t>(idx)];
    if (n.feature >= 0) {
      stack.push_back({n.left, d + 1});
      stack.push_back({n.right, d + 1});
    }
  }
  return max_depth;
}

}  // namespace vup
