// K-means++ clustering with the model-selection tooling the paper uses:
// elbow on the sum of squared errors, explained variance, and silhouette
// scores (§6.3).
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace uncharted::exec {
class Pool;
}  // namespace uncharted::exec

namespace uncharted::analysis {

/// Row-major data matrix: points[i] is one observation.
using Matrix = std::vector<std::vector<double>>;

struct KMeansResult {
  int k = 0;
  Matrix centroids;
  std::vector<int> assignment;  ///< per point, 0..k-1
  double sse = 0.0;             ///< sum of squared distances to centroids
  int iterations = 0;
};

struct KMeansOptions {
  std::uint64_t seed = 7;
  /// Runs restarts and the assignment step on this pool (null = inline).
  /// Each restart draws from its own SplitMix64-derived seed, and ties
  /// between equally good restarts resolve by restart index, so the
  /// result is identical at every thread count including 1.
  exec::Pool* pool = nullptr;
};

/// Runs K-means++ (k-means with D^2 seeding). Requires k >= 1 and
/// points.size() >= k; throws std::invalid_argument otherwise.
KMeansResult kmeans(const Matrix& points, int k, const KMeansOptions& options = {});

/// Mean silhouette coefficient of a clustering in [-1, 1]; 0 when any
/// cluster is empty or k < 2.
double silhouette_score(const Matrix& points, const std::vector<int>& assignment, int k);

/// Fraction of total variance explained by the clustering:
/// 1 - SSE / total sum of squares around the global mean.
double explained_variance(const Matrix& points, const KMeansResult& result);

/// Sweeps k in [k_min, k_max] and returns per-k diagnostics.
struct KSweepEntry {
  int k;
  double sse;
  double explained;
  double silhouette;
};
std::vector<KSweepEntry> sweep_k(const Matrix& points, int k_min, int k_max,
                                 const KMeansOptions& options = {});

/// Elbow heuristic: the k whose SSE curve has the largest distance from the
/// straight line joining the first and last sweep points.
int elbow_k(const std::vector<KSweepEntry>& sweep);

/// Z-score standardization per column (zero variance columns pass through).
Matrix standardize(const Matrix& points);

}  // namespace uncharted::analysis
