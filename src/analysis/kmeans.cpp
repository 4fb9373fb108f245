#include "analysis/kmeans.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "exec/pool.hpp"

namespace uncharted::analysis {

namespace {

double sq_distance(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

Matrix seed_plus_plus(const Matrix& points, int k, Rng& rng) {
  Matrix centroids;
  centroids.push_back(points[rng.below(points.size())]);
  std::vector<double> d2(points.size());
  while (static_cast<int>(centroids.size()) < k) {
    double total = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      double best = std::numeric_limits<double>::infinity();
      for (const auto& c : centroids) best = std::min(best, sq_distance(points[i], c));
      d2[i] = best;
      total += best;
    }
    if (total <= 0.0) {
      // All points coincide with existing centroids; duplicate one.
      centroids.push_back(points[rng.below(points.size())]);
      continue;
    }
    double target = rng.uniform() * total;
    std::size_t pick = 0;
    double acc = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      acc += d2[i];
      if (acc >= target) {
        pick = i;
        break;
      }
    }
    centroids.push_back(points[pick]);
  }
  return centroids;
}

/// Points per assignment chunk. A fixed grain (never derived from the
/// worker count) keeps the partition — and thus every FP operation's
/// operands — identical at all thread counts.
constexpr std::size_t kAssignGrain = 64;

/// Lloyd runs at most kMaxIterations, stopping once the centroids move
/// (summed squared distance) less than kTolerance; kmeans() keeps the best
/// of kRestarts seedings.
constexpr int kMaxIterations = 100;
constexpr double kTolerance = 1e-9;
constexpr int kRestarts = 4;

KMeansResult lloyd(const Matrix& points, Matrix centroids, exec::Pool* pool) {
  const int k = static_cast<int>(centroids.size());
  const std::size_t dims = points[0].size();
  KMeansResult result;
  result.k = k;
  result.assignment.assign(points.size(), 0);

  for (int iter = 0; iter < kMaxIterations; ++iter) {
    result.iterations = iter + 1;
    // Assign. Each point is independent (no reduction), so this
    // parallelizes without any FP-order concern.
    exec::parallel_for(pool, points.size(), kAssignGrain,
                       [&](std::size_t begin, std::size_t end) {
                         for (std::size_t i = begin; i < end; ++i) {
                           double best = std::numeric_limits<double>::infinity();
                           int best_c = 0;
                           for (int c = 0; c < k; ++c) {
                             double d = sq_distance(
                                 points[i], centroids[static_cast<std::size_t>(c)]);
                             if (d < best) {
                               best = d;
                               best_c = c;
                             }
                           }
                           result.assignment[i] = best_c;
                         }
                       });
    // Update.
    Matrix next(static_cast<std::size_t>(k), std::vector<double>(dims, 0.0));
    std::vector<std::size_t> counts(static_cast<std::size_t>(k), 0);
    for (std::size_t i = 0; i < points.size(); ++i) {
      auto c = static_cast<std::size_t>(result.assignment[i]);
      ++counts[c];
      for (std::size_t d = 0; d < dims; ++d) next[c][d] += points[i][d];
    }
    double movement = 0.0;
    for (std::size_t c = 0; c < static_cast<std::size_t>(k); ++c) {
      if (counts[c] == 0) {
        next[c] = centroids[c];  // keep empty centroid in place
        continue;
      }
      for (std::size_t d = 0; d < dims; ++d) next[c][d] /= static_cast<double>(counts[c]);
      movement += sq_distance(next[c], centroids[c]);
    }
    centroids = std::move(next);
    if (movement < kTolerance) break;
  }

  result.centroids = std::move(centroids);
  result.sse = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    result.sse +=
        sq_distance(points[i], result.centroids[static_cast<std::size_t>(result.assignment[i])]);
  }
  return result;
}

}  // namespace

KMeansResult kmeans(const Matrix& points, int k, const KMeansOptions& options) {
  if (k < 1 || points.empty() || points.size() < static_cast<std::size_t>(k)) {
    throw std::invalid_argument("kmeans: need k >= 1 and at least k points");
  }
  // Each restart owns an Rng seeded from a SplitMix64 chain over
  // options.seed: restarts never share generator state, so they can run
  // concurrently, and restart r draws the same numbers no matter how many
  // threads execute the batch (or whether a pool exists at all).
  std::vector<std::uint64_t> seeds(kRestarts);
  SplitMix64 seeder(options.seed);
  for (auto& s : seeds) s = seeder.next();

  std::vector<KMeansResult> results(kRestarts);
  {
    exec::TaskGroup group(options.pool);
    for (int r = 0; r < kRestarts; ++r) {
      group.run([&, r] {
        // Assignment-level parallelism nests under restart-level
        // parallelism; the group's help-based wait makes that safe.
        Rng rng(seeds[static_cast<std::size_t>(r)]);
        results[static_cast<std::size_t>(r)] =
            lloyd(points, seed_plus_plus(points, k, rng), options.pool);
      });
    }
    group.wait();
  }

  // Ties resolve to the earliest restart (strict <), independent of which
  // task finished first.
  KMeansResult best;
  best.sse = std::numeric_limits<double>::infinity();
  for (auto& result : results) {
    if (result.sse < best.sse) best = std::move(result);
  }
  return best;
}

double silhouette_score(const Matrix& points, const std::vector<int>& assignment, int k) {
  if (k < 2 || points.size() < 2) return 0.0;
  const std::size_t n = points.size();

  std::vector<std::size_t> cluster_size(static_cast<std::size_t>(k), 0);
  for (int a : assignment) ++cluster_size[static_cast<std::size_t>(a)];

  double total = 0.0;
  std::size_t counted = 0;
  for (std::size_t i = 0; i < n; ++i) {
    auto ci = static_cast<std::size_t>(assignment[i]);
    if (cluster_size[ci] <= 1) continue;  // silhouette undefined; skip

    std::vector<double> mean_dist(static_cast<std::size_t>(k), 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      mean_dist[static_cast<std::size_t>(assignment[j])] +=
          std::sqrt(sq_distance(points[i], points[j]));
    }
    double a = mean_dist[ci] / static_cast<double>(cluster_size[ci] - 1);
    double b = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < static_cast<std::size_t>(k); ++c) {
      if (c == ci || cluster_size[c] == 0) continue;
      b = std::min(b, mean_dist[c] / static_cast<double>(cluster_size[c]));
    }
    if (!std::isfinite(b)) continue;
    double denom = std::max(a, b);
    total += denom > 0 ? (b - a) / denom : 0.0;
    ++counted;
  }
  return counted ? total / static_cast<double>(counted) : 0.0;
}

double explained_variance(const Matrix& points, const KMeansResult& result) {
  if (points.empty()) return 0.0;
  const std::size_t dims = points[0].size();
  std::vector<double> mean(dims, 0.0);
  for (const auto& p : points) {
    for (std::size_t d = 0; d < dims; ++d) mean[d] += p[d];
  }
  for (auto& m : mean) m /= static_cast<double>(points.size());
  double tss = 0.0;
  for (const auto& p : points) tss += sq_distance(p, mean);
  if (tss <= 0.0) return 1.0;
  return 1.0 - result.sse / tss;
}

std::vector<KSweepEntry> sweep_k(const Matrix& points, int k_min, int k_max,
                                 const KMeansOptions& options) {
  std::vector<int> ks;
  for (int k = k_min; k <= k_max && static_cast<std::size_t>(k) <= points.size(); ++k) {
    ks.push_back(k);
  }
  std::vector<KSweepEntry> sweep(ks.size());
  exec::TaskGroup group(options.pool);
  for (std::size_t i = 0; i < ks.size(); ++i) {
    group.run([&, i] {
      int k = ks[i];
      auto result = kmeans(points, k, options);
      sweep[i] = KSweepEntry{k, result.sse, explained_variance(points, result),
                             silhouette_score(points, result.assignment, k)};
    });
  }
  group.wait();
  return sweep;
}

int elbow_k(const std::vector<KSweepEntry>& sweep) {
  if (sweep.size() < 3) return sweep.empty() ? 0 : sweep.front().k;
  // Largest perpendicular distance from the line joining the endpoints of
  // the (k, sse) curve.
  double x1 = sweep.front().k, y1 = sweep.front().sse;
  double x2 = sweep.back().k, y2 = sweep.back().sse;
  double norm = std::hypot(x2 - x1, y2 - y1);
  int best_k = sweep.front().k;
  double best_dist = -1.0;
  for (const auto& e : sweep) {
    double dist = std::fabs((y2 - y1) * e.k - (x2 - x1) * e.sse + x2 * y1 - y2 * x1) / norm;
    if (dist > best_dist) {
      best_dist = dist;
      best_k = e.k;
    }
  }
  return best_k;
}

Matrix standardize(const Matrix& points) {
  if (points.empty()) return points;
  const std::size_t dims = points[0].size();
  std::vector<double> mean(dims, 0.0), var(dims, 0.0);
  for (const auto& p : points) {
    for (std::size_t d = 0; d < dims; ++d) mean[d] += p[d];
  }
  for (auto& m : mean) m /= static_cast<double>(points.size());
  for (const auto& p : points) {
    for (std::size_t d = 0; d < dims; ++d) {
      double delta = p[d] - mean[d];
      var[d] += delta * delta;
    }
  }
  Matrix out = points;
  for (std::size_t d = 0; d < dims; ++d) {
    double sd = std::sqrt(var[d] / static_cast<double>(points.size()));
    if (sd < 1e-12) continue;
    for (auto& p : out) p[d] = (p[d] - mean[d]) / sd;
  }
  return out;
}

}  // namespace uncharted::analysis
