// Descriptive statistics used across the analysis pipeline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/expected.hpp"

namespace uncharted {

/// Welford online mean/variance plus min/max.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Population variance (divide by n); 0 when n < 2.
  double variance() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

  /// Checkpoint serialization: the exact Welford state round-trips, so a
  /// restored accumulator continues as if never interrupted.
  void save(ByteWriter& w) const;
  static Result<RunningStats> load(ByteReader& r);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Percentile of a sample (linear interpolation); p in [0, 100].
double percentile(std::vector<double> values, double p);

/// Mean of a sample (0 for empty).
double mean_of(const std::vector<double>& values);

/// Population variance of a sample (0 for n < 2).
double variance_of(const std::vector<double>& values);

/// Variance normalized by the squared mean — the paper's "normalized
/// variance analysis" for flagging time series that change more than usual.
/// Returns 0 when the mean is ~0 and falls back to plain variance there.
double normalized_variance(const std::vector<double>& values);

/// Fixed-bin log10 histogram for flow-duration plots (Fig 8).
class LogHistogram {
 public:
  /// Bins span [10^lo_exp, 10^hi_exp) with `per_decade` bins per decade.
  LogHistogram(int lo_exp, int hi_exp, int per_decade);

  void add(double value);

  std::size_t bin_count() const { return counts_.size(); }
  std::uint64_t count_at(std::size_t bin) const { return counts_[bin]; }
  /// Lower edge of a bin.
  double edge(std::size_t bin) const;
  std::uint64_t underflow() const { return underflow_; }
  std::uint64_t overflow() const { return overflow_; }
  std::uint64_t total() const { return total_; }

 private:
  int lo_exp_;
  int per_decade_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace uncharted
