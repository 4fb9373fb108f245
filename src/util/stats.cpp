#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace uncharted {

void RunningStats::add(double x) {
  ++n_;
  sum_ += x;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_);
}


void RunningStats::save(ByteWriter& w) const {
  w.u64le(n_);
  w.f64le(mean_);
  w.f64le(m2_);
  w.f64le(sum_);
  w.f64le(min_);
  w.f64le(max_);
}

Result<RunningStats> RunningStats::load(ByteReader& r) {
  RunningStats s;
  auto n = r.u64le();
  auto mean = r.f64le();
  auto m2 = r.f64le();
  auto sum = r.f64le();
  auto mn = r.f64le();
  auto mx = r.f64le();
  if (!mx) return mx.error();
  s.n_ = static_cast<std::size_t>(n.value());
  s.mean_ = mean.value();
  s.m2_ = m2.value();
  s.sum_ = sum.value();
  s.min_ = mn.value();
  s.max_ = mx.value();
  return s;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  if (p <= 0) return values.front();
  if (p >= 100) return values.back();
  double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  auto lo = static_cast<std::size_t>(rank);
  double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= values.size()) return values.back();
  return values[lo] * (1.0 - frac) + values[lo + 1] * frac;
}

double mean_of(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double s = 0.0;
  for (double v : values) s += v;
  return s / static_cast<double>(values.size());
}

double variance_of(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  double m = mean_of(values);
  double s = 0.0;
  for (double v : values) s += (v - m) * (v - m);
  return s / static_cast<double>(values.size());
}

double normalized_variance(const std::vector<double>& values) {
  double var = variance_of(values);
  double m = mean_of(values);
  if (std::fabs(m) < 1e-9) return var;
  return var / (m * m);
}

LogHistogram::LogHistogram(int lo_exp, int hi_exp, int per_decade)
    : lo_exp_(lo_exp), per_decade_(per_decade) {
  counts_.assign(static_cast<std::size_t>((hi_exp - lo_exp) * per_decade), 0);
}

void LogHistogram::add(double value) {
  ++total_;
  if (value <= 0) {
    ++underflow_;
    return;
  }
  double pos = (std::log10(value) - lo_exp_) * per_decade_;
  if (pos < 0) {
    ++underflow_;
  } else if (pos >= static_cast<double>(counts_.size())) {
    ++overflow_;
  } else {
    ++counts_[static_cast<std::size_t>(pos)];
  }
}

double LogHistogram::edge(std::size_t bin) const {
  return std::pow(10.0, lo_exp_ + static_cast<double>(bin) / per_decade_);
}

}  // namespace uncharted
