#include "common/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/units.hpp"

namespace mha::common {

void OnlineStats::add(double x) {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double OnlineStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

void OnlineStats::merge(const OnlineStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Percentiles::percentile(double p) const {
  if (samples_.empty()) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  std::sort(samples_.begin(), samples_.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples_.size())));
  return samples_[rank == 0 ? 0 : rank - 1];
}

std::size_t SizeHistogram::bucket_of(std::uint64_t size) {
  if (size <= 1) return 0;
  return static_cast<std::size_t>(std::bit_width(size) - 1);
}

void SizeHistogram::add(std::uint64_t size) {
  const std::size_t b = bucket_of(size);
  if (b >= buckets_.size()) buckets_.resize(b + 1, 0);
  ++buckets_[b];
  ++total_;
}

std::string SizeHistogram::to_string() const {
  std::string out;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b] == 0) continue;
    out.append("[")
        .append(format_bytes(1ULL << b))
        .append(", ")
        .append(format_bytes(1ULL << (b + 1)))
        .append("): ")
        .append(std::to_string(buckets_[b]))
        .append("\n");
  }
  return out;
}

}  // namespace mha::common
