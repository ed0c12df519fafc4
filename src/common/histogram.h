// Streaming statistics helpers: mean/min/max accumulator and a log-scale
// latency histogram used by the simulator's queueing instrumentation.
#ifndef STAGEDCMP_COMMON_HISTOGRAM_H_
#define STAGEDCMP_COMMON_HISTOGRAM_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

namespace stagedcmp {

/// Welford-style running mean with min/max; O(1) memory.
class RunningStat {
 public:
  void Add(double x) {
    ++n_;
    const double d = x - mean_;
    mean_ += d / static_cast<double>(n_);
    m2_ += d * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double sum() const { return sum_; }
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

 private:
  uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Power-of-two bucketed histogram for non-negative integer samples
/// (e.g. per-access latency in cycles). Bucket i holds values in
/// [2^(i-1), 2^i) with bucket 0 holding {0}.
class LogHistogram {
 public:
  static constexpr int kBuckets = 40;

  void Add(uint64_t v) {
    int b = v == 0 ? 0 : 64 - __builtin_clzll(v);
    if (b >= kBuckets) b = kBuckets - 1;
    ++buckets_[static_cast<size_t>(b)];
    ++count_;
    sum_ += v;
  }

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_) : 0;
  }

  /// Adds another histogram's samples bucket-wise (shard aggregation in
  /// common/metrics.h).
  void MergeFrom(const LogHistogram& other) {
    for (int i = 0; i < kBuckets; ++i) {
      buckets_[static_cast<size_t>(i)] += other.buckets_[static_cast<size_t>(i)];
    }
    count_ += other.count_;
    sum_ += other.sum_;
  }

  /// Restores an aggregate recorded elsewhere. Count/sum only — bucket
  /// detail is not transported — which is exactly what the sweep shard
  /// files carry (sinks read mean() alone). sweep/shard.cc merge path.
  void RestoreAggregate(uint64_t count, uint64_t sum) {
    count_ = count;
    sum_ = sum;
  }

  /// Approximate quantile: finds the bucket holding the sample of rank
  /// q * count and interpolates linearly by rank inside it, treating
  /// the bucket's samples as spread evenly over its value range.
  uint64_t Quantile(double q) const {
    if (count_ == 0) return 0;
    const uint64_t target =
        static_cast<uint64_t>(q * static_cast<double>(count_));
    uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      const uint64_t n = buckets_[static_cast<size_t>(i)];
      if (seen + n > target) {
        if (i == 0) return 0;
        const uint64_t lo = 1ULL << (i - 1);  // bucket i is [lo, 2 * lo)
        return lo + static_cast<uint64_t>(static_cast<double>(target - seen) /
                                          static_cast<double>(n) *
                                          static_cast<double>(lo));
      }
      seen += n;
    }
    return (1ULL << (kBuckets - 1));
  }

  uint64_t bucket(int i) const { return buckets_[static_cast<size_t>(i)]; }

 private:
  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
};

}  // namespace stagedcmp

#endif  // STAGEDCMP_COMMON_HISTOGRAM_H_
