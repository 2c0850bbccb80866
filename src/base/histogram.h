// Bounded streaming latency/statistics accumulator.
//
// The paper reports single elapsed-time numbers; we report mean plus spread
// so measurement quality is visible. Count, sum, min, max and the second
// moment stream exactly in O(1) space regardless of how many samples are
// added; percentiles come from a bounded reservoir (deterministic stride
// decimation), so a Stats can sit on a kernel hot path for an arbitrarily
// long run without growing.

#ifndef SRC_BASE_HISTOGRAM_H_
#define SRC_BASE_HISTOGRAM_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace ckbase {

class Stats {
 public:
  // Upper bound on retained samples for percentile estimation.
  static constexpr size_t kReservoirCap = 2048;

  void Add(double sample) {
    count_++;
    sum_ += sample;
    sumsq_ += sample * sample;
    if (count_ == 1) {
      min_ = max_ = sample;
    } else {
      min_ = std::min(min_, sample);
      max_ = std::max(max_, sample);
    }
    // Keep every stride_-th sample; when the reservoir fills, drop every
    // other retained sample and double the stride. Deterministic, and the
    // survivors stay uniformly spread over the whole stream.
    if (admit_countdown_ == 0) {
      if (reservoir_.size() >= kReservoirCap) {
        Decimate();
      }
      reservoir_.push_back(sample);
      admit_countdown_ = stride_ - 1;
    } else {
      admit_countdown_--;
    }
  }

  size_t count() const { return count_; }
  size_t reservoir_size() const { return reservoir_.size(); }

  double Mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }
  double Min() const { return count_ == 0 ? 0.0 : min_; }
  double Max() const { return count_ == 0 ? 0.0 : max_; }
  double Sum() const { return sum_; }
  double SumSq() const { return sumsq_; }

  // p in [0,100]. Linear interpolation over the sorted reservoir; exact while
  // the sample count is within kReservoirCap, an even-stride estimate beyond.
  double Percentile(double p) const {
    if (reservoir_.empty()) {
      return 0.0;
    }
    std::vector<double> sorted = reservoir_;
    std::sort(sorted.begin(), sorted.end());
    double rank = (p / 100.0) * static_cast<double>(sorted.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return sorted[lo] * (1 - frac) + sorted[hi] * frac;
  }

  // Sample standard deviation (n-1 denominator), streamed from the moments.
  double StdDev() const {
    if (count_ < 2) {
      return 0.0;
    }
    double n = static_cast<double>(count_);
    double var = (sumsq_ - sum_ * sum_ / n) / (n - 1);
    return var > 0 ? std::sqrt(var) : 0.0;
  }

  // Fold another accumulator into this one. Moments merge exactly; the
  // reservoirs concatenate and re-decimate to stay within the bound.
  void Merge(const Stats& other) {
    if (other.count_ == 0) {
      return;
    }
    if (count_ == 0) {
      min_ = other.min_;
      max_ = other.max_;
    } else {
      min_ = std::min(min_, other.min_);
      max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    sum_ += other.sum_;
    sumsq_ += other.sumsq_;
    reservoir_.insert(reservoir_.end(), other.reservoir_.begin(), other.reservoir_.end());
    while (reservoir_.size() > kReservoirCap) {
      Decimate();
    }
  }

 private:
  void Decimate() {
    size_t keep = 0;
    for (size_t i = 0; i < reservoir_.size(); i += 2) {
      reservoir_[keep++] = reservoir_[i];
    }
    reservoir_.resize(keep);
    stride_ *= 2;
  }

  size_t count_ = 0;
  double sum_ = 0;
  double sumsq_ = 0;
  double min_ = 0;
  double max_ = 0;
  std::vector<double> reservoir_;
  uint64_t stride_ = 1;
  uint64_t admit_countdown_ = 0;
};

}  // namespace ckbase

#endif  // SRC_BASE_HISTOGRAM_H_
