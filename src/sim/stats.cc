#include "src/sim/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

namespace fragvisor {

void Summary::Record(double sample) {
  ++count_;
  sum_ += sample;
  min_ = std::min(min_, sample);
  max_ = std::max(max_, sample);
}

int Histogram::BucketFor(double sample) {
  if (sample < 1.0) {
    return 0;
  }
  // floor(log2(sample)) is the unbiased exponent of a double >= 1. Only
  // within one part in 2^21 below the next power of two (the top 20 mantissa
  // bits all ones) can std::log2 round up to it; those samples keep the log2
  // answer, so every bucket is what it always was.
  const auto bits = std::bit_cast<uint64_t>(sample);
  constexpr uint64_t kNearNextPow2 = uint64_t{0xfffff} << 32;  // top 20 mantissa bits
  const int b = (bits & kNearNextPow2) == kNearNextPow2
                    ? static_cast<int>(std::floor(std::log2(sample))) + 1
                    : static_cast<int>(bits >> 52) - 1023 + 1;
  return std::min(b, kBuckets - 1);
}

void Histogram::Record(double sample) {
  FV_CHECK_GE(sample, 0.0);
  summary_.Record(sample);
  ++buckets_[static_cast<size_t>(BucketFor(sample))];
}

double Histogram::Percentile(double p) const {
  FV_CHECK_GE(p, 0.0);
  FV_CHECK_LE(p, 100.0);
  const uint64_t n = summary_.count();
  if (n == 0) {
    return 0.0;
  }
  const auto rank = static_cast<uint64_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets_[static_cast<size_t>(b)];
    if (seen >= rank && buckets_[static_cast<size_t>(b)] > 0) {
      const double upper = b == 0 ? 1.0 : std::ldexp(1.0, b);
      return std::clamp(upper, summary_.min(), summary_.max());
    }
  }
  return summary_.max();
}

double TimeSeries::MeanValue() const {
  if (points_.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const auto& [t, v] : points_) {
    (void)t;
    sum += v;
  }
  return sum / static_cast<double>(points_.size());
}

double RatePerSecond(uint64_t events, TimeNs elapsed) {
  if (elapsed <= 0) {
    return 0.0;
  }
  return static_cast<double>(events) / ToSeconds(elapsed);
}

}  // namespace fragvisor
