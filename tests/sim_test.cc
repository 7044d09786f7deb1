#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "src/sim/event_loop.h"
#include "src/sim/rng.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace fragvisor {
namespace {

TEST(TimeTest, Conversions) {
  EXPECT_EQ(Micros(1), 1000);
  EXPECT_EQ(Millis(1), 1000 * 1000);
  EXPECT_EQ(Seconds(1), 1000 * 1000 * 1000);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(3)), 3.0);
  EXPECT_DOUBLE_EQ(ToMillis(Micros(1500)), 1.5);
  EXPECT_DOUBLE_EQ(ToMicros(Nanos(500)), 0.5);
  EXPECT_EQ(FromSeconds(0.000001), Micros(1));
}

TEST(EventLoopTest, StartsAtZero) {
  EventLoop loop;
  EXPECT_EQ(loop.now(), 0);
  EXPECT_TRUE(loop.empty());
}

TEST(EventLoopTest, DispatchesInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAt(Micros(30), [&]() { order.push_back(3); });
  loop.ScheduleAt(Micros(10), [&]() { order.push_back(1); });
  loop.ScheduleAt(Micros(20), [&]() { order.push_back(2); });
  EXPECT_EQ(loop.Run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), Micros(30));
}

TEST(EventLoopTest, EqualTimesFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.ScheduleAt(Micros(5), [&order, i]() { order.push_back(i); });
  }
  loop.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventLoopTest, ScheduleAfterUsesNow) {
  EventLoop loop;
  TimeNs fired_at = -1;
  loop.ScheduleAt(Micros(10), [&]() {
    loop.ScheduleAfter(Micros(5), [&]() { fired_at = loop.now(); });
  });
  loop.Run();
  EXPECT_EQ(fired_at, Micros(15));
}

TEST(EventLoopTest, CancelPreventsDispatch) {
  EventLoop loop;
  bool fired = false;
  const EventId id = loop.ScheduleAt(Micros(10), [&]() { fired = true; });
  EXPECT_TRUE(loop.Cancel(id));
  EXPECT_FALSE(loop.Cancel(id));  // double-cancel
  loop.Run();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(loop.empty());
}

TEST(EventLoopTest, CancelUnknownIdFails) {
  EventLoop loop;
  EXPECT_FALSE(loop.Cancel(kInvalidEventId));
  EXPECT_FALSE(loop.Cancel(9999));
}

TEST(EventLoopTest, RunUntilAdvancesToDeadline) {
  EventLoop loop;
  int fired = 0;
  loop.ScheduleAt(Micros(10), [&]() { ++fired; });
  loop.ScheduleAt(Micros(50), [&]() { ++fired; });
  EXPECT_EQ(loop.RunUntil(Micros(20)), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now(), Micros(20));
  EXPECT_EQ(loop.pending_count(), 1u);
  loop.Run();
  EXPECT_EQ(fired, 2);
}

TEST(EventLoopTest, RunForIsRelative) {
  EventLoop loop;
  loop.ScheduleAt(Micros(5), []() {});
  loop.RunFor(Micros(10));
  EXPECT_EQ(loop.now(), Micros(10));
  loop.RunFor(Micros(10));
  EXPECT_EQ(loop.now(), Micros(20));
}

TEST(EventLoopTest, StopHaltsRun) {
  EventLoop loop;
  int fired = 0;
  loop.ScheduleAt(Micros(1), [&]() {
    ++fired;
    loop.Stop();
  });
  loop.ScheduleAt(Micros(2), [&]() { ++fired; });
  loop.Run();
  EXPECT_EQ(fired, 1);
  loop.Run();
  EXPECT_EQ(fired, 2);
}

TEST(EventLoopTest, EventsScheduledDuringDispatchRun) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> recurse = [&]() {
    if (++depth < 100) {
      loop.ScheduleAfter(Nanos(1), recurse);
    }
  };
  loop.ScheduleAt(0, recurse);
  loop.Run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(loop.now(), Nanos(99));
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformIntInRangeAndCoversRange) {
  Rng rng(3);
  std::vector<int> counts(6, 0);
  for (int i = 0; i < 60000; ++i) {
    const int64_t v = rng.UniformInt(0, 5);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 5);
    ++counts[static_cast<size_t>(v)];
  }
  for (const int c : counts) {
    EXPECT_GT(c, 8000);  // roughly uniform
    EXPECT_LT(c, 12000);
  }
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(3);
  EXPECT_EQ(rng.UniformInt(17, 17), 17);
}

// UniformInt as it was written, with the rejection limit computed on every
// draw (and its range arithmetic unsigned, so ranges past 2^63 are defined);
// the cheaper form must consume and return exactly the same sequence.
int64_t UniformIntReference(Rng& rng, int64_t lo, int64_t hi) {
  const uint64_t range = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
  if (range == 0) {
    return static_cast<int64_t>(rng.NextU64());
  }
  const uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  uint64_t x = rng.NextU64();
  while (x >= limit) {
    x = rng.NextU64();
  }
  return static_cast<int64_t>(static_cast<uint64_t>(lo) + x % range);
}

TEST(RngTest, UniformIntDrawsMatchReference) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  // (lo, hi) spanning 1, 2, 63, 64, 1000, 1024, 2^32 + 1, 2^63, 2^63 + 1
  // values, and the full 64-bit range.
  const std::vector<std::pair<int64_t, int64_t>> bounds = {
      {5, 5}, {0, 1}, {-10, 52}, {0, 63}, {1, 1000}, {-512, 511},
      {0, int64_t{1} << 32}, {0, kMax}, {-1, kMax}, {kMin, kMax}};
  for (const uint64_t seed : {1ull, 2ull, 42ull, 1001ull, 0xfa017ull}) {
    for (const auto& [lo, hi] : bounds) {
      Rng fast(seed);
      Rng reference(seed);
      for (int i = 0; i < 2000; ++i) {
        ASSERT_EQ(fast.UniformInt(lo, hi), UniformIntReference(reference, lo, hi))
            << "seed " << seed << " [" << lo << ", " << hi << "] draw " << i;
      }
      EXPECT_EQ(fast.NextU64(), reference.NextU64());  // same stream position
    }
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Exponential(5.0);
  }
  EXPECT_NEAR(sum / n, 5.0, 0.15);
}

TEST(RngTest, NormalMoments) {
  Rng rng(13);
  double sum = 0;
  double sq = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(RngTest, BoundedParetoStaysInBounds) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.BoundedPareto(2.0, 120.0, 1.2);
    ASSERT_GE(v, 2.0 * 0.999);
    ASSERT_LE(v, 120.0 * 1.001);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

TEST(RngTest, ForkIsIndependent) {
  Rng a(42);
  Rng child = a.Fork();
  EXPECT_NE(a.NextU64(), child.NextU64());
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(StatsTest, CounterAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(StatsTest, SummaryTracksMoments) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  s.Record(2.0);
  s.Record(4.0);
  s.Record(9.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 15.0);
}

TEST(StatsTest, HistogramPercentiles) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) {
    h.Record(static_cast<double>(i));
  }
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_LE(h.Percentile(50), h.Percentile(99));
  EXPECT_GE(h.Percentile(100), 512.0);  // top bucket upper bound clamped to max
  EXPECT_LE(h.Percentile(100), 1000.0);
  EXPECT_GE(h.Percentile(0.1), 1.0);
}

// The bucket a lone sample lands in, read back through the public API.
int BucketOf(double sample) {
  Histogram h;
  h.Record(sample);
  for (int b = 0; b < Histogram::kBuckets; ++b) {
    if (h.bucket(b) == 1) {
      return b;
    }
  }
  return -1;
}

// Bucketing as it was written with libm: floor(log2(x)) + 1, clamped.
int BucketReference(double sample) {
  if (sample < 1.0) {
    return 0;
  }
  return std::min(static_cast<int>(std::floor(std::log2(sample))) + 1, Histogram::kBuckets - 1);
}

// The double `n` representable steps below the positive double `x`.
double UlpsBelow(double x, int64_t n) {
  return std::bit_cast<double>(std::bit_cast<uint64_t>(x) - static_cast<uint64_t>(n));
}

TEST(StatsTest, HistogramBucketsMatchLog2Reference) {
  std::vector<double> samples = {0.0, 0.5, 1.0};
  for (int k = 1; k <= 61; ++k) {
    const double p = std::ldexp(1.0, k);
    samples.insert(samples.end(), {p - 1.0, p, p + 1.0, UlpsBelow(p, 1)});
    // Both sides of the window where the bucket defers to log2.
    samples.insert(samples.end(), {UlpsBelow(p, int64_t{1} << 32),
                                   UlpsBelow(p, (int64_t{1} << 32) + 1)});
  }
  for (int k = 62; k <= 70; ++k) {
    samples.push_back(std::ldexp(1.0, k));
  }
  Rng rng(7);
  for (int i = 0; i < 200000; ++i) {
    // Uniform mantissas over every octave, integer-valued samples, and
    // samples a few ulps below a power of two, where log2 rounds up.
    const int k = static_cast<int>(rng.UniformInt(0, 63));
    samples.push_back(std::ldexp(1.0 + rng.NextDouble(), k));
    samples.push_back(static_cast<double>(rng.NextU64() >> rng.UniformInt(0, 63)));
    samples.push_back(UlpsBelow(std::ldexp(1.0, k + 1), rng.UniformInt(1, int64_t{1} << 34)));
  }
  for (const double x : samples) {
    ASSERT_EQ(BucketOf(x), BucketReference(x)) << "sample " << x;
  }
  EXPECT_EQ(BucketOf(std::ldexp(1.0, 62)), Histogram::kBuckets - 1);
  EXPECT_EQ(BucketOf(std::numeric_limits<double>::infinity()), Histogram::kBuckets - 1);
}

TEST(StatsTest, HistogramEmptySafe) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.Percentile(99), 0.0);
}

TEST(StatsTest, TimeSeries) {
  TimeSeries ts;
  EXPECT_TRUE(ts.empty());
  ts.Append(Micros(1), 10.0);
  ts.Append(Micros(2), 20.0);
  EXPECT_EQ(ts.points().size(), 2u);
  EXPECT_DOUBLE_EQ(ts.MeanValue(), 15.0);
}

TEST(StatsTest, RatePerSecond) {
  EXPECT_DOUBLE_EQ(RatePerSecond(1000, Seconds(2)), 500.0);
  EXPECT_DOUBLE_EQ(RatePerSecond(5, 0), 0.0);
}

}  // namespace
}  // namespace fragvisor
