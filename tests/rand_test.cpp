// Tests for src/rand: determinism, stream independence, distribution sanity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "rand/rng.hpp"

namespace prpb::rnd {
namespace {

// ---- splitmix ---------------------------------------------------------------

TEST(SplitMixTest, Deterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMixTest, DifferentSeedsDiffer) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(SplitMixTest, MixFunctionIsPure) {
  EXPECT_EQ(splitmix64(123), splitmix64(123));
  EXPECT_NE(splitmix64(123), splitmix64(124));
}

TEST(SplitMixTest, KnownReferenceValue) {
  // SplitMix64 with seed 0 produces this well-known first output.
  SplitMix64 sm(0);
  EXPECT_EQ(sm.next(), 0xe220a8397b1dcdafULL);
}

// ---- xoshiro ----------------------------------------------------------------

TEST(XoshiroTest, Deterministic) {
  Xoshiro256 a(7);
  Xoshiro256 b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(XoshiroTest, DoubleInUnitInterval) {
  Xoshiro256 rng(99);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(XoshiroTest, DoubleMeanNearHalf) {
  Xoshiro256 rng(123);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(XoshiroTest, NextBelowInRange) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(XoshiroTest, NextBelowOneAlwaysZero) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(XoshiroTest, NextBelowCoversAllResidues) {
  Xoshiro256 rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(XoshiroTest, NextBelowApproximatelyUniform) {
  Xoshiro256 rng(17);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.next_below(10)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
  }
}

TEST(XoshiroTest, UsableWithStdShuffleInterface) {
  Xoshiro256 rng(3);
  EXPECT_EQ(Xoshiro256::min(), 0u);
  EXPECT_EQ(Xoshiro256::max(), ~0ULL);
  EXPECT_NE(rng(), rng());
}

// ---- counter rng ------------------------------------------------------------

TEST(CounterRngTest, PureFunctionOfArguments) {
  const CounterRng rng(42);
  EXPECT_EQ(rng.at(3, 1000), rng.at(3, 1000));
  EXPECT_EQ(rng.seed(), 42u);
}

TEST(CounterRngTest, DifferentCountersDiffer) {
  const CounterRng rng(42);
  std::set<std::uint64_t> values;
  for (std::uint64_t i = 0; i < 1000; ++i) values.insert(rng.at(0, i));
  EXPECT_EQ(values.size(), 1000u);  // no collisions in a small sample
}

TEST(CounterRngTest, DifferentStreamsDiffer) {
  const CounterRng rng(42);
  int equal = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    if (rng.at(0, i) == rng.at(1, i)) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(CounterRngTest, DifferentSeedsDiffer) {
  const CounterRng a(1);
  const CounterRng b(2);
  int equal = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    if (a.at(0, i) == b.at(0, i)) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(CounterRngTest, UniformInUnitInterval) {
  const CounterRng rng(7);
  for (std::uint64_t i = 0; i < 10000; ++i) {
    const double x = rng.uniform(2, i);
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(CounterRngTest, UniformMeanNearHalf) {
  const CounterRng rng(7);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform(5, i);
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(CounterRngTest, OrderIndependence) {
  // The property kernel 0 relies on: any evaluation order gives the same
  // stream contents.
  const CounterRng rng(99);
  std::vector<std::uint64_t> forward;
  std::vector<std::uint64_t> backward;
  for (std::uint64_t i = 0; i < 100; ++i) forward.push_back(rng.at(1, i));
  for (std::uint64_t i = 100; i-- > 0;) backward.push_back(rng.at(1, i));
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(forward[i], backward[99 - i]);
  }
}

TEST(CounterRngTest, ToUnitDoubleBounds) {
  EXPECT_DOUBLE_EQ(CounterRng::to_unit_double(0), 0.0);
  EXPECT_LT(CounterRng::to_unit_double(~0ULL), 1.0);
  EXPECT_GT(CounterRng::to_unit_double(~0ULL), 0.999999);
}

TEST(CounterRngTest, KeyedEntryPointMatchesAt) {
  // A loop that hoists stream_key() out of its counter loop must draw what
  // at() and uniform() draw, and both must stay the two-round mix the
  // golden checksums were generated with.
  SplitMix64 pick(0x6b65796564ULL);
  for (int trial = 0; trial < 10000; ++trial) {
    const std::uint64_t seed = pick.next();
    const std::uint64_t stream =
        trial % 2 == 0 ? pick.next() % 80 : pick.next();
    const std::uint64_t counter = pick.next() >> (trial % 64);
    const CounterRng rng(seed);
    const std::uint64_t mixed =
        splitmix64(splitmix64(seed ^ (stream * 0xd1342543de82ef95ULL)) ^
                   (counter * 0xa0761d6478bd642fULL));
    const std::uint64_t keyed =
        CounterRng::at_key(rng.stream_key(stream), counter);
    ASSERT_EQ(keyed, mixed) << "seed " << seed << " stream " << stream
                            << " counter " << counter;
    ASSERT_EQ(rng.at(stream, counter), keyed);
    ASSERT_EQ(rng.uniform(stream, counter), CounterRng::to_unit_double(keyed));
  }
}

TEST(CounterRngTest, UnitThresholdMatchesDoubleTestAtTheBoundary) {
  // (bits >> 11) > unit_threshold(t) must equal to_unit_double(bits) > t,
  // checked on the draws next to the threshold, where an off-by-one shows.
  std::vector<double> ts = {0.0,
                            -0.0,
                            0x1.0p-53,
                            0x1.8p-54,  // t * 2^53 = 0.75: floor, not round
                            0.25,
                            0.5,
                            0.57 + 0.19,
                            0.57 / 0.76,
                            0.19 / 0.24,
                            1.0 / 3.0,
                            0x1.fffffffffffffp-1,
                            1.0,
                            1.5,
                            std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()};
  Xoshiro256 rng(0x7468726573ULL);
  for (int i = 0; i < 1000; ++i) {
    ts.push_back(rng.next_double());
    ts.push_back(std::ldexp(rng.next_double(), -static_cast<int>(i % 60)));
  }
  constexpr std::uint64_t kMaxDraw = (1ULL << 53) - 1;
  for (const double t : ts) {
    const std::uint64_t threshold = CounterRng::unit_threshold(t);
    ASSERT_LE(threshold, kMaxDraw) << t;
    const std::uint64_t lo = threshold == 0 ? 0 : threshold - 1;
    const std::uint64_t hi = std::min(threshold + 2, kMaxDraw);
    for (std::uint64_t x = lo; x <= hi; ++x) {
      const std::uint64_t bits = (x << 11) | (rng.next() >> 53);
      EXPECT_EQ(x > threshold, CounterRng::to_unit_double(bits) > t)
          << "t " << t << " x " << x << " threshold " << threshold;
    }
  }
}

// ---- parameterized distribution sweep over streams --------------------------

class CounterStreamTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CounterStreamTest, EveryStreamLooksUniform) {
  const CounterRng rng(20160205);
  const std::uint64_t stream = GetParam();
  const int n = 20000;
  double sum = 0;
  double sumsq = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.uniform(stream, i);
    sum += x;
    sumsq += x * x;
  }
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.02);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.01);  // variance of U(0,1)
}

INSTANTIATE_TEST_SUITE_P(Streams, CounterStreamTest,
                         ::testing::Values(0, 1, 2, 3, 17, 63, 64, 1000));

}  // namespace
}  // namespace prpb::rnd
