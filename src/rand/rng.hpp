// Deterministic random number generation for PRPB.
//
// The Graph500 generator's key property (cited by the paper) is that it "can
// be run in parallel without requiring communication between processors".
// We achieve that with a counter-based design: `CounterRng` derives the k-th
// random draw of a named stream purely from (seed, stream, counter), so any
// shard or thread can generate its slice of the edge list independently and
// the result is bit-identical to a serial run.
#pragma once

#include <cstdint>

namespace prpb::rnd {

/// SplitMix64 mixing function (Steele/Lea/Flood). Bijective on uint64.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Sequential SplitMix64 stream; used for seeding and cheap scalar draws.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 (Blackman/Vigna). High-quality sequential generator used
/// where a stateful stream is fine (PageRank init vector, shuffles).
class Xoshiro256 {
 public:
  explicit Xoshiro256(std::uint64_t seed);

  std::uint64_t next();
  /// Uniform double in [0, 1).
  double next_double();
  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound);

  // UniformRandomBitGenerator interface (for std::shuffle etc.).
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return next(); }

 private:
  std::uint64_t s_[4];
};

/// Counter-based generator: stateless function of (seed, stream, counter).
/// Each (stream, counter) pair yields an independent 64-bit value; repeated
/// calls with the same arguments return the same value.
class CounterRng {
 public:
  explicit constexpr CounterRng(std::uint64_t seed) : seed_(seed) {}

  // Two rounds of splitmix over a mixed key; passes practical independence
  // checks (distinct streams/counters decorrelate in tests). The first round
  // depends only on (seed, stream), so a loop over counters can hoist it:
  // at(stream, c) == at_key(stream_key(stream), c).
  [[nodiscard]] constexpr std::uint64_t at(std::uint64_t stream,
                                           std::uint64_t counter) const {
    return at_key(stream_key(stream), counter);
  }

  /// First mixing round: the key of `stream` under this seed.
  [[nodiscard]] constexpr std::uint64_t stream_key(std::uint64_t stream) const {
    return splitmix64(seed_ ^ (stream * 0xd1342543de82ef95ULL));
  }

  /// Second mixing round: the draw for `counter` on the stream keyed `key`.
  [[nodiscard]] static constexpr std::uint64_t at_key(std::uint64_t key,
                                                      std::uint64_t counter) {
    return splitmix64(key ^ (counter * 0xa0761d6478bd642fULL));
  }

  /// Uniform double in [0, 1) for (stream, counter).
  [[nodiscard]] double uniform(std::uint64_t stream,
                               std::uint64_t counter) const {
    return to_unit_double(at(stream, counter));
  }

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Maps a uint64 to [0,1) using the top 53 bits.
  [[nodiscard]] static double to_unit_double(std::uint64_t bits) {
    return static_cast<double>(bits >> 11) * 0x1.0p-53;
  }

  /// The integer T with `to_unit_double(bits) > t` == `(bits >> 11) > T`
  /// for every bits, so a loop can test a uniform draw without converting
  /// it. For t in [0, 1), t * 2^53 is exact in a double (a power-of-two
  /// scaling), and for an integer x, x * 2^-53 > t <=> x > floor(t * 2^53).
  /// For t >= 1 or NaN the double test is never true, and neither is
  /// x > 2^53 - 1. t must not be negative.
  [[nodiscard]] static std::uint64_t unit_threshold(double t) {
    constexpr std::uint64_t kMaxDraw = (1ULL << 53) - 1;
    if (!(t < 1.0)) return kMaxDraw;  // also keeps NaN out of the cast
    return static_cast<std::uint64_t>(t * 0x1.0p53);
  }

 private:
  std::uint64_t seed_;
};

}  // namespace prpb::rnd
