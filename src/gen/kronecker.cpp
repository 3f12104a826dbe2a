#include "gen/kronecker.hpp"

#include "util/error.hpp"

namespace prpb::gen {

void KroneckerParams::validate() const {
  util::require(scale >= 1 && scale <= kMaxScale,
                "kronecker: scale must be in [1, 40]");
  util::require(edge_factor >= 1, "kronecker: edge_factor must be >= 1");
  util::require(a > 0 && b >= 0 && c >= 0 && d() >= 0,
                "kronecker: initiator probabilities must be non-negative with "
                "a > 0 and a+b+c <= 1");
}

BitPermutation::BitPermutation(int bits, std::uint64_t seed) : bits_(bits) {
  util::require(bits >= 1 && bits <= 63, "BitPermutation: bits in [1, 63]");
  mask_ = (bits >= 64) ? ~0ULL : ((1ULL << bits) - 1);
  rnd::SplitMix64 sm(seed ^ 0xfeedface12345678ULL);
  for (int round = 0; round < kRounds; ++round) {
    mul_[round] = (sm.next() | 1ULL) & mask_;  // odd => invertible mod 2^bits
    add_[round] = sm.next() & mask_;
    // xor-shift amount in [1, bits-1]; any such shift is invertible.
    shift_[round] = bits_ > 1 ? 1 + static_cast<int>(sm.next() %
                                                     static_cast<std::uint64_t>(
                                                         bits_ - 1))
                              : 1;
  }
}

std::uint64_t BitPermutation::mul_inverse(std::uint64_t a,
                                          std::uint64_t mask) {
  // Newton iteration for the inverse of odd `a` modulo 2^k (k = popcount of
  // mask+1 exponent); five iterations reach 64-bit precision.
  std::uint64_t x = a;  // correct to 3 bits
  for (int it = 0; it < 5; ++it) x = x * (2 - a * x);
  return x & mask;
}

std::uint64_t BitPermutation::forward(std::uint64_t x) const {
  x &= mask_;
  for (int round = 0; round < kRounds; ++round) {
    x = (x * mul_[round] + add_[round]) & mask_;
    x ^= x >> shift_[round];
    x &= mask_;
  }
  return x;
}

std::uint64_t BitPermutation::inverse(std::uint64_t y) const {
  y &= mask_;
  for (int round = kRounds - 1; round >= 0; --round) {
    // invert x ^= x >> s by fixed-point iteration: each application fixes
    // s more of the low bits, so ceil(bits/s) rounds recover x exactly.
    std::uint64_t x = y;
    for (int fixed = 0; fixed < bits_; fixed += shift_[round]) {
      x = y ^ (x >> shift_[round]);
    }
    x &= mask_;
    // invert the affine step
    const std::uint64_t inv = mul_inverse(mul_[round], mask_);
    y = ((x - add_[round]) * inv) & mask_;
  }
  return y;
}

KroneckerGenerator::KroneckerGenerator(const KroneckerParams& params)
    : params_(params), perm_(params.scale, params.seed) {
  params_.validate();  // thresholds below need t >= 0
  const rnd::CounterRng rng(params_.seed);
  for (int s = 0; s < 2 * params_.scale; ++s) {
    stream_key_[static_cast<std::size_t>(s)] =
        rng.stream_key(static_cast<std::uint64_t>(s));
  }
  const double a = params_.a;
  const double b = params_.b;
  const double c = params_.c;
  ab_threshold_ = rnd::CounterRng::unit_threshold(a + b);
  a_norm_threshold_ = rnd::CounterRng::unit_threshold(a / (a + b));
  c_norm_threshold_ = rnd::CounterRng::unit_threshold(c / (c + params_.d()));
}

std::uint64_t KroneckerGenerator::num_vertices() const {
  return 1ULL << params_.scale;
}

std::uint64_t KroneckerGenerator::num_edges() const {
  return static_cast<std::uint64_t>(params_.edge_factor) * num_vertices();
}

Edge KroneckerGenerator::edge_at(std::uint64_t i) const {
  std::uint64_t u = 0;
  std::uint64_t v = 0;
  for (int level = 0; level < params_.scale; ++level) {
    const auto s = 2 * static_cast<std::size_t>(level);
    const std::uint64_t r1 = rnd::CounterRng::at_key(stream_key_[s], i) >> 11;
    const std::uint64_t r2 =
        rnd::CounterRng::at_key(stream_key_[s + 1], i) >> 11;
    const bool u_bit = r1 > ab_threshold_;
    const bool v_bit = r2 > (u_bit ? c_norm_threshold_ : a_norm_threshold_);
    u |= static_cast<std::uint64_t>(u_bit) << level;
    v |= static_cast<std::uint64_t>(v_bit) << level;
  }
  if (params_.scramble_ids) {
    u = perm_.forward(u);
    v = perm_.forward(v);
  }
  return Edge{u, v};
}

void KroneckerGenerator::generate_range(std::uint64_t begin, std::uint64_t end,
                                        EdgeList& out) const {
  util::require(begin <= end && end <= num_edges(),
                "kronecker: generate_range out of bounds");
  out.reserve(out.size() + (end - begin));
  for (std::uint64_t i = begin; i < end; ++i) out.push_back(edge_at(i));
}

}  // namespace prpb::gen
