// Graph500 Kronecker (R-MAT) edge generator — kernel 0 of Graph500, reused
// verbatim as kernel 0 of the PageRank pipeline benchmark.
//
// Each edge is drawn by descending `scale` levels of the 2x2 initiator
// matrix [[A, B], [C, D]]; the Graph500 reference values are
// A=0.57, B=0.19, C=0.19, D=0.05. Per the Graph500 Octave kernel, at each
// level the row bit is set when r1 > A+B and the column bit when
// r2 > (c_norm if row bit else a_norm), with c_norm = C/(C+D) and
// a_norm = A/(A+B).
//
// The draws are CounterRng(seed) uniforms: r1 on stream 2*level, r2 on
// stream 2*level+1, counter = edge index. The 2*S stream keys are built once
// per generator, and each threshold test runs on the draw's top 53 bits
// against an integer threshold that gives the same answer as the double test.
//
// Vertex labels can optionally be scrambled by a seed-keyed bijective
// permutation of [0, 2^scale) (Graph500 does this to destroy the locality
// the recursive construction imprints on the labels).
#pragma once

#include <array>
#include <cstdint>

#include "gen/generator.hpp"
#include "rand/rng.hpp"

namespace prpb::gen {

struct KroneckerParams {
  static constexpr int kMaxScale = 40;

  int scale = 16;          ///< S; N = 2^S vertices
  int edge_factor = 16;    ///< k; M = k*N edges
  double a = 0.57;
  double b = 0.19;
  double c = 0.19;
  std::uint64_t seed = 20160205;  ///< default: paper submission era seed
  bool scramble_ids = true;

  /// d = 1 - a - b - c (kept implicit so the initiator always sums to 1).
  [[nodiscard]] double d() const { return 1.0 - a - b - c; }

  /// Throws ConfigError when scale/edge_factor/probabilities are invalid.
  void validate() const;
};

/// Seed-keyed bijective permutation of [0, 2^bits). Each round applies an
/// affine step with an odd multiplier (invertible mod 2^bits) followed by an
/// xorshift (invertible), so the whole map is a permutation by construction.
/// Used for Graph500-style vertex label scrambling.
class BitPermutation {
 public:
  BitPermutation(int bits, std::uint64_t seed);

  [[nodiscard]] std::uint64_t forward(std::uint64_t x) const;
  [[nodiscard]] std::uint64_t inverse(std::uint64_t y) const;
  [[nodiscard]] int bits() const { return bits_; }

 private:
  static constexpr int kRounds = 3;
  static std::uint64_t mul_inverse(std::uint64_t a, std::uint64_t mask);

  int bits_;
  std::uint64_t mask_ = 0;
  std::uint64_t mul_[kRounds] = {};
  std::uint64_t add_[kRounds] = {};
  int shift_[kRounds] = {};
};

class KroneckerGenerator final : public EdgeGenerator {
 public:
  explicit KroneckerGenerator(const KroneckerParams& params);

  [[nodiscard]] std::uint64_t num_vertices() const override;
  [[nodiscard]] std::uint64_t num_edges() const override;
  void generate_range(std::uint64_t begin, std::uint64_t end,
                      EdgeList& out) const override;
  [[nodiscard]] std::string name() const override { return "kronecker"; }

  /// Generates the single edge with index `i` (exposed for testing).
  [[nodiscard]] Edge edge_at(std::uint64_t i) const;

  [[nodiscard]] const KroneckerParams& params() const { return params_; }

 private:
  KroneckerParams params_;
  BitPermutation perm_;
  // stream_key_[2*level] keys r1, stream_key_[2*level+1] keys r2.
  std::array<std::uint64_t, 2 * KroneckerParams::kMaxScale> stream_key_{};
  // CounterRng::unit_threshold of A+B, A/(A+B) and C/(C+D).
  std::uint64_t ab_threshold_ = 0;
  std::uint64_t a_norm_threshold_ = 0;
  std::uint64_t c_norm_threshold_ = 0;
};

}  // namespace prpb::gen
