// Tests for src/gen: Kronecker generator properties, label scrambling
// bijection, BTER and PPL generators, degree analysis, and the factory.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "gen/bter.hpp"
#include "gen/degree.hpp"
#include "gen/generator.hpp"
#include "gen/kronecker.hpp"
#include "gen/powerlaw.hpp"
#include "gen/ppl.hpp"
#include "rand/rng.hpp"
#include "util/error.hpp"

namespace prpb::gen {
namespace {

// ---- BitPermutation ---------------------------------------------------------

class BitPermutationTest : public ::testing::TestWithParam<int> {};

TEST_P(BitPermutationTest, IsBijectionOnFullDomain) {
  const int bits = GetParam();
  const BitPermutation perm(bits, 12345);
  const std::uint64_t domain = 1ULL << bits;
  std::vector<bool> seen(domain, false);
  for (std::uint64_t x = 0; x < domain; ++x) {
    const std::uint64_t y = perm.forward(x);
    ASSERT_LT(y, domain);
    ASSERT_FALSE(seen[y]) << "collision at x=" << x;
    seen[y] = true;
  }
}

TEST_P(BitPermutationTest, InverseRecoversInput) {
  const int bits = GetParam();
  const BitPermutation perm(bits, 777);
  const std::uint64_t domain = 1ULL << bits;
  const std::uint64_t step = std::max<std::uint64_t>(1, domain / 256);
  for (std::uint64_t x = 0; x < domain; x += step) {
    EXPECT_EQ(perm.inverse(perm.forward(x)), x);
    EXPECT_EQ(perm.forward(perm.inverse(x)), x);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitPermutationTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 16));

TEST(BitPermutationTest, DifferentSeedsGiveDifferentPermutations) {
  const BitPermutation a(12, 1);
  const BitPermutation b(12, 2);
  int equal = 0;
  for (std::uint64_t x = 0; x < 4096; ++x) {
    if (a.forward(x) == b.forward(x)) ++equal;
  }
  EXPECT_LT(equal, 64);  // a few fixed coincidences are fine
}

TEST(BitPermutationTest, LargeWidthInverseRoundTrip) {
  const BitPermutation perm(40, 9);
  for (const std::uint64_t x :
       {0ULL, 1ULL, 12345678901ULL, (1ULL << 40) - 1}) {
    EXPECT_EQ(perm.inverse(perm.forward(x)), x);
  }
}

// ---- Kronecker --------------------------------------------------------------

KroneckerParams small_params(int scale = 10) {
  KroneckerParams params;
  params.scale = scale;
  params.edge_factor = 16;
  params.seed = 20160205;
  return params;
}

TEST(KroneckerTest, CountsMatchFormulae) {
  const KroneckerGenerator generator(small_params(12));
  EXPECT_EQ(generator.num_vertices(), 1ULL << 12);
  EXPECT_EQ(generator.num_edges(), 16ULL << 12);
}

TEST(KroneckerTest, EndpointsWithinRange) {
  const KroneckerGenerator generator(small_params());
  const EdgeList edges = generator.generate_all();
  for (const auto& edge : edges) {
    EXPECT_LT(edge.u, generator.num_vertices());
    EXPECT_LT(edge.v, generator.num_vertices());
  }
}

TEST(KroneckerTest, Deterministic) {
  const KroneckerGenerator a(small_params());
  const KroneckerGenerator b(small_params());
  EXPECT_EQ(a.generate_all(), b.generate_all());
}

TEST(KroneckerTest, RangeDecompositionMatchesFullGeneration) {
  // The Graph500 "no communication" property: shard-wise generation equals
  // monolithic generation.
  const KroneckerGenerator generator(small_params());
  const EdgeList whole = generator.generate_all();
  EdgeList pieces;
  const std::uint64_t m = generator.num_edges();
  for (std::uint64_t lo = 0; lo < m; lo += 1000) {
    generator.generate_range(lo, std::min(m, lo + 1000), pieces);
  }
  EXPECT_EQ(whole, pieces);
}

TEST(KroneckerTest, SeedChangesGraph) {
  KroneckerParams p1 = small_params();
  KroneckerParams p2 = small_params();
  p2.seed = 999;
  EXPECT_NE(KroneckerGenerator(p1).generate_all(),
            KroneckerGenerator(p2).generate_all());
}

TEST(KroneckerTest, EdgeAtMatchesGenerateRange) {
  const KroneckerGenerator generator(small_params());
  EdgeList ranged;
  generator.generate_range(100, 110, ranged);
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(generator.edge_at(100 + i), ranged[i]);
  }
}

TEST(KroneckerTest, GenerateRangeOutOfBoundsThrows) {
  const KroneckerGenerator generator(small_params());
  EdgeList out;
  EXPECT_THROW(
      generator.generate_range(0, generator.num_edges() + 1, out),
      util::ConfigError);
  EXPECT_THROW(generator.generate_range(5, 4, out), util::ConfigError);
}

TEST(KroneckerTest, SkewTowardLowIdsWithoutScramble) {
  // The R-MAT initiator (A=0.57) concentrates edges in low-numbered rows;
  // without scrambling, vertex 0's out-degree dwarfs the median.
  KroneckerParams params = small_params();
  params.scramble_ids = false;
  const KroneckerGenerator generator(params);
  const auto stats =
      degree_stats(generator.generate_all(), generator.num_vertices());
  EXPECT_GT(stats.out_degree[0], 100u);
}

TEST(KroneckerTest, ApproximatePowerLawDegrees) {
  const KroneckerGenerator generator(small_params(12));
  const auto stats =
      degree_stats(generator.generate_all(), generator.num_vertices());
  const double slope = log_log_slope(degree_histogram(stats.in_degree));
  EXPECT_LT(slope, -0.5) << "expected a heavy-tailed (power-law-ish) "
                            "degree distribution";
}

TEST(KroneckerTest, ScramblePreservesEdgeStructureUpToRelabeling) {
  KroneckerParams plain = small_params();
  plain.scramble_ids = false;
  KroneckerParams scrambled = small_params();
  scrambled.scramble_ids = true;
  const EdgeList a = KroneckerGenerator(plain).generate_all();
  const EdgeList b = KroneckerGenerator(scrambled).generate_all();
  const BitPermutation perm(plain.scale, plain.seed);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(perm.forward(a[i].u), b[i].u);
    EXPECT_EQ(perm.forward(a[i].v), b[i].v);
  }
}

TEST(KroneckerTest, InvalidParamsThrow) {
  KroneckerParams params = small_params();
  params.scale = 0;
  EXPECT_THROW(KroneckerGenerator{params}, util::ConfigError);
  params = small_params();
  params.edge_factor = 0;
  EXPECT_THROW(KroneckerGenerator{params}, util::ConfigError);
  params = small_params();
  params.a = 0.9;
  params.b = 0.2;  // a + b + c > 1
  EXPECT_THROW(KroneckerGenerator{params}, util::ConfigError);
}

// The generator as it was written before its stream keys and integer
// thresholds were hoisted: two-round CounterRng::uniform draws and double
// threshold tests. It is the oracle the keyed generator must reproduce.
EdgeList float_reference_edges(const KroneckerParams& p) {
  const rnd::CounterRng rng(p.seed);
  const BitPermutation perm(p.scale, p.seed);
  const double ab = p.a + p.b;
  const double a_norm = p.a / (p.a + p.b);
  const double c_norm = p.c / (p.c + p.d());
  const std::uint64_t m = static_cast<std::uint64_t>(p.edge_factor)
                          << p.scale;
  EdgeList edges;
  edges.reserve(m);
  for (std::uint64_t i = 0; i < m; ++i) {
    std::uint64_t u = 0;
    std::uint64_t v = 0;
    for (int level = 0; level < p.scale; ++level) {
      const auto stream = 2 * static_cast<std::uint64_t>(level);
      const bool u_bit = rng.uniform(stream, i) > ab;
      const bool v_bit = rng.uniform(stream + 1, i) > (u_bit ? c_norm : a_norm);
      u |= static_cast<std::uint64_t>(u_bit) << level;
      v |= static_cast<std::uint64_t>(v_bit) << level;
    }
    if (p.scramble_ids) {
      u = perm.forward(u);
      v = perm.forward(v);
    }
    edges.push_back(Edge{u, v});
  }
  return edges;
}

// Top 53 bits of the draw on `stream` for edge `i`: what the thresholds see.
std::uint64_t draw53(const KroneckerParams& p, std::uint64_t stream,
                     std::uint64_t i) {
  return rnd::CounterRng(p.seed).at(stream, i) >> 11;
}

// Lowest edge index whose level-0 draws satisfy `pred(r1, r2)`.
template <typename Pred>
std::uint64_t find_edge(const KroneckerParams& p, Pred pred) {
  std::uint64_t i = 0;
  while (!pred(draw53(p, 0, i), draw53(p, 1, i))) ++i;
  return i;
}

constexpr std::uint64_t kHalfDraw = 1ULL << 52;  // 0.5 as a 53-bit draw

// Initiators whose threshold t lands exactly on a draw x the generator
// compares with it: t = x * 2^-53 (the draw is not above t) and
// t = (x - 1) * 2^-53 (it is above by one unit). A generator whose integer
// threshold is one off in either direction flips that edge. Every value
// below is exact in a double, so the float oracle sees the same t.
std::vector<KroneckerParams> threshold_boundary_params(KroneckerParams base) {
  std::vector<KroneckerParams> out;
  // A + B on edge 0's level-0 r1: a = b = k * 2^-54, c = 0.
  const std::uint64_t x_ab = draw53(base, 0, 0);
  // A/(A+B) with C = D = 0, so A + B = 1 and a_norm = a; every r2 meets it.
  const std::uint64_t x_a = draw53(
      base, 1, find_edge(base, [](auto, auto r2) { return r2 > kHalfDraw; }));
  // C/(C+D) with A + B = 0.5 and C + D = 0.5, so c_norm = 2c, on an edge
  // whose r1 sets the row bit.
  const std::uint64_t x_c = draw53(
      base, 1, find_edge(base, [](auto r1, auto r2) {
        return r1 > kHalfDraw && r2 > kHalfDraw;
      }));
  for (const std::uint64_t offset : {0, 1}) {
    KroneckerParams p = base;
    p.a = std::ldexp(static_cast<double>(x_ab - offset), -54);
    p.b = p.a;
    p.c = 0;
    out.push_back(p);
    p = base;
    p.a = std::ldexp(static_cast<double>(x_a - offset), -53);
    p.b = 1.0 - p.a;
    p.c = 0;
    out.push_back(p);
    p = base;
    p.a = 0.375;
    p.b = 0.125;
    p.c = std::ldexp(static_cast<double>(x_c - offset), -54);
    out.push_back(p);
  }
  return out;
}

TEST(KroneckerTest, KeyedDrawsMatchFloatReference) {
  for (const int scale : {10, 12}) {
    const KroneckerParams defaults = small_params(scale);
    std::vector<KroneckerParams> cases = {defaults};
    KroneckerParams p = defaults;
    p.seed = 7;
    cases.push_back(p);
    p = defaults;
    p.scramble_ids = false;
    cases.push_back(p);
    p = defaults;
    p.b = 0;  // a_norm = 1: no column bit without the row bit
    cases.push_back(p);
    p = defaults;
    p.a = 0.6;
    p.b = 0.4;
    p.c = 0;  // c = d = 0: c_norm is NaN
    cases.push_back(p);
    p = defaults;
    p.a = 0.5;
    p.b = 0.25;
    p.c = 0.25;  // d = 0: c_norm = 1
    cases.push_back(p);
    for (const KroneckerParams& boundary :
         threshold_boundary_params(defaults)) {
      cases.push_back(boundary);
    }
    for (const KroneckerParams& params : cases) {
      const EdgeList keyed = KroneckerGenerator(params).generate_all();
      const EdgeList reference = float_reference_edges(params);
      ASSERT_EQ(keyed.size(), reference.size());
      const auto first_diff = static_cast<std::size_t>(
          std::mismatch(keyed.begin(), keyed.end(), reference.begin()).first -
          keyed.begin());
      EXPECT_EQ(first_diff, keyed.size())
          << "first differing edge at scale " << scale << ", seed "
          << params.seed << ", a " << params.a << ", b " << params.b
          << ", c " << params.c << ", scramble " << params.scramble_ids;
    }
  }
}

// ---- power-law machinery ----------------------------------------------------

TEST(PowerLawTest, DegreesCoverAllVerticesAtLeastOne) {
  const auto degrees = power_law_degrees(1000, 1.3, 100, 16000);
  EXPECT_EQ(degrees.size(), 1000u);
  for (const auto d : degrees) EXPECT_GE(d, 1u);
}

TEST(PowerLawTest, DegreesDescending) {
  const auto degrees = power_law_degrees(1000, 1.3, 100, 16000);
  for (std::size_t i = 1; i < degrees.size(); ++i) {
    EXPECT_LE(degrees[i], degrees[i - 1]);
  }
}

TEST(PowerLawTest, TotalNearTarget) {
  const std::uint64_t target = 16000;
  const auto degrees = power_law_degrees(1000, 1.3, 100, target);
  std::uint64_t total = 0;
  for (const auto d : degrees) total += d;
  EXPECT_NEAR(static_cast<double>(total), static_cast<double>(target),
              0.2 * static_cast<double>(target));
}

TEST(PowerLawTest, HistogramSlopeNegative) {
  const auto degrees = power_law_degrees(4096, 1.5, 512, 65536);
  EXPECT_LT(log_log_slope(degree_histogram(degrees)), -0.5);
}

TEST(PowerLawTest, InvalidArgsThrow) {
  EXPECT_THROW(power_law_degrees(0, 1.3, 10, 100), util::ConfigError);
  EXPECT_THROW(power_law_degrees(10, 0.0, 10, 100), util::ConfigError);
  EXPECT_THROW(power_law_degrees(10, 1.3, 0, 100), util::ConfigError);
}

TEST(DiscreteSamplerTest, RespectsWeights) {
  const DiscreteSampler sampler({1.0, 0.0, 3.0});
  // weight 0 is never drawn; index 2 is drawn 3x as often as index 0.
  int c0 = 0, c2 = 0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    const double unit = (i + 0.5) / n;
    const auto idx = sampler.sample(unit);
    ASSERT_NE(idx, 1u);
    if (idx == 0) ++c0;
    if (idx == 2) ++c2;
  }
  EXPECT_NEAR(static_cast<double>(c2) / c0, 3.0, 0.1);
}

TEST(DiscreteSamplerTest, EdgesOfUnitInterval) {
  const DiscreteSampler sampler({2.0, 2.0});
  EXPECT_EQ(sampler.sample(0.0), 0u);
  EXPECT_EQ(sampler.sample(0.9999999), 1u);
}

TEST(DiscreteSamplerTest, InvalidWeightsThrow) {
  EXPECT_THROW(DiscreteSampler({}), util::ConfigError);
  EXPECT_THROW(DiscreteSampler({0.0, 0.0}), util::ConfigError);
  EXPECT_THROW(DiscreteSampler({1.0, -1.0}), util::ConfigError);
}

// ---- PPL --------------------------------------------------------------------

TEST(PplTest, EdgeCountNearTarget) {
  PplParams params;
  params.scale = 10;
  const PplGenerator generator(params);
  const double target = 16.0 * 1024;
  EXPECT_NEAR(static_cast<double>(generator.num_edges()), target,
              0.2 * target);
}

TEST(PplTest, OutDegreesMatchDeclaredSequence) {
  PplParams params;
  params.scale = 9;
  const PplGenerator generator(params);
  const auto stats =
      degree_stats(generator.generate_all(), generator.num_vertices());
  // PPL's defining property: realized out-degrees equal the sequence.
  const auto& declared = generator.out_degrees();
  for (std::size_t v = 0; v < declared.size(); ++v) {
    EXPECT_EQ(stats.out_degree[v], declared[v]) << "vertex " << v;
  }
}

TEST(PplTest, Deterministic) {
  PplParams params;
  params.scale = 8;
  EXPECT_EQ(PplGenerator(params).generate_all(),
            PplGenerator(params).generate_all());
}

TEST(PplTest, RangeDecompositionMatches) {
  PplParams params;
  params.scale = 8;
  const PplGenerator generator(params);
  const EdgeList whole = generator.generate_all();
  EdgeList pieces;
  for (std::uint64_t lo = 0; lo < generator.num_edges(); lo += 333) {
    generator.generate_range(
        lo, std::min(generator.num_edges(), lo + 333), pieces);
  }
  EXPECT_EQ(whole, pieces);
}

TEST(PplTest, EndpointsInRange) {
  PplParams params;
  params.scale = 8;
  const PplGenerator generator(params);
  for (const auto& edge : generator.generate_all()) {
    EXPECT_LT(edge.u, generator.num_vertices());
    EXPECT_LT(edge.v, generator.num_vertices());
  }
}

// ---- BTER -------------------------------------------------------------------

TEST(BterTest, EdgeCountMatchesTarget) {
  BterParams params;
  params.scale = 10;
  const BterGenerator generator(params);
  EXPECT_EQ(generator.num_edges(), 16ULL << 10);
}

TEST(BterTest, Deterministic) {
  BterParams params;
  params.scale = 8;
  EXPECT_EQ(BterGenerator(params).generate_all(),
            BterGenerator(params).generate_all());
}

TEST(BterTest, EndpointsInRange) {
  BterParams params;
  params.scale = 9;
  const BterGenerator generator(params);
  for (const auto& edge : generator.generate_all()) {
    EXPECT_LT(edge.u, generator.num_vertices());
    EXPECT_LT(edge.v, generator.num_vertices());
  }
}

TEST(BterTest, HasBothPhases) {
  BterParams params;
  params.scale = 10;
  const BterGenerator generator(params);
  EXPECT_GT(generator.phase1_edges(), 0u);
  EXPECT_LT(generator.phase1_edges(), generator.num_edges());
}

TEST(BterTest, Phase1EdgesHaveNoSelfLoops) {
  BterParams params;
  params.scale = 9;
  const BterGenerator generator(params);
  EdgeList phase1;
  generator.generate_range(0, generator.phase1_edges(), phase1);
  for (const auto& edge : phase1) EXPECT_NE(edge.u, edge.v);
}

TEST(BterTest, HeavyTailedDegrees) {
  BterParams params;
  params.scale = 11;
  const BterGenerator generator(params);
  const auto stats =
      degree_stats(generator.generate_all(), generator.num_vertices());
  EXPECT_LT(log_log_slope(degree_histogram(stats.out_degree)), -0.4);
}

TEST(BterTest, CommunityFractionZeroMeansNoPhase1) {
  BterParams params;
  params.scale = 8;
  params.community_fraction = 0.0;
  const BterGenerator generator(params);
  EXPECT_EQ(generator.phase1_edges(), 0u);
}

TEST(BterTest, RangeDecompositionMatches) {
  BterParams params;
  params.scale = 8;
  const BterGenerator generator(params);
  const EdgeList whole = generator.generate_all();
  EdgeList pieces;
  for (std::uint64_t lo = 0; lo < generator.num_edges(); lo += 500) {
    generator.generate_range(
        lo, std::min(generator.num_edges(), lo + 500), pieces);
  }
  EXPECT_EQ(whole, pieces);
}

// ---- degree stats -----------------------------------------------------------

TEST(DegreeTest, CountsSimpleGraph) {
  const EdgeList edges = {{0, 1}, {0, 2}, {1, 2}, {2, 2}};
  const auto stats = degree_stats(edges, 4);
  EXPECT_EQ(stats.out_degree[0], 2u);
  EXPECT_EQ(stats.in_degree[2], 3u);
  EXPECT_EQ(stats.self_loops, 1u);
  EXPECT_EQ(stats.isolated_vertices, 1u);  // vertex 3
  EXPECT_EQ(stats.max_in, 3u);
  EXPECT_EQ(stats.max_out, 2u);
}

TEST(DegreeTest, OutOfRangeEdgeThrows) {
  EXPECT_THROW(degree_stats({{0, 5}}, 4), util::InvariantError);
}

TEST(DegreeTest, HistogramExcludesZeroDegree) {
  const auto hist = degree_histogram({0, 0, 1, 2, 2});
  EXPECT_EQ(hist.size(), 2u);
  EXPECT_EQ(hist.at(1), 1u);
  EXPECT_EQ(hist.at(2), 2u);
}

TEST(DegreeTest, SlopeOfFlatHistogramIsZeroish) {
  std::map<std::uint64_t, std::uint64_t> hist{{1, 5}, {2, 5}, {4, 5}};
  EXPECT_NEAR(log_log_slope(hist), 0.0, 1e-9);
}

TEST(DegreeTest, SlopeDegenerateCases) {
  EXPECT_DOUBLE_EQ(log_log_slope({}), 0.0);
  EXPECT_DOUBLE_EQ(log_log_slope({{3, 10}}), 0.0);
}

// ---- factory ----------------------------------------------------------------

TEST(FactoryTest, BuildsAllKnownGenerators) {
  for (const char* name : {"kronecker", "bter", "ppl"}) {
    const auto generator = make_generator(name, 8, 16, 1);
    EXPECT_EQ(generator->name(), name);
    EXPECT_EQ(generator->num_vertices(), 256u);
    EXPECT_GT(generator->num_edges(), 0u);
  }
}

TEST(FactoryTest, UnknownNameThrows) {
  EXPECT_THROW(make_generator("nope", 8, 16, 1), util::ConfigError);
}

}  // namespace
}  // namespace prpb::gen
