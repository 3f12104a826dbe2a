// The reference work of pipeline_rel: a fixed in-memory computation of the
// same kinds as the pipeline's kernels (R-MAT edge generation, LSD radix
// sort, CSR build, PageRank-style sparse products) at the workload's scale.
// It is timed right after every K1→K3 run, and pipeline_rel is the ratio of
// the two times: a change in the host's speed moves both and cancels, a
// change in the repository's code moves only K1→K3. It calls no repository
// code, so it stays the same when the repository changes.
#include <algorithm>
#include <cstdint>
#include <vector>

#include "pipeline.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Keeps the result live so the compiler cannot drop the work.
volatile double reference_sink = 0.0;

}  // namespace

double time_reference_work(int scale, std::uint64_t seed) {
  prpb::util::Stopwatch watch;
  const std::uint64_t n = 1ULL << scale;
  const std::size_t m = 16 * n;

  // R-MAT edges with the Graph500 quadrant shares 0.57/0.19/0.19/0.05,
  // one byte of randomness per level; key = u << scale | v.
  std::vector<std::uint64_t> keys(m);
  std::uint64_t state = seed;
  for (std::uint64_t& key : keys) {
    std::uint64_t u = 0;
    std::uint64_t v = 0;
    std::uint64_t bits = 0;
    int left = 0;
    for (int level = 0; level < scale; ++level) {
      if (left == 0) {
        bits = splitmix64(state);
        left = 8;
      }
      const unsigned r = bits & 0xff;
      bits >>= 8;
      --left;
      const unsigned quadrant = r < 146 ? 0 : r < 195 ? 1 : r < 244 ? 2 : 3;
      u = (u << 1) | (quadrant >> 1);
      v = (v << 1) | (quadrant & 1);
    }
    key = (u << scale) | v;
  }

  // LSD radix sort on 12-bit digits of the 2·scale key bits.
  constexpr int kDigitBits = 12;
  constexpr std::uint64_t kDigitMask = (1u << kDigitBits) - 1;
  {
    std::vector<std::uint64_t> sorted(m);
    for (int shift = 0; shift < 2 * scale; shift += kDigitBits) {
      std::vector<std::size_t> start(kDigitMask + 2, 0);
      for (const std::uint64_t key : keys) ++start[((key >> shift) & kDigitMask) + 1];
      for (std::size_t d = 1; d < start.size(); ++d) start[d] += start[d - 1];
      for (const std::uint64_t key : keys) {
        sorted[start[(key >> shift) & kDigitMask]++] = key;
      }
      keys.swap(sorted);
    }
  }

  // CSR over the sorted keys.
  std::vector<std::uint32_t> row_start(n + 1, 0);
  std::vector<std::uint32_t> cols(m);
  for (std::size_t i = 0; i < m; ++i) {
    ++row_start[(keys[i] >> scale) + 1];
    cols[i] = static_cast<std::uint32_t>(keys[i] & (n - 1));
  }
  std::vector<std::uint64_t>().swap(keys);
  for (std::uint64_t r = 0; r < n; ++r) row_start[r + 1] += row_start[r];

  // 20 PageRank-style iterations: scatter each row's share to its columns.
  std::vector<double> rank(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n);
  for (int iteration = 0; iteration < 20; ++iteration) {
    std::fill(next.begin(), next.end(), 0.0);
    for (std::uint64_t r = 0; r < n; ++r) {
      const std::uint32_t begin = row_start[r];
      const std::uint32_t end = row_start[r + 1];
      if (begin == end) continue;
      const double share = rank[r] / static_cast<double>(end - begin);
      for (std::uint32_t i = begin; i < end; ++i) next[cols[i]] += share;
    }
    for (std::uint64_t r = 0; r < n; ++r) {
      rank[r] = 0.15 / static_cast<double>(n) + 0.85 * next[r];
    }
  }
  double sum = 0.0;
  for (const double value : rank) sum += value;
  reference_sink = sum;
  return watch.seconds();
}

}  // namespace perfbench
