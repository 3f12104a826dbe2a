#include "sort/edge_sort.hpp"

#include <algorithm>
#include <array>
#include <vector>

namespace prpb::sort {

namespace {

using Histogram = std::array<std::size_t, 256>;

/// Runs body(t) for every chunk t in [0, chunks): inline for one chunk,
/// otherwise one pool task per chunk (chunks never exceeds the pool size).
/// Blocks until all have finished.
template <typename Body>
void for_each_chunk(util::ThreadPool* pool, std::size_t chunks,
                    const Body& body) {
  if (chunks == 1) {
    body(std::size_t{0});
    return;
  }
  util::parallel_for(*pool, 0, chunks, [&body](std::uint64_t t) {
    body(static_cast<std::size_t>(t));
  });
}

/// Sorts with a fixed set of contiguous input chunks, one per task.
class RadixSorter {
 public:
  RadixSorter(util::ThreadPool* pool, std::size_t total, std::size_t chunks)
      : pool_(pool), bounds_(chunks + 1), hist_(chunks) {
    for (std::size_t i = 0; i <= chunks; ++i) {
      bounds_[i] = total * i / chunks;
    }
  }

  /// Runs the passes for every varying byte of the selected field,
  /// ping-ponging between *src and *dst (swapped after each pass).
  void sort_field(gen::EdgeList*& src, gen::EdgeList*& dst, bool use_v) {
    const unsigned mask = varying_bytes(*src, use_v);
    for (int byte = 0; byte < 8; ++byte) {
      if (!(mask & (1u << byte))) continue;  // constant byte: skip the pass
      pass(*src, *dst, 8 * byte, use_v);
      std::swap(src, dst);
    }
  }

 private:
  [[nodiscard]] std::size_t chunks() const { return hist_.size(); }

  /// Bitmask of byte positions (0..7) that vary across the selected field;
  /// each chunk folds its own OR/AND.
  unsigned varying_bytes(const gen::EdgeList& edges, bool use_v) {
    std::vector<std::uint64_t> ors(chunks(), 0);
    std::vector<std::uint64_t> ands(chunks(), ~0ULL);
    for_each_chunk(pool_, chunks(), [&](std::size_t t) {
      std::uint64_t all_or = 0;
      std::uint64_t all_and = ~0ULL;
      for (std::size_t i = bounds_[t]; i < bounds_[t + 1]; ++i) {
        const std::uint64_t field = use_v ? edges[i].v : edges[i].u;
        all_or |= field;
        all_and &= field;
      }
      ors[t] = all_or;
      ands[t] = all_and;
    });
    std::uint64_t all_or = 0;
    std::uint64_t all_and = ~0ULL;
    for (std::size_t t = 0; t < chunks(); ++t) {
      all_or |= ors[t];
      all_and &= ands[t];
    }
    const std::uint64_t varying = all_or ^ all_and;
    unsigned mask = 0;
    for (int byte = 0; byte < 8; ++byte) {
      if ((varying >> (8 * byte)) & 0xff) mask |= 1u << byte;
    }
    return mask;
  }

  /// One stable counting pass over byte `shift/8` of the selected field:
  /// per-chunk histogram, serial bucket-major offset scan, per-chunk
  /// scatter into disjoint destination ranges. src -> dst.
  void pass(const gen::EdgeList& src, gen::EdgeList& dst, int shift,
            bool use_v) {
    for_each_chunk(pool_, chunks(), [&](std::size_t t) {
      Histogram& hist = hist_[t];
      hist.fill(0);
      for (std::size_t i = bounds_[t]; i < bounds_[t + 1]; ++i) {
        const std::uint64_t field = use_v ? src[i].v : src[i].u;
        ++hist[(field >> shift) & 0xff];
      }
    });
    // Exclusive scan, bucket-major then chunk order: chunk t's bucket-b run
    // lands after every lower bucket and after bucket b of chunks < t,
    // which is exactly the stable ordering. hist_ becomes the cursor table.
    std::size_t acc = 0;
    for (std::size_t b = 0; b < 256; ++b) {
      for (Histogram& hist : hist_) {
        const std::size_t count = hist[b];
        hist[b] = acc;
        acc += count;
      }
    }
    for_each_chunk(pool_, chunks(), [&](std::size_t t) {
      Histogram& cursor = hist_[t];
      for (std::size_t i = bounds_[t]; i < bounds_[t + 1]; ++i) {
        const std::uint64_t field = use_v ? src[i].v : src[i].u;
        dst[cursor[(field >> shift) & 0xff]++] = src[i];
      }
    });
  }

  util::ThreadPool* pool_;
  std::vector<std::size_t> bounds_;
  std::vector<Histogram> hist_;
};

}  // namespace

void radix_sort(gen::EdgeList& edges, SortKey key, util::ThreadPool* pool) {
  if (edges.size() < 2) return;
  // One chunk per pool thread; small inputs collapse to fewer chunks so
  // the per-pass bookkeeping never dominates.
  const std::size_t threads = pool != nullptr ? pool->size() : 1;
  const std::size_t chunks = std::max<std::size_t>(
      1, std::min(edges.size() / 4096 + 1, threads));
  RadixSorter sorter(pool, edges.size(), chunks);
  gen::EdgeList scratch(edges.size());
  gen::EdgeList* src = &edges;
  gen::EdgeList* dst = &scratch;
  // LSD over the composite key: minor field (v) first when requested, then
  // the major field (u); per-pass stability makes the composite ordering
  // correct.
  if (key == SortKey::kStartEnd) sorter.sort_field(src, dst, /*use_v=*/true);
  sorter.sort_field(src, dst, /*use_v=*/false);
  if (src != &edges) edges.swap(scratch);
}

bool is_sorted_edges(const gen::EdgeList& edges, SortKey key) {
  return std::is_sorted(edges.begin(), edges.end(),
                        [key](const gen::Edge& a, const gen::Edge& b) {
                          if (key == SortKey::kStart) return a.u < b.u;
                          return a.u != b.u ? a.u < b.u : a.v < b.v;
                        });
}

}  // namespace prpb::sort
