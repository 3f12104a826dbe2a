#include "sort/edge_sort.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <utility>
#include <vector>

namespace prpb::sort {

namespace {

/// Widest digit of one pass: 2^11 cursors per chunk stay cache-resident.
constexpr unsigned kMaxDigitBits = 11;

/// The bits [lo, lo + bits) of one field that vary across the input. The
/// bits outside that range are equal in every edge; `fixed` holds them.
struct FieldBits {
  unsigned lo = 0;
  unsigned bits = 0;
  std::uint64_t mask = 0;  ///< the low `bits` bits
  std::uint64_t fixed;     ///< AND over the field

  FieldBits(std::uint64_t all_or, std::uint64_t all_and) : fixed(all_and) {
    const std::uint64_t varying = all_or ^ all_and;
    if (varying == 0) return;
    lo = static_cast<unsigned>(std::countr_zero(varying));
    bits = 64 - lo - static_cast<unsigned>(std::countl_zero(varying));
    mask = ~0ULL >> (64 - bits);
  }
  std::uint64_t pack(std::uint64_t x) const { return (x >> lo) & mask; }
  std::uint64_t unpack(std::uint64_t x) const {
    return ((x & mask) << lo) | fixed;
  }
};

/// Contiguous input chunks, one per pool task.
struct Chunks {
  util::ThreadPool* pool;
  std::vector<std::size_t> bounds;  ///< chunk t is [bounds[t], bounds[t+1])

  [[nodiscard]] std::size_t count() const { return bounds.size() - 1; }

  /// Runs body(t, begin, end) for every chunk t: inline for one chunk,
  /// otherwise one pool task per chunk (never more chunks than threads).
  /// Blocks until all have finished.
  template <typename Body>
  void run(const Body& body) const {
    if (count() == 1) return body(std::size_t{0}, bounds[0], bounds[1]);
    util::parallel_for(*pool, 0, count(), [&](std::uint64_t t) {
      body(static_cast<std::size_t>(t), bounds[t], bounds[t + 1]);
    });
  }
};

/// The varying bits of u and of v; each chunk folds its own OR/AND.
std::pair<FieldBits, FieldBits> varying_bits(const Chunks& chunks,
                                             const gen::EdgeList& edges) {
  using Fold = std::array<std::uint64_t, 4>;  // OR u, OR v, AND u, AND v
  std::vector<Fold> folds(chunks.count(), Fold{0, 0, ~0ULL, ~0ULL});
  chunks.run([&](std::size_t t, std::size_t begin, std::size_t end) {
    Fold f = folds[t];
    for (std::size_t i = begin; i < end; ++i) {
      const gen::Edge& e = edges[i];
      f = {f[0] | e.u, f[1] | e.v, f[2] & e.u, f[3] & e.v};
    }
    folds[t] = f;
  });
  Fold all = folds[0];
  for (const Fold& f : folds) {
    all = {all[0] | f[0], all[1] | f[1], all[2] & f[2], all[3] & f[3]};
  }
  return {{all[0], all[2]}, {all[1], all[3]}};
}

/// The 8-byte key slots laid over the edge array's own bytes, read and
/// written through memcpy: 16 B per edge holds exactly two slots.
std::uint64_t load_slot(const char* slots, std::size_t i) {
  std::uint64_t key;
  std::memcpy(&key, slots + i * sizeof(key), sizeof(key));
  return key;
}

void store_slot(char* slots, std::size_t i, std::uint64_t key) {
  std::memcpy(slots + i * sizeof(key), &key, sizeof(key));
}

/// One stable counting pass over key bits [shift, shift + digit_bits) from
/// the slots at `src` to those at `dst`: per-chunk histogram, serial
/// bucket-major offset scan, per-chunk scatter into disjoint destination
/// ranges.
void pass(const Chunks& chunks, const char* src, char* dst, unsigned shift,
          unsigned digit_bits) {
  const std::size_t radix = std::size_t{1} << digit_bits;
  // Chunk-major counts, then the scatter cursors.
  std::vector<std::size_t> hist(chunks.count() * radix, 0);
  chunks.run([&](std::size_t t, std::size_t begin, std::size_t end) {
    std::size_t* counts = hist.data() + t * radix;
    for (std::size_t i = begin; i < end; ++i) {
      ++counts[(load_slot(src, i) >> shift) & (radix - 1)];
    }
  });
  // Exclusive scan, bucket-major then chunk order: chunk t's bucket-b run
  // lands after every lower bucket and after bucket b of chunks < t,
  // which is exactly the stable ordering.
  std::size_t acc = 0;
  for (std::size_t b = 0; b < radix; ++b) {
    for (std::size_t t = 0; t < chunks.count(); ++t) {
      acc += std::exchange(hist[t * radix + b], acc);
    }
  }
  chunks.run([&](std::size_t t, std::size_t begin, std::size_t end) {
    std::size_t* cursor = hist.data() + t * radix;
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint64_t key = load_slot(src, i);
      store_slot(dst, cursor[(key >> shift) & (radix - 1)]++, key);
    }
  });
}

}  // namespace

bool edge_less(const gen::Edge& a, const gen::Edge& b, SortKey key) {
  if (key == SortKey::kStart) return a.u < b.u;
  return a.u != b.u ? a.u < b.u : a.v < b.v;
}

void radix_sort(gen::EdgeList& edges, SortKey key, util::ThreadPool* pool) {
  if (edges.size() < 2) return;
  // One chunk per pool thread; small inputs collapse to fewer chunks so
  // the per-pass bookkeeping never dominates.
  const std::size_t threads = pool != nullptr ? pool->size() : 1;
  const std::size_t count = std::max<std::size_t>(
      1, std::min(edges.size() / 4096 + 1, threads));
  Chunks chunks{pool, std::vector<std::size_t>(count + 1)};
  for (std::size_t t = 0; t <= count; ++t) {
    chunks.bounds[t] = edges.size() * t / count;
  }
  const auto fields = varying_bits(chunks, edges);
  const FieldBits& u = fields.first;
  const FieldBits& v = fields.second;
  if (u.bits + v.bits > 64) {  // only ids of 2^32 and up get here
    std::stable_sort(edges.begin(), edges.end(),
                     [key](const gen::Edge& a, const gen::Edge& b) {
                       return edge_less(a, b, key);
                     });
    return;
  }
  // The key is (u' << bits(v')) | v'. kStart sorts the u' bits alone; v'
  // rides below them, and LSD stability keeps equal-u edges in input order.
  const unsigned lo = key == SortKey::kStart ? v.bits : 0;
  const unsigned width = u.bits + v.bits - lo;
  if (width == 0) return;
  // bits(v') is 64 only when u is constant (u' == 0), so shifting by
  // bits(v') mod 64 gives the same key without a shift by 64.
  const unsigned v_shift = v.bits & 63;
  // The keys live in the first half of the edges' storage and the LSD
  // scratch in the second. Packing runs forward: slot i overlaps edge i/2,
  // which is already read.
  static_assert(sizeof(gen::Edge) == 2 * sizeof(std::uint64_t));
  const std::size_t n = edges.size();
  char* const slots = reinterpret_cast<char*>(edges.data());
  char* const scratch = slots + n * sizeof(std::uint64_t);
  for (std::size_t i = 0; i < n; ++i) {
    store_slot(slots, i, (u.pack(edges[i].u) << v_shift) | v.pack(edges[i].v));
  }
  // LSD in balanced digits, ping-ponging between the halves.
  const unsigned passes = (width + kMaxDigitBits - 1) / kMaxDigitBits;
  const unsigned digit_bits = (width + passes - 1) / passes;
  char* src = slots;
  char* dst = scratch;
  for (unsigned p = 0; p < passes; ++p) {
    pass(chunks, src, dst, lo + p * digit_bits, digit_bits);
    std::swap(src, dst);
  }
  // Edge i overlaps slots 2i and 2i + 1 of the first half, or slots
  // 2i - n and 2i - n + 1 of the second: unpack backward from the first
  // half and forward from the second, so no slot is overwritten unread.
  const auto unpack = [&](std::size_t i) {
    const std::uint64_t k = load_slot(src, i);
    edges[i] = {u.unpack(k >> v_shift), v.unpack(k)};
  };
  if (src == slots) {
    for (std::size_t i = n; i-- > 0;) unpack(i);
  } else {
    for (std::size_t i = 0; i < n; ++i) unpack(i);
  }
}

bool is_sorted_edges(const gen::EdgeList& edges, SortKey key) {
  return std::is_sorted(edges.begin(), edges.end(),
                        [key](const gen::Edge& a, const gen::Edge& b) {
                          return edge_less(a, b, key);
                        });
}

}  // namespace prpb::sort
