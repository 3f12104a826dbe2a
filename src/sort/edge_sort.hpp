// Kernel 1's in-memory sort.
//
// The paper: "The type of sorting algorithm may depend upon the scale
// parameter... in the case where u and v fit into the RAM of the system, an
// in-memory algorithm could be used. Likewise, if u and v are too large to
// fit in memory, then an out-of-core algorithm would be required."
//
// The in-memory engine is one packed-key LSD radix sort, serial or
// chunk-parallel over a thread pool; the external engine lives in
// sort/external_sort.hpp. Both produce identical output for the same key,
// which the tests enforce against std::stable_sort.
#pragma once

#include <cstdint>

#include "gen/edge.hpp"
#include "util/threadpool.hpp"

namespace prpb::sort {

/// Sort key. The benchmark requires ordering by start vertex; ordering ties
/// by end vertex as well makes output canonical across engines (and answers
/// the paper's open question "Should the end vertices also be sorted?" with
/// a switch).
enum class SortKey {
  kStart,     ///< order by u only; ties keep input order (stable engines)
  kStartEnd,  ///< order by (u, v); canonical, engine-independent output
};

/// LSD radix sort. Stable. The bits of u and of v that vary across the
/// input pack into one 64-bit key, (u' << bits(v')) | v', sorted in
/// balanced digits of at most 11 bits: 4 passes over 8-byte keys for a
/// scale-18 or scale-20 graph. Wider keys (ids of 2^32 and up) fall back
/// to std::stable_sort. In place: the keys and the LSD scratch share the
/// edges' own 16 B/edge, so the sort allocates only its histograms.
///
/// With a pool of more than one thread, each pass splits the input into
/// per-thread chunks: chunk histograms run in parallel, a serial
/// bucket-major/chunk-minor scan turns them into scatter cursors, and the
/// scatter runs in parallel into disjoint destination ranges (no atomics,
/// input order kept within a bucket). With no pool, a one-thread pool or a
/// small input, the one chunk runs inline without submitting a task.
void radix_sort(gen::EdgeList& edges, SortKey key = SortKey::kStartEnd,
                util::ThreadPool* pool = nullptr);

/// The order of `key`: u alone, or u then v.
bool edge_less(const gen::Edge& a, const gen::Edge& b, SortKey key);

/// True when edges are non-decreasing under `key` (u-only checks u order).
bool is_sorted_edges(const gen::EdgeList& edges, SortKey key);

}  // namespace prpb::sort
