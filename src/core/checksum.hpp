// Canonical output checksums — the repo's answer to the paper's §V open
// question "What outputs should be recorded to validate correctness?".
//
// Every pipeline stage gets a compact deterministic digest:
//   * kernel 0/1 stages — an order-insensitive multiset hash of the edges
//     (so any shard layout / sort stability choice yields the same value
//     for the same edge multiset) plus an order-sensitive sequence hash
//     for the sorted stage;
//   * kernel 2 — a structural + value fingerprint of the CSR matrix;
//   * kernel 3 — a digest of the L1-normalized rank vector quantized to a
//     tolerance, so any backend within fp tolerance produces the same
//     digest, and an exact digest of the rank bits.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/algorithm.hpp"
#include "gen/edge.hpp"
#include "io/stage_codec.hpp"
#include "io/stage_store.hpp"
#include "sparse/csr.hpp"

namespace prpb::core {

/// Order-insensitive multiset hash: identical for any permutation of the
/// same edges, different (w.h.p.) for any other multiset.
std::uint64_t edge_multiset_hash(const gen::EdgeList& edges);

/// Order-sensitive sequence hash: also pins the on-disk ordering.
std::uint64_t edge_sequence_hash(const gen::EdgeList& edges);

/// Hashes an edge stage (reads every shard in sorted shard order). The
/// digest is over decoded (start, end) records, so TSV and binary encodings
/// of the same edge sequence produce identical checksums.
struct StageChecksum {
  std::uint64_t multiset = 0;
  std::uint64_t sequence = 0;
  std::uint64_t edges = 0;
};
StageChecksum stage_checksum(io::StageStore& store, const std::string& stage,
                             const io::StageCodec& codec);

/// CSR fingerprint: shape, structure, and values quantized to `quantum`.
std::uint64_t matrix_fingerprint(const sparse::CsrMatrix& a,
                                 double quantum = 1e-9);

/// Rank digest: L1-normalize, quantize to `quantum`, hash.
std::uint64_t rank_digest(const std::vector<double>& ranks,
                          double quantum = 1e-9);

/// Exact rank digest: hashes the raw IEEE-754 bits of every entry, with
/// no normalization or quantization, so one ulp anywhere changes it. Only
/// paths that sum in the reference order share it.
std::uint64_t rank_bits_digest(const std::vector<double>& ranks);

/// BFS-level digest: exact (integer levels admit no tolerance), order- and
/// length-sensitive — any correct BFS over the same matrix matches.
std::uint64_t levels_digest(const std::vector<std::int64_t>& levels);

/// CC-label digest: exact over the canonical min-vertex-id labeling.
std::uint64_t labels_digest(const std::vector<std::uint64_t>& labels);

/// Canonical digest of one algorithm-stage output (hex): rank_digest for
/// pagerank, levels_digest for bfs (mixed with the source vertex),
/// labels_digest for cc. This is the value cross-backend identity is
/// asserted on.
std::string algorithm_checksum(const AlgorithmResult& result);

/// Formats a digest as fixed-width hex for reports.
std::string digest_hex(std::uint64_t digest);

}  // namespace prpb::core
