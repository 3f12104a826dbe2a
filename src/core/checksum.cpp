#include "core/checksum.hpp"

#include <bit>
#include <cmath>
#include <cstdio>

#include "io/edge_batch.hpp"
#include "rand/rng.hpp"
#include "sparse/pagerank.hpp"

namespace prpb::core {

namespace {
std::uint64_t mix_pair(std::uint64_t a, std::uint64_t b) {
  return rnd::splitmix64(rnd::splitmix64(a) ^ (b * 0x9e3779b97f4a7c15ULL));
}

/// Quantizes a double to an integer lattice for tolerance-stable hashing.
std::uint64_t quantize(double value, double quantum) {
  return static_cast<std::uint64_t>(
      static_cast<std::int64_t>(std::llround(value / quantum)));
}
}  // namespace

std::uint64_t edge_multiset_hash(const gen::EdgeList& edges) {
  // Sum of per-edge hashes: commutative, so order never matters; 64-bit
  // wraparound keeps it a well-defined group operation.
  std::uint64_t acc = 0x5eed0f00dd0123ULL;
  for (const auto& edge : edges) acc += mix_pair(edge.u, edge.v);
  return acc;
}

std::uint64_t edge_sequence_hash(const gen::EdgeList& edges) {
  std::uint64_t acc = 0x0123456789abcdefULL;
  for (const auto& edge : edges) {
    acc = mix_pair(acc, mix_pair(edge.u, edge.v));
  }
  return acc;
}

StageChecksum stage_checksum(io::StageStore& store, const std::string& stage,
                             const io::StageCodec& codec) {
  StageChecksum checksum;
  checksum.sequence = 0x0123456789abcdefULL;
  checksum.multiset = 0x5eed0f00dd0123ULL;
  io::EdgeBatchReader reader(store, stage, codec);
  gen::EdgeList batch;
  while (reader.next(batch)) {
    for (const auto& edge : batch) {
      const std::uint64_t h = mix_pair(edge.u, edge.v);
      checksum.multiset += h;
      checksum.sequence = mix_pair(checksum.sequence, h);
    }
  }
  checksum.edges = reader.edges_read();
  return checksum;
}

std::uint64_t matrix_fingerprint(const sparse::CsrMatrix& a, double quantum) {
  std::uint64_t acc = mix_pair(a.rows(), a.cols());
  acc = mix_pair(acc, a.nnz());
  for (std::uint64_t r = 0; r < a.rows(); ++r) {
    for (std::uint64_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
      acc = mix_pair(acc, mix_pair(r, a.col_idx()[k]));
      acc = mix_pair(acc, quantize(a.values()[k], quantum));
    }
  }
  return acc;
}

std::uint64_t rank_digest(const std::vector<double>& ranks, double quantum) {
  const std::vector<double> normalized = sparse::normalized1(ranks);
  std::uint64_t acc = mix_pair(0xdeadbeefULL, normalized.size());
  for (const double x : normalized) {
    acc = mix_pair(acc, quantize(x, quantum));
  }
  return acc;
}

std::uint64_t rank_bits_digest(const std::vector<double>& ranks) {
  std::uint64_t acc = mix_pair(0xb175eedULL, ranks.size());
  for (const double x : ranks) {
    acc = mix_pair(acc, std::bit_cast<std::uint64_t>(x));
  }
  return acc;
}

std::uint64_t levels_digest(const std::vector<std::int64_t>& levels) {
  std::uint64_t acc = mix_pair(0xb5f5ca11ULL, levels.size());
  for (const std::int64_t level : levels) {
    acc = mix_pair(acc, static_cast<std::uint64_t>(level));
  }
  return acc;
}

std::uint64_t labels_digest(const std::vector<std::uint64_t>& labels) {
  std::uint64_t acc = mix_pair(0xcc1abe15ULL, labels.size());
  for (const std::uint64_t label : labels) acc = mix_pair(acc, label);
  return acc;
}

std::string algorithm_checksum(const AlgorithmResult& result) {
  if (!result.ranks.empty()) return digest_hex(rank_digest(result.ranks));
  if (!result.levels.empty()) {
    return digest_hex(
        mix_pair(levels_digest(result.levels), result.bfs_source));
  }
  return digest_hex(labels_digest(result.labels));
}

std::string digest_hex(std::uint64_t digest) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

}  // namespace prpb::core
