// Distributed (simulated) PageRank pipeline — the parallel decomposition
// the paper sketches for each kernel, executed on the simulated cluster:
//
//   K0  each rank generates its contiguous slice of edge indices — the
//       counter-based generator needs no communication (the Graph500
//       property the paper cites);
//   K1  bucket exchange: edges are routed via alltoallv to the rank owning
//       their end vertex (block distribution of the vertex space), then
//       sorted locally — each rank holds the edges of its column block;
//   K2  each rank builds the CSR of its column block with the shared
//       `CsrMatrix`; in-degrees are allreduced ("the in-degree info will
//       need to be aggregated"), the elimination mask follows
//       deterministically on every rank from `sparse::elimination_mask`
//       ("the selected vertices for elimination broadcast" becomes
//       implicit), columns are zeroed, and the out-degree partials are
//       allreduced before rows are normalized;
//   K3  each rank computes its columns of r·A and the partial vectors are
//       allreduced ("summed across all processors and broadcast back to
//       every processor").
//
// Owner-computes on columns keeps every sum in serial order: a column has
// one contributing rank, so the allreduces add exact zeros, and the ranks
// come out bit-identical to the serial pipeline for every rank count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dist/comm.hpp"
#include "io/stage_codec.hpp"
#include "io/stage_store.hpp"
#include "obs/trace.hpp"
#include "sparse/csr.hpp"

namespace prpb::dist {

struct DistConfig {
  int scale = 10;
  int edge_factor = 16;
  std::uint64_t seed = 20160205;
  std::string generator = "kronecker";
  int iterations = 20;
  double damping = 0.85;
  /// When set, kernel 0 materializes each rank's slice as a shard of
  /// `stage` in this store and kernel 1 reads it back — the paper's file
  /// barrier between K0 and K1, over any storage backend. Not owned; null
  /// keeps the historical fully in-memory hand-off.
  io::StageStore* stage_store = nullptr;
  std::string stage = "k0_edges";
  /// Stage encoding for the K0->K1 file barrier. Not owned (codecs are
  /// immutable singletons); null means TSV in the fast flavor.
  const io::StageCodec* stage_codec = nullptr;
  /// Optional tracing hooks: every rank thread emits spans around its
  /// communication waits ("dist/barrier_wait", "dist/alltoallv",
  /// "dist/allreduce"), each tagged with the rank in its args.
  obs::Hooks hooks;

  [[nodiscard]] std::uint64_t num_vertices() const { return 1ULL << scale; }
  [[nodiscard]] std::uint64_t num_edges() const {
    return static_cast<std::uint64_t>(edge_factor) * num_vertices();
  }
};

struct DistResult {
  std::vector<double> ranks;     ///< full rank vector (identical per rank)
  std::uint64_t total_bytes = 0; ///< payload bytes across all ranks
  std::vector<CommStats> per_rank;
  std::uint64_t k1_exchange_bytes = 0;  ///< alltoallv traffic in kernel 1
  std::uint64_t k3_allreduce_bytes = 0; ///< allreduce traffic in kernel 3
  // Stage traffic through config.stage_store (0 when no store is set).
  std::uint64_t stage_bytes_written = 0;  ///< K0 shard writes across ranks
  std::uint64_t stage_bytes_read = 0;     ///< K1 shard read-back across ranks
};

/// Block ownership: vertex v belongs to rank v * P / N.
std::size_t owner_of(std::uint64_t vertex, std::uint64_t n, std::size_t ranks);

/// First vertex owned by `rank`.
std::uint64_t block_begin(std::size_t rank, std::uint64_t n,
                          std::size_t ranks);

/// Runs the full distributed pipeline on `ranks` simulated processors and
/// returns the rank vector plus communication statistics. The result is
/// bit-identical to the serial pipeline's kernel-3 output for the same
/// configuration. Throws ConfigError for an invalid PageRank configuration
/// (damping outside [0, 1], negative iterations) before the cluster starts.
DistResult run_distributed(const DistConfig& config, std::size_t ranks);

}  // namespace prpb::dist
