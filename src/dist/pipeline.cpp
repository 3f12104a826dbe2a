#include "dist/pipeline.hpp"

#include <algorithm>
#include <memory>
#include <optional>

#include "gen/generator.hpp"
#include "io/edge_batch.hpp"
#include "io/edge_files.hpp"
#include "io/tsv.hpp"
#include "sort/edge_sort.hpp"
#include "sparse/pagerank.hpp"
#include "util/error.hpp"

namespace prpb::dist {

std::uint64_t block_begin(std::size_t rank, std::uint64_t n,
                          std::size_t ranks) {
  return n * rank / ranks;
}

std::size_t owner_of(std::uint64_t vertex, std::uint64_t n,
                     std::size_t ranks) {
  util::require(vertex < n, "owner_of: vertex out of range");
  // Candidate from the inverse formula, corrected against the exact block
  // boundaries (the floating-point estimate can be off by one).
  std::size_t rank = static_cast<std::size_t>(
      static_cast<double>(vertex) * static_cast<double>(ranks) /
      static_cast<double>(n));
  if (rank >= ranks) rank = ranks - 1;
  while (vertex < block_begin(rank, n, ranks)) --rank;
  while (rank + 1 < ranks && vertex >= block_begin(rank + 1, n, ranks))
    ++rank;
  return rank;
}

namespace {

struct RankScratch {
  std::vector<double> ranks;
  CommStats stats;
  std::uint64_t k1_bytes = 0;
  std::uint64_t k3_bytes = 0;
};

std::string rank_args(std::size_t rank) {
  return "{\"rank\":" + std::to_string(rank) + "}";
}

/// Opens a communication-phase span tagged with the rank; inert when
/// tracing is off.
obs::Span comm_span(const obs::Hooks& hooks, const char* name,
                    std::size_t rank) {
  obs::Span span(hooks.trace, name);
  if (span.active()) span.set_args(rank_args(rank));
  return span;
}

}  // namespace

DistResult run_distributed(const DistConfig& config, std::size_t ranks) {
  util::require(ranks >= 1, "run_distributed: need at least one rank");
  const std::uint64_t n = config.num_vertices();

  Cluster cluster(ranks);
  std::vector<RankScratch> scratch(ranks);

  // Optional K0->K1 file barrier: shard writes/reads go through an
  // I/O-counting wrapper so the stage traffic lands in the result.
  std::optional<io::CountingStageStore> staging;
  if (config.stage_store != nullptr) {
    staging.emplace(*config.stage_store);
    staging->clear_stage(config.stage);
  }

  cluster.run([&](Communicator& comm) {
    const std::size_t rank = comm.rank();
    const std::size_t p = comm.size();

    // ---- Kernel 0: generate this rank's slice of edge indices ------------
    const auto generator = gen::make_generator(
        config.generator, config.scale, config.edge_factor, config.seed);
    const std::uint64_t total = generator->num_edges();
    const std::uint64_t lo = total * rank / p;
    const std::uint64_t hi = total * (rank + 1) / p;
    gen::EdgeList local;
    generator->generate_range(lo, hi, local);

    if (staging.has_value()) {
      // Materialize the slice as this rank's shard, then read it back —
      // "each kernel ... fully completed before the next kernel can begin".
      const io::StageCodec& codec = config.stage_codec != nullptr
                                        ? *config.stage_codec
                                        : io::tsv_codec(io::Codec::kFast);
      const std::string shard = io::shard_name(rank, codec);
      io::write_edge_shard(*staging, config.stage, shard, local, codec);
      {
        const obs::Span span =
            comm_span(config.hooks, "dist/barrier_wait", rank);
        comm.barrier();
      }
      local = io::read_edge_shard(*staging, config.stage, shard, codec);
    }

    // ---- Kernel 1: route edges to the owner of their start vertex, then
    // sort locally — the concatenation over ranks is globally sorted.
    std::vector<gen::EdgeList> outboxes(p);
    for (const auto& edge : local) {
      outboxes[owner_of(edge.u, n, p)].push_back(edge);
    }
    local.clear();
    local.shrink_to_fit();
    const std::uint64_t bytes_before_k1 = comm.stats().bytes_sent;
    gen::EdgeList owned;
    {
      const obs::Span span = comm_span(config.hooks, "dist/alltoallv", rank);
      owned = comm.alltoallv(std::move(outboxes));
    }
    scratch[rank].k1_bytes = comm.stats().bytes_sent - bytes_before_k1;
    sort::radix_sort(owned);

    // ---- Kernel 2: local row-block CSR + aggregated in-degree filter -----
    const std::uint64_t row_lo = block_begin(rank, n, p);
    const std::uint64_t row_hi = block_begin(rank + 1, n, p);
    gen::EdgeList shifted = owned;
    for (auto& edge : shifted) {
      util::ensure(edge.u >= row_lo && edge.u < row_hi,
                   "distributed kernel 2: edge routed to wrong rank");
      edge.u -= row_lo;
    }
    sparse::CsrMatrix block =
        sparse::CsrMatrix::from_edges(shifted, row_hi - row_lo, n);

    // "the in-degree info will need to be aggregated"
    std::vector<double> din = block.col_sums();
    {
      const obs::Span span = comm_span(config.hooks, "dist/allreduce", rank);
      comm.allreduce_sum(din);
    }
    const double max_din =
        din.empty() ? 0.0 : *std::max_element(din.begin(), din.end());
    std::vector<bool> mask(n, false);
    for (std::size_t c = 0; c < din.size(); ++c) {
      if ((max_din > 0.0 && din[c] == max_din) || din[c] == 1.0) {
        mask[c] = true;
      }
    }
    block.zero_columns(mask);
    block.scale_rows_inverse(block.row_sums());

    // ---- Kernel 3: partial r·A per rank, allreduce, repeat ----------------
    std::vector<double> r = sparse::pagerank_initial_vector(n, config.seed);
    const double c = config.damping;
    std::vector<double> y(n);
    const std::uint64_t bytes_before_k3 = comm.stats().bytes_sent;
    for (int it = 0; it < config.iterations; ++it) {
      double r_sum = 0.0;
      for (const double x : r) r_sum += x;
      // partial y from this rank's rows
      std::fill(y.begin(), y.end(), 0.0);
      for (std::uint64_t local_row = 0; local_row < block.rows();
           ++local_row) {
        const double xr = r[row_lo + local_row];
        if (xr == 0.0) continue;
        for (std::uint64_t k = block.row_ptr()[local_row];
             k < block.row_ptr()[local_row + 1]; ++k) {
          y[block.col_idx()[k]] += xr * block.values()[k];
        }
      }
      // "summed across all processors and broadcast back"
      {
        const obs::Span span =
            comm_span(config.hooks, "dist/allreduce", rank);
        comm.allreduce_sum(y);
      }
      const double add = (1.0 - c) * r_sum / static_cast<double>(n);
      for (std::size_t i = 0; i < r.size(); ++i) r[i] = c * y[i] + add;
    }
    scratch[rank].k3_bytes = comm.stats().bytes_sent - bytes_before_k3;
    scratch[rank].ranks = std::move(r);
  });

  DistResult result;
  result.per_rank = cluster.last_stats();
  result.total_bytes = cluster.total_bytes();
  if (staging.has_value()) {
    const io::StageIoCounters io = staging->snapshot();
    result.stage_bytes_written = io.bytes_written;
    result.stage_bytes_read = io.bytes_read;
  }
  for (const auto& s : scratch) {
    result.k1_exchange_bytes += s.k1_bytes;
    result.k3_allreduce_bytes += s.k3_bytes;
  }
  // Every rank converged to the same vector; return rank 0's copy after a
  // consistency check.
  result.ranks = scratch[0].ranks;
  for (std::size_t r = 1; r < ranks; ++r) {
    util::ensure(scratch[r].ranks == result.ranks,
                 "distributed pipeline: ranks diverged across processors");
  }
  util::ensure(result.ranks.size() == n,
               "distributed pipeline: bad rank vector size");
  return result;
}

}  // namespace prpb::dist
