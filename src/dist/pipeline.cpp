#include "dist/pipeline.hpp"

#include <memory>
#include <optional>

#include "gen/generator.hpp"
#include "io/edge_batch.hpp"
#include "io/edge_files.hpp"
#include "io/tsv.hpp"
#include "sort/edge_sort.hpp"
#include "sparse/filter.hpp"
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
  std::uint64_t k1_bytes = 0;
  std::uint64_t k3_bytes = 0;
};

/// Opens a communication-phase span tagged with the rank; inert when
/// tracing is off.
obs::Span comm_span(const obs::Hooks& hooks, const char* name,
                    std::size_t rank) {
  obs::Span span(hooks.trace, name);
  if (span.active()) {
    span.set_args("{\"rank\":" + std::to_string(rank) + "}");
  }
  return span;
}

}  // namespace

DistResult run_distributed(const DistConfig& config, std::size_t ranks) {
  util::require(ranks >= 1, "run_distributed: need at least one rank");
  sparse::PageRankConfig pr;
  pr.iterations = config.iterations;
  pr.damping = config.damping;
  pr.validate();
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

    // ---- Kernel 1: route each edge to the owner of its end vertex — the
    // rank that computes that entry of r·A — then sort locally.
    std::vector<gen::EdgeList> outboxes(p);
    for (const auto& edge : local) {
      outboxes[owner_of(edge.v, n, p)].push_back(edge);
    }
    local = {};
    const std::uint64_t bytes_before_k1 = comm.stats().bytes_sent;
    gen::EdgeList owned;
    {
      const obs::Span span = comm_span(config.hooks, "dist/alltoallv", rank);
      owned = comm.alltoallv(std::move(outboxes));
    }
    scratch[rank].k1_bytes = comm.stats().bytes_sent - bytes_before_k1;
    sort::radix_sort(owned);

    // ---- Kernel 2: this rank's column block of A. Every column has one
    // contributing rank and the row sums are integer counts, so both
    // allreduces are exact and the block equals the serial matrix's columns.
    sparse::CsrMatrix block = sparse::CsrMatrix::from_edges(owned, n, n);
    owned = {};
    const auto allreduce = [&](std::vector<double>& data) {
      const obs::Span span = comm_span(config.hooks, "dist/allreduce", rank);
      comm.allreduce_sum(data);
    };
    // "the in-degree info will need to be aggregated"
    std::vector<double> din = block.col_sums();
    allreduce(din);
    block.zero_columns(sparse::elimination_mask(din));
    std::vector<double> dout = block.row_sums();
    allreduce(dout);
    block.scale_rows_inverse(dout);

    // ---- Kernel 3: this rank's entries of r·A, summed across ranks —
    // "summed across all processors and broadcast back". The other ranks
    // add exact zeros to each entry, so y equals the serial product. It
    // stays a plain vec_mat push: the tests compare it, bit for bit, with
    // the serial K3's grouped operator.
    std::vector<double> r = sparse::pagerank_initial_vector(n, config.seed);
    std::vector<double> y;
    const std::uint64_t bytes_before_k3 = comm.stats().bytes_sent;
    for (int it = 0; it < config.iterations; ++it) {
      block.vec_mat(r, y);
      allreduce(y);
      sparse::pagerank_update(r, y, config.damping);
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
