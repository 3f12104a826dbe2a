// RankService: the query engine behind the rank server (DESIGN.md §13).
//
// Holds the kernel-2 CSR and the kernel-3 rank vector in memory, plus a
// rank-descending vertex order precomputed at load so top-k answers are
// O(k). All queries are const over that warm state, so
// any number of server workers can execute them concurrently without
// locking; per-request scratch (ppr vectors, restart masks) is allocated
// on the handling thread.
//
// Personalized PageRank semantics: each request re-runs the paper's power
// iteration on the warm matrix with the teleport term directed at the
// request's restart set — add (1-c)·sum(r)/|S| to members of S, nothing
// elsewhere. The full restart set (S = all vertices, or the empty-list
// shorthand) warm-starts from the same seed-derived initial vector kernel
// 3 used, making that term (1-c)·sum(r)/N — the reference update's exact
// expression — so a full-restart ppr at the configured iteration count
// reproduces the kernel-3 ranks bit for bit (pinned by
// tests/serving_test.cpp against the golden checksums). A proper subset
// starts from the standard personalization vector e_S/|S| instead: that
// start is sparse, and the operator's scatter skips zero rows, so early
// iterations only touch the restart set's expanding out-neighborhood.
// Both step kernel 3's sparse::PageRankOperator, built once at load.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.hpp"
#include "sparse/csr.hpp"
#include "sparse/pagerank.hpp"

namespace prpb::serve {

struct ServiceOptions {
  int iterations = 20;    ///< kernel-3 iteration count the ranks came from
  double damping = 0.85;  ///< c
  std::uint64_t seed = 20160205;  ///< pipeline seed (ppr initial vector)
};

/// Result of one ppr evaluation (the service-level form of PprReply).
struct PprResult {
  std::uint32_t iterations_run = 0;
  double residual = 0.0;
  std::uint64_t digest = 0;
  std::vector<RankEntry> top;
};

class RankService {
 public:
  /// Takes ownership of the kernel-2 matrix and kernel-3 ranks. Throws
  /// util::ConfigError when ranks.size() != matrix.rows() or the options
  /// are invalid.
  RankService(sparse::CsrMatrix matrix, std::vector<double> ranks,
              const ServiceOptions& options);
  /// The operator borrows matrix_, so the service stays where it is built.
  RankService(const RankService&) = delete;
  RankService& operator=(const RankService&) = delete;

  [[nodiscard]] std::uint64_t vertices() const { return num_vertices_; }
  [[nodiscard]] std::uint64_t nnz() const { return matrix_.nnz(); }
  [[nodiscard]] const std::vector<double>& ranks() const { return ranks_; }
  [[nodiscard]] const ServiceOptions& options() const { return options_; }

  /// Top `k` vertices by rank, descending; ties break toward the smaller
  /// vertex id so the order is total and reproducible. Returns min(k, N)
  /// entries.
  [[nodiscard]] std::vector<RankEntry> topk(std::uint32_t k) const;

  /// Rank of one vertex. Throws ProtocolError-free: out-of-range ids are
  /// the caller's to check via vertices(); handle() maps them to
  /// kUnknownVertex. Precondition: vertex < vertices().
  [[nodiscard]] double rank(std::uint64_t vertex) const;

  /// Out-neighbors of `vertex` with serving weights: for each stored
  /// entry (vertex, u) the weight is a(vertex, u) · rank(u) — the
  /// edge's normalized transition weight scaled by the neighbor's own
  /// rank. Entry order is the CSR's (column-ascending).
  /// Precondition: vertex < vertices().
  [[nodiscard]] std::vector<RankEntry> neighbors(std::uint64_t vertex) const;

  /// Personalized PageRank (semantics in the file comment). `restart`
  /// empty means the full vertex set; duplicate ids collapse. Runs at most
  /// `request.iterations` updates, stopping early when epsilon > 0 and the
  /// L1 residual drops below it. Precondition: every restart id < N.
  [[nodiscard]] PprResult ppr(const PprRequest& request) const;

  /// Full protocol dispatch: decodes nothing, encodes everything — takes a
  /// decoded request, runs the query, returns the encoded response
  /// payload. Out-of-range vertices come back as kUnknownVertex, anything
  /// unexpected as kInternalError; this function does not throw.
  [[nodiscard]] std::string handle(const Request& request) const;

 private:
  ServiceOptions options_;
  sparse::CsrMatrix matrix_;
  sparse::PageRankOperator op_;  ///< borrows matrix_: declared after it
  std::uint64_t num_vertices_ = 0;
  std::vector<double> ranks_;
  std::vector<double> initial_;     ///< kernel-3 seed-derived start vector
  std::vector<std::uint64_t> by_rank_;  ///< vertex ids, rank-descending
};

}  // namespace prpb::serve
