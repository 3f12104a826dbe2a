#include "serve/service.hpp"

#include <algorithm>

#include "core/checksum.hpp"
#include "util/error.hpp"

namespace prpb::serve {

RankService::RankService(sparse::CsrMatrix matrix, std::vector<double> ranks,
                         const ServiceOptions& options)
    : options_(options),
      matrix_(std::move(matrix)),
      op_(matrix_),
      num_vertices_(matrix_.rows()),
      ranks_(std::move(ranks)) {
  util::require(ranks_.size() == num_vertices_,
                "serve: rank vector size must equal the vertex count");
  util::require(options_.iterations >= 0,
                "serve: iterations must be >= 0");
  util::require(options_.damping >= 0.0 && options_.damping <= 1.0,
                "serve: damping must be in [0, 1]");
  initial_ = sparse::pagerank_initial_vector(
      std::max<std::uint64_t>(num_vertices_, 1), options_.seed);
  if (num_vertices_ == 0) initial_.clear();
  by_rank_.resize(num_vertices_);
  for (std::uint64_t v = 0; v < num_vertices_; ++v) by_rank_[v] = v;
  std::sort(by_rank_.begin(), by_rank_.end(),
            [this](std::uint64_t a, std::uint64_t b) {
              if (ranks_[a] != ranks_[b]) return ranks_[a] > ranks_[b];
              return a < b;
            });
}

std::vector<RankEntry> RankService::topk(std::uint32_t k) const {
  const std::size_t count =
      std::min<std::size_t>(k, static_cast<std::size_t>(num_vertices_));
  std::vector<RankEntry> entries;
  entries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    entries.push_back({by_rank_[i], ranks_[by_rank_[i]]});
  }
  return entries;
}

double RankService::rank(std::uint64_t vertex) const {
  return ranks_[vertex];
}

std::vector<RankEntry> RankService::neighbors(std::uint64_t vertex) const {
  std::vector<RankEntry> entries;
  const std::uint64_t begin = matrix_.row_ptr()[vertex];
  const std::uint64_t end = matrix_.row_ptr()[vertex + 1];
  entries.reserve(end - begin);
  for (std::uint64_t i = begin; i < end; ++i) {
    const std::uint64_t u = matrix_.col_idx()[i];
    entries.push_back({u, matrix_.values()[i] * ranks_[u]});
  }
  return entries;
}

namespace {

/// Runs up to request.iterations steps of `op` from r, teleporting to
/// every vertex or to the restart list given, stopping once epsilon > 0
/// and the step's L1 residual drops below it; then digests r and
/// extracts its top k.
template <typename... Restart>
PprResult run_ppr(const sparse::PageRankOperator& op, double damping,
                  std::vector<double> r, const PprRequest& request,
                  const Restart&... restart) {
  double r_sum = 0.0;
  for (const double x : r) r_sum += x;
  std::vector<double> y(r.size(), 0.0);
  PprResult result;
  for (std::uint32_t it = 0; it < request.iterations; ++it) {
    const sparse::IterationStats stats =
        op.step(r, r_sum, damping, y, restart...);
    result.iterations_run = it + 1;
    if (request.epsilon > 0.0) {
      result.residual = stats.residual_l1;
      if (stats.residual_l1 < request.epsilon) break;
    }
  }

  result.digest = core::rank_digest(r);
  const std::size_t top_count = std::min<std::size_t>(request.topk, r.size());
  if (top_count > 0) {
    std::vector<std::uint64_t> order(r.size());
    for (std::uint64_t v = 0; v < r.size(); ++v) order[v] = v;
    std::partial_sort(order.begin(), order.begin() + top_count, order.end(),
                      [&r](std::uint64_t a, std::uint64_t b) {
                        if (r[a] != r[b]) return r[a] > r[b];
                        return a < b;
                      });
    result.top.reserve(top_count);
    for (std::size_t i = 0; i < top_count; ++i) {
      result.top.push_back({order[i], r[order[i]]});
    }
  }
  return result;
}

}  // namespace

PprResult RankService::ppr(const PprRequest& request) const {
  // An empty restart list (or every vertex listed) is the full set;
  // duplicates collapse before |S| is counted.
  std::vector<std::uint64_t> restart = request.restart;
  std::sort(restart.begin(), restart.end());
  restart.erase(std::unique(restart.begin(), restart.end()), restart.end());
  if (restart.empty() || restart.size() == num_vertices_) {
    // Kernel 3's start vector and step, so at the configured iteration
    // count this is bit-identical to sparse::pagerank_iterate.
    return run_ppr(op_, options_.damping, initial_, request);
  }
  // Standard personalized start: r0 = e_S/|S|. The vector is sparse, and
  // the scatter skips zero rows, so early iterations only traverse the
  // restart set's expanding out-neighborhood. (A fully support-tracked
  // push was tried and measured slower here: with the generator's edge
  // factor the 2–3-hop neighborhood is already most of the graph, and the
  // per-edge dedup bookkeeping plus unordered row access cost more than
  // the dense sweep it saved.)
  std::vector<double> r(num_vertices_, 0.0);
  const double mass = 1.0 / static_cast<double>(restart.size());
  for (const std::uint64_t v : restart) r[v] = mass;
  return run_ppr(op_, options_.damping, std::move(r), request, restart);
}

std::string RankService::handle(const Request& request) const {
  try {
    switch (request.opcode) {
      case Opcode::kPing:
        return encode_ping_reply(request.id);
      case Opcode::kInfo: {
        InfoReply info;
        info.vertices = num_vertices_;
        info.nnz = matrix_.nnz();
        info.iterations = static_cast<std::uint32_t>(options_.iterations);
        info.damping = options_.damping;
        return encode_info_reply(request.id, info);
      }
      case Opcode::kTopk:
        return encode_entries_reply(request.id, Opcode::kTopk,
                                    topk(request.topk_k));
      case Opcode::kRank:
        if (request.vertex >= num_vertices_) {
          return encode_error(request.id, Status::kUnknownVertex,
                              "rank: vertex " +
                                  std::to_string(request.vertex) +
                                  " outside [0, " +
                                  std::to_string(num_vertices_) + ")");
        }
        return encode_rank_reply(request.id, rank(request.vertex));
      case Opcode::kNeighbors:
        if (request.vertex >= num_vertices_) {
          return encode_error(request.id, Status::kUnknownVertex,
                              "neighbors: vertex " +
                                  std::to_string(request.vertex) +
                                  " outside [0, " +
                                  std::to_string(num_vertices_) + ")");
        }
        return encode_entries_reply(request.id, Opcode::kNeighbors,
                                    neighbors(request.vertex));
      case Opcode::kPpr: {
        for (const std::uint64_t v : request.ppr.restart) {
          if (v >= num_vertices_) {
            return encode_error(request.id, Status::kUnknownVertex,
                                "ppr: restart vertex " + std::to_string(v) +
                                    " outside [0, " +
                                    std::to_string(num_vertices_) + ")");
          }
        }
        const PprResult result = ppr(request.ppr);
        PprReply reply;
        reply.iterations_run = result.iterations_run;
        reply.residual = result.residual;
        reply.digest = result.digest;
        reply.top = result.top;
        return encode_ppr_reply(request.id, reply);
      }
    }
    return encode_error(request.id, Status::kMalformedFrame,
                        "unhandled opcode");
  } catch (const std::exception& e) {
    return encode_error(request.id, Status::kInternalError, e.what());
  }
}

}  // namespace prpb::serve
