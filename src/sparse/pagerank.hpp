// Kernel 3: fixed-iteration PageRank over the normalized adjacency matrix.
//
// The paper's update (row-vector form, c = 0.85, 20 iterations):
//     r = ((c .* r) * A) + ((1-c) .* sum(r, 2))
// Dangling-node mass is intentionally NOT redistributed — the paper omits the
// dangling correction term, so sum(r) decays when dangling rows exist. Tests
// pin this behaviour.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sparse/csr.hpp"
#include "util/threadpool.hpp"

namespace prpb::obs {
class TraceRecorder;
}  // namespace prpb::obs

namespace prpb::sparse {

/// Per-iteration telemetry handed to PageRankConfig::observer. The residual
/// is the L1 distance between successive rank vectors (the convergence
/// criterion of the "real application" variant); rank_sum tracks the mass
/// decay the paper's dangling-free update exhibits.
struct IterationStats {
  int iteration = 0;         ///< 0-based
  double residual_l1 = 0.0;  ///< ||r_k - r_{k-1}||_1
  double rank_sum = 0.0;     ///< sum(r_k)
  double seconds = 0.0;      ///< wall time of this iteration
};

using IterationObserver = std::function<void(const IterationStats&)>;

struct PageRankConfig {
  int iterations = 20;
  double damping = 0.85;  ///< c
  std::uint64_t seed = 20160205;
  /// Optional per-iteration callback. The residual and rank sum come out
  /// of the update loop itself, so an observer costs only its clock
  /// readings and the call.
  IterationObserver observer;

  void validate() const;
};

/// The paper's initial vector: uniform random entries normalized to sum 1.
std::vector<double> pagerank_initial_vector(std::uint64_t n,
                                            std::uint64_t seed);

/// The serial PageRank step that kernel 3 and the rank server share. π
/// renames A's columns by descending in-degree (ties by column), and the
/// push SpMV adds column j's products into y'[π(j)], so the hub entries
/// sit together and stay in cache. The scatter runs in row order and
/// skips rows whose rank is 0, so y'[π(j)] is `vec_mat`'s y[j] bit for
/// bit. It owns π and the renamed columns and borrows `a`'s row offsets
/// and values, so `a` must outlive it.
class PageRankOperator {
 public:
  /// Throws util::ConfigError unless `a` is square.
  explicit PageRankOperator(const CsrMatrix& a);

  /// One update in place, given r_sum = sum(r), which it advances:
  ///   r = c·(r·A) + (1-c)·r_sum/|T| on each vertex of the teleport
  /// target T: every vertex (the paper's update), or the sorted, distinct,
  /// non-empty `restart`. `y` is scratch of N zeros, left zeroed. Returns
  /// the update's residual_l1 and rank_sum, as pagerank_update() does.
  IterationStats step(std::vector<double>& r, double& r_sum, double damping,
                      std::vector<double>& y) const;
  IterationStats step(std::vector<double>& r, double& r_sum, double damping,
                      std::vector<double>& y,
                      const std::vector<std::uint64_t>& restart) const;

 private:
  template <typename InTarget>
  IterationStats advance(std::vector<double>& r, double& r_sum, double damping,
                         double add, std::vector<double>& y,
                         InTarget in_target) const;

  const CsrMatrix& a_;
  std::vector<ColIndex> order_;  ///< π, a permutation of the columns
  std::vector<ColIndex> col_;    ///< π[col_idx[k]] for every entry k
};

/// Runs `config.iterations` updates starting from `r` (modified in place).
///
/// Every path adds the products into each y[j] in ascending row order,
/// exactly as `vec_mat` does, so all of them give the same bits:
/// - With no pool or a one-thread pool, it steps a PageRankOperator built
///   once per call, under a "k3/group" span on `trace` when it is
///   recording.
/// - With a pool of more than one thread, the SpMV runs over the
///   transposed matrix, one task per chunk of output entries.
void pagerank_iterate(const CsrMatrix& a, std::vector<double>& r,
                      const PageRankConfig& config,
                      util::ThreadPool* pool = nullptr,
                      obs::TraceRecorder* trace = nullptr);

/// Convenience: initial vector + iterations.
std::vector<double> pagerank(const CsrMatrix& a, const PageRankConfig& config,
                             util::ThreadPool* pool = nullptr,
                             obs::TraceRecorder* trace = nullptr);

/// The K3 iteration producer every PageRank loop shares: calls `step`
/// `config.iterations` times. Each call advances the iterate by one update
/// and returns that update's residual_l1 and rank_sum, as
/// pagerank_update() computes them. When config.observer is set, it times
/// each step and reports {iteration, residual_l1, rank_sum, seconds} to
/// the observer; without one it only runs the steps.
void run_pagerank_steps(const PageRankConfig& config,
                        const std::function<IterationStats()>& step);

/// One update given y = r·A, in place:
///   r = c*y + (1-c)/N*sum(r).
/// The additive term uses the paper's damping vector
/// a = ones(1,N) .* (1-c) ./ N, i.e. the /N is included (appendix form).
/// Returns the update's ||r_new - r_old||_1 and sum(r_new), both summed in
/// index order; iteration and seconds are left 0.
IterationStats pagerank_update(std::vector<double>& r,
                               const std::vector<double>& y, double damping);

/// L1 norm.
double norm1(const std::vector<double>& v);

/// v / norm1(v); returns v unchanged when the norm is zero.
std::vector<double> normalized1(std::vector<double> v);

}  // namespace prpb::sparse
