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
  /// Optional per-iteration callback. When set, the loop keeps a copy of
  /// the previous vector to compute the residual — leave unset on hot
  /// paths that don't need telemetry.
  IterationObserver observer;

  void validate() const;
};

/// The paper's initial vector: uniform random entries normalized to sum 1.
std::vector<double> pagerank_initial_vector(std::uint64_t n,
                                            std::uint64_t seed);

/// Runs `config.iterations` updates starting from `r` (modified in place).
///
/// With a pool of more than one thread, the SpMV runs over the transposed
/// matrix, one task per chunk of output entries: each y[j] is still summed
/// over rows in ascending order, so the ranks are bit-identical to the
/// serial `vec_mat` used with no pool or a one-thread pool.
void pagerank_iterate(const CsrMatrix& a, std::vector<double>& r,
                      const PageRankConfig& config,
                      util::ThreadPool* pool = nullptr);

/// Convenience: initial vector + iterations.
std::vector<double> pagerank(const CsrMatrix& a, const PageRankConfig& config,
                             util::ThreadPool* pool = nullptr);

/// The K3 iteration producer every PageRank loop shares: calls `step`
/// `config.iterations` times, each call advancing the iterate that `r`
/// refers to by one update (in place, or by reassigning the object that
/// owns `r`). When config.observer is set, it copies the previous iterate,
/// times the step, and reports {iteration, residual_l1, rank_sum, seconds}
/// to the observer; without one it only runs the steps.
void run_pagerank_steps(const PageRankConfig& config,
                        const std::vector<double>& r,
                        const std::function<void()>& step);

/// One update given y = r·A, in place:
///   r = c*y + (1-c)/N*sum(r).
/// The additive term uses the paper's damping vector
/// a = ones(1,N) .* (1-c) ./ N, i.e. the /N is included (appendix form).
void pagerank_update(std::vector<double>& r, const std::vector<double>& y,
                     double damping);

/// L1 norm.
double norm1(const std::vector<double>& v);

/// v / norm1(v); returns v unchanged when the norm is zero.
std::vector<double> normalized1(std::vector<double> v);

}  // namespace prpb::sparse
