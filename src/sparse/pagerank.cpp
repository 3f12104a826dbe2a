#include "sparse/pagerank.hpp"

#include <cmath>

#include "rand/rng.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace prpb::sparse {

void PageRankConfig::validate() const {
  util::require(iterations >= 0, "pagerank: iterations must be >= 0");
  util::require(damping >= 0.0 && damping <= 1.0,
                "pagerank: damping must be in [0, 1]");
}

std::vector<double> pagerank_initial_vector(std::uint64_t n,
                                            std::uint64_t seed) {
  util::require(n >= 1, "pagerank: n must be >= 1");
  // r = rand(1, N); r = r ./ norm(r, 1)
  rnd::Xoshiro256 rng(seed ^ 0x9a6e38bd4cf013feULL);
  std::vector<double> r(n);
  double sum = 0.0;
  for (auto& x : r) {
    x = rng.next_double();
    sum += x;
  }
  if (sum > 0.0) {
    const double inv = 1.0 / sum;
    for (auto& x : r) x *= inv;
  }
  return r;
}

void pagerank_iterate(const CsrMatrix& a, std::vector<double>& r,
                      const PageRankConfig& config) {
  config.validate();
  util::require(a.rows() == a.cols(), "pagerank: matrix must be square");
  util::require(r.size() == a.rows(), "pagerank: r size must equal N");
  const double c = config.damping;
  const auto n = static_cast<double>(a.rows());

  std::vector<double> y(a.cols());
  std::vector<double> dangling_template;
  if (config.redistribute_dangling) {
    // Precompute the dangling-row indicator (rows with no out-edges).
    const auto dout = a.row_sums();
    dangling_template.resize(dout.size());
    for (std::size_t i = 0; i < dout.size(); ++i)
      dangling_template[i] = dout[i] == 0.0 ? 1.0 : 0.0;
  }

  std::vector<double> previous;
  util::Stopwatch iter_watch;
  for (int it = 0; it < config.iterations; ++it) {
    if (config.observer) {
      previous = r;
      iter_watch.restart();
    }
    double r_sum = 0.0;
    for (const double x : r) r_sum += x;

    a.vec_mat(r, y);

    double dangling_mass = 0.0;
    if (config.redistribute_dangling) {
      for (std::size_t i = 0; i < r.size(); ++i)
        dangling_mass += r[i] * dangling_template[i];
    }

    // r = c*(r*A) + (1-c)/N*sum(r) [+ c*dangling_mass/N with redistribution].
    // The per-entry additive term uses the paper's damping vector
    // a = ones(1,N) .* (1-c) ./ N, i.e. the /N is included (appendix form).
    const double add = (1.0 - c) * r_sum / n + c * dangling_mass / n;
    for (std::size_t i = 0; i < r.size(); ++i) r[i] = c * y[i] + add;

    if (config.observer) {
      IterationStats stats;
      stats.iteration = it;
      stats.seconds = iter_watch.seconds();
      for (std::size_t i = 0; i < r.size(); ++i) {
        stats.residual_l1 += std::abs(r[i] - previous[i]);
        stats.rank_sum += r[i];
      }
      config.observer(stats);
    }
  }
}

std::vector<double> pagerank(const CsrMatrix& a,
                             const PageRankConfig& config) {
  std::vector<double> r = pagerank_initial_vector(a.rows(), config.seed);
  pagerank_iterate(a, r, config);
  return r;
}

ConvergenceResult pagerank_until_converged(const CsrMatrix& a,
                                           const PageRankConfig& config,
                                           double tolerance,
                                           int max_iterations) {
  util::require(tolerance > 0.0, "pagerank: tolerance must be positive");
  util::require(max_iterations >= 1,
                "pagerank: max_iterations must be >= 1");
  ConvergenceResult result;
  result.ranks = pagerank_initial_vector(a.rows(), config.seed);

  PageRankConfig step = config;
  step.iterations = 1;
  // The convergence loop computes its own residual; running the observer on
  // each single-iteration step would double the work and mislabel the
  // iteration numbers, so drop it here.
  step.observer = nullptr;
  std::vector<double> previous;
  for (int it = 0; it < max_iterations; ++it) {
    previous = result.ranks;
    pagerank_iterate(a, result.ranks, step);
    double residual = 0.0;
    for (std::size_t i = 0; i < previous.size(); ++i)
      residual += std::abs(result.ranks[i] - previous[i]);
    result.iterations = it + 1;
    result.residual = residual;
    if (residual < tolerance) {
      result.converged = true;
      break;
    }
  }
  return result;
}

double norm1(const std::vector<double>& v) {
  double acc = 0.0;
  for (const double x : v) acc += std::abs(x);
  return acc;
}

std::vector<double> normalized1(std::vector<double> v) {
  const double norm = norm1(v);
  if (norm > 0.0) {
    const double inv = 1.0 / norm;
    for (auto& x : v) x *= inv;
  }
  return v;
}

}  // namespace prpb::sparse
