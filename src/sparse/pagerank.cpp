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

void pagerank_update(std::vector<double>& r, const std::vector<double>& y,
                     double damping) {
  const double c = damping;
  const auto n = static_cast<double>(r.size());
  double r_sum = 0.0;
  for (const double x : r) r_sum += x;
  const double add = (1.0 - c) * r_sum / n;
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = c * y[i] + add;
}

void run_pagerank_steps(const PageRankConfig& config,
                        const std::vector<double>& r,
                        const std::function<void()>& step) {
  if (!config.observer) {
    for (int it = 0; it < config.iterations; ++it) step();
    return;
  }
  std::vector<double> previous;
  util::Stopwatch iter_watch;
  for (int it = 0; it < config.iterations; ++it) {
    previous = r;
    iter_watch.restart();
    step();
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

void pagerank_iterate(const CsrMatrix& a, std::vector<double>& r,
                      const PageRankConfig& config, util::ThreadPool* pool) {
  config.validate();
  util::require(a.rows() == a.cols(), "pagerank: matrix must be square");
  util::require(r.size() == a.rows(), "pagerank: r size must equal N");

  // y = r·A as y[j] = Σ Aᵀ(j, i) · r[i]: each output entry is owned by one
  // task, so rows of Aᵀ partition the work with no atomics.
  const bool pooled = pool != nullptr && pool->size() > 1;
  const CsrMatrix at = pooled ? a.transpose() : CsrMatrix();
  std::vector<double> y(a.cols());
  const auto spmv = [&] {
    if (!pooled) {
      a.vec_mat(r, y);
      return;
    }
    util::parallel_for_chunks(
        *pool, 0, at.rows(), [&](std::uint64_t lo, std::uint64_t hi) {
          for (std::uint64_t j = lo; j < hi; ++j) {
            double acc = 0.0;
            for (std::uint64_t k = at.row_ptr()[j]; k < at.row_ptr()[j + 1];
                 ++k) {
              acc += r[at.col_idx()[k]] * at.values()[k];
            }
            y[j] = acc;
          }
        });
  };

  run_pagerank_steps(config, r, [&] {
    spmv();
    pagerank_update(r, y, config.damping);
  });
}

std::vector<double> pagerank(const CsrMatrix& a, const PageRankConfig& config,
                             util::ThreadPool* pool) {
  std::vector<double> r = pagerank_initial_vector(a.rows(), config.seed);
  pagerank_iterate(a, r, config, pool);
  return r;
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
