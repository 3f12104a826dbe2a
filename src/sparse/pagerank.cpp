#include "sparse/pagerank.hpp"

#include <algorithm>
#include <cmath>

#include "obs/trace.hpp"
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

namespace {

/// The update loop behind every path: r[i] = c*y_i + add on the vertices
/// in the teleport target and c*y_i elsewhere, with y_i = load(i), in
/// index order. The residual and the new sum are accumulated in the same
/// pass, in the same order a separate pass over r would use.
template <typename Load, typename InTarget>
IterationStats update_ranks(std::vector<double>& r, double c, double add,
                            Load load, InTarget in_target) {
  IterationStats stats;
  for (std::size_t i = 0; i < r.size(); ++i) {
    const double cy = c * load(i);
    const double next = in_target(i) ? cy + add : cy;
    stats.residual_l1 += std::abs(next - r[i]);
    stats.rank_sum += next;
    r[i] = next;
  }
  return stats;
}

/// The paper's teleport target: every vertex.
constexpr auto kEveryVertex = [](std::size_t) { return true; };

/// The teleport term (1-c)·sum(r)/|T| for a target of `size` vertices.
double teleport(double c, double r_sum, std::size_t size) {
  return (1.0 - c) * r_sum / static_cast<double>(size);
}

double sum(const std::vector<double>& v) {
  double acc = 0.0;
  for (const double x : v) acc += x;
  return acc;
}

}  // namespace

PageRankOperator::PageRankOperator(const CsrMatrix& a) : a_(a) {
  util::require(a.rows() == a.cols(), "pagerank: matrix must be square");
  // order_[j] holds column j's in-degree, then its slot (a counting sort).
  order_.assign(a.cols(), 0);
  ColIndex max_degree = 0;
  for (const ColIndex j : a.col_idx()) {
    max_degree = std::max(max_degree, ++order_[j]);
  }
  // next[d]: the slot of the next column of degree d. Columns with a
  // higher degree come first.
  std::vector<std::uint64_t> next(std::uint64_t{max_degree} + 1, 0);
  for (const ColIndex degree : order_) ++next[degree];
  std::uint64_t slot = 0;
  for (std::uint64_t d = next.size(); d-- > 0;) {
    const std::uint64_t count = next[d];
    next[d] = slot;
    slot += count;
  }
  for (ColIndex& entry : order_) {
    entry = static_cast<ColIndex>(next[entry]++);
  }
  col_.resize(a.nnz());
  std::transform(a.col_idx().begin(), a.col_idx().end(), col_.begin(),
                 [this](ColIndex j) { return order_[j]; });
}

template <typename InTarget>
IterationStats PageRankOperator::advance(std::vector<double>& r,
                                         double& r_sum, double damping,
                                         double add, std::vector<double>& y,
                                         InTarget in_target) const {
  const std::uint64_t* row_ptr = a_.row_ptr().data();
  const ColIndex* col = col_.data();
  const double* values = a_.values().data();
  double* yg = y.data();
  for (std::uint64_t row = 0; row < a_.rows(); ++row) {
    const double xr = r[row];
    if (xr == 0.0) continue;
    for (std::uint64_t k = row_ptr[row]; k < row_ptr[row + 1]; ++k) {
      yg[col[k]] += xr * values[k];
    }
  }
  // Each y'[π(j)] is read once and zeroed for the next scatter.
  const ColIndex* order = order_.data();
  const auto load = [yg, order](std::size_t j) {
    const double yj = yg[order[j]];
    yg[order[j]] = 0.0;
    return yj;
  };
  const IterationStats stats = update_ranks(r, damping, add, load, in_target);
  r_sum = stats.rank_sum;
  return stats;
}

IterationStats PageRankOperator::step(std::vector<double>& r, double& r_sum,
                                      double damping,
                                      std::vector<double>& y) const {
  return advance(r, r_sum, damping, teleport(damping, r_sum, r.size()), y,
                 kEveryVertex);
}

IterationStats PageRankOperator::step(
    std::vector<double>& r, double& r_sum, double damping,
    std::vector<double>& y, const std::vector<std::uint64_t>& restart) const {
  // The restart list is sorted, so the update meets it in order.
  const std::uint64_t* next = restart.data();
  const std::uint64_t* const end = next + restart.size();
  return advance(r, r_sum, damping, teleport(damping, r_sum, restart.size()),
                 y,
                 [&next, end](std::size_t i) {
                   if (next == end || *next != i) return false;
                   ++next;
                   return true;
                 });
}

IterationStats pagerank_update(std::vector<double>& r,
                               const std::vector<double>& y, double damping) {
  return update_ranks(r, damping, teleport(damping, sum(r), r.size()),
                      [&y](std::size_t i) { return y[i]; }, kEveryVertex);
}

void run_pagerank_steps(const PageRankConfig& config,
                        const std::function<IterationStats()>& step) {
  if (!config.observer) {
    for (int it = 0; it < config.iterations; ++it) (void)step();
    return;
  }
  util::Stopwatch iter_watch;
  for (int it = 0; it < config.iterations; ++it) {
    iter_watch.restart();
    IterationStats stats = step();
    stats.seconds = iter_watch.seconds();
    stats.iteration = it;
    config.observer(stats);
  }
}

void pagerank_iterate(const CsrMatrix& a, std::vector<double>& r,
                      const PageRankConfig& config, util::ThreadPool* pool,
                      obs::TraceRecorder* trace) {
  config.validate();
  util::require(a.rows() == a.cols(), "pagerank: matrix must be square");
  util::require(r.size() == a.rows(), "pagerank: r size must equal N");

  // sum(r) for the next update is the rank_sum of the last one.
  const double c = config.damping;
  double r_sum = sum(r);

  if (pool != nullptr && pool->size() > 1) {
    // y = r·A as y[j] = Σ Aᵀ(j, i) · r[i]: each output entry is owned by
    // one task, so rows of Aᵀ partition the work with no atomics.
    const CsrMatrix at = a.transpose();
    std::vector<double> y(a.cols());
    run_pagerank_steps(config, [&] {
      util::parallel_for_chunks(
          *pool, 0, at.rows(), [&](std::uint64_t lo, std::uint64_t hi) {
            for (std::uint64_t j = lo; j < hi; ++j) {
              double acc = 0.0;
              for (std::uint64_t k = at.row_ptr()[j];
                   k < at.row_ptr()[j + 1]; ++k) {
                acc += r[at.col_idx()[k]] * at.values()[k];
              }
              y[j] = acc;
            }
          });
      const IterationStats stats =
          update_ranks(r, c, teleport(c, r_sum, r.size()),
                       [&y](std::size_t i) { return y[i]; }, kEveryVertex);
      r_sum = stats.rank_sum;
      return stats;
    });
    return;
  }

  const PageRankOperator op = [&] {
    const obs::Span span(trace, "k3/group");
    return PageRankOperator(a);
  }();
  std::vector<double> y(a.cols(), 0.0);
  run_pagerank_steps(config, [&] {
    return op.step(r, r_sum, c, y);
  });
}

std::vector<double> pagerank(const CsrMatrix& a, const PageRankConfig& config,
                             util::ThreadPool* pool,
                             obs::TraceRecorder* trace) {
  std::vector<double> r = pagerank_initial_vector(a.rows(), config.seed);
  pagerank_iterate(a, r, config, pool, trace);
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
