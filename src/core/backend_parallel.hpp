#pragma once

#include <cstddef>
#include <memory>

#include "core/backend.hpp"
#include "util/threadpool.hpp"

namespace prpb::core {

/// Thread-parallel backend: the paper's sketched parallel decomposition
/// ("each processor holds a set of rows"). Kernel 0 generates shards
/// concurrently (the counter-based generator needs no communication),
/// kernel 1 runs the chunk-parallel radix sort, kernel 2 parses shards
/// concurrently, kernel 3 runs `sparse::pagerank` on the pool, which
/// partitions the SpMV by output entry via the transposed matrix. Results
/// are bit-identical to `native` for every kernel and thread count: each
/// output entry is still summed in serial row order.
/// DESIGN.md "Kernel schedules" records why each kernel runs the schedule
/// it does.
class ParallelBackend final : public PipelineBackend {
 public:
  /// threads == 0 means hardware concurrency.
  explicit ParallelBackend(std::size_t threads = 0) : threads_(threads) {}

  [[nodiscard]] std::string name() const override { return "parallel"; }

  void kernel0(const KernelContext& ctx) override;
  void kernel1(const KernelContext& ctx) override;
  sparse::CsrMatrix kernel2(const KernelContext& ctx) override;
  std::vector<double> kernel3(const KernelContext& ctx,
                              const sparse::CsrMatrix& matrix) override;

 private:
  /// The worker pool, created on first use and reused across kernels —
  /// per-kernel pool construction would pay thread spawn/join inside the
  /// timed sections.
  util::ThreadPool& pool();

  std::size_t threads_;
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace prpb::core
