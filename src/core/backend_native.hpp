#pragma once

#include "core/backend.hpp"
#include "sparse/filter.hpp"
#include "util/threadpool.hpp"

namespace prpb::core {

/// Kernel 1 of the backends that sort in memory (native and parallel;
/// graphblas runs native's): reads in_stage, radix-sorts it (over `pool`
/// when one is given, serially otherwise) and writes out_stage. When
/// config.memory_budget_bytes cannot hold the edge list, sorts out of core
/// with the external sort instead and adds 1 to the "k1_external_sort"
/// counter.
void kernel1_sort(const KernelContext& ctx, util::ThreadPool* pool);

/// Tuned serial C++ backend (see backend.hpp for the backend contract).
class NativeBackend final : public PipelineBackend {
 public:
  [[nodiscard]] std::string name() const override { return "native"; }

  void kernel0(const KernelContext& ctx) override;
  void kernel1(const KernelContext& ctx) override;
  sparse::CsrMatrix kernel2(const KernelContext& ctx) override;
  std::vector<double> kernel3(const KernelContext& ctx,
                              const sparse::CsrMatrix& matrix) override;

  /// Filter statistics from the most recent kernel2 call.
  [[nodiscard]] const sparse::FilterReport& filter_report() const {
    return filter_report_;
  }

 private:
  sparse::FilterReport filter_report_;
};

}  // namespace prpb::core
