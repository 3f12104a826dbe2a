#pragma once

#include "core/backend.hpp"
#include "sparse/filter.hpp"

namespace prpb::core {

/// Kernel 1's out-of-core branch, shared by the backends that otherwise
/// sort in memory (native and parallel; graphblas runs native's kernel 1).
/// When config.memory_budget_bytes cannot hold the edge list, sorts
/// in_stage into out_stage with the external sort, adds 1 to the
/// "k1_external_sort" counter and returns true; otherwise does nothing and
/// returns false.
bool kernel1_external_sort(const KernelContext& ctx);

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
