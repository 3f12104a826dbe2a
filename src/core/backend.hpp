// Backend interface: one implementation of the four pipeline kernels.
//
// The paper evaluates the same mathematically fixed kernels across six
// language stacks. This repo's backends are C++ implementations occupying
// the same software-stack niches (see DESIGN.md §2):
//   native     — tuned C++ (the paper's C++ entry)
//   parallel   — thread-parallel native (paper's "future work" direction)
//   graphblas  — kernels 2-3 via the mini-GraphBLAS layer
//   arraylang  — interpreted vectorized array language (Matlab/Octave niche)
//   dataframe  — typed dataframe engine (Python-with-Pandas niche)
//
// Kernels receive a KernelContext — configuration, the StageStore holding
// the stages, the runner-assigned stage names, and a metrics sink — never
// raw filesystem paths. Storage (dir vs. mem) is therefore a harness
// decision invisible to kernel code.
//
// Every backend must produce identical results from the same
// PipelineConfig: the same edge stage after K0, the same sorted stage after
// K1, the same normalized matrix after K2 and the same r after K3, bit for
// bit — on every storage tier. Integration tests enforce this pairwise and
// across stores.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/algorithm.hpp"
#include "core/config.hpp"
#include "core/kernel_context.hpp"
#include "sparse/csr.hpp"

namespace prpb::core {

class PipelineBackend {
 public:
  virtual ~PipelineBackend() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Kernel 0: generate the graph and write TSV edge shards to
  /// ctx.out_stage.
  virtual void kernel0(const KernelContext& ctx) = 0;

  /// Kernel 1: read ctx.in_stage, sort by start vertex, write to
  /// ctx.out_stage (spilling through ctx.temp_stage when the memory budget
  /// forces the external sort).
  virtual void kernel1(const KernelContext& ctx) = 0;

  /// Kernel 2: read ctx.in_stage, build + filter + normalize the adjacency
  /// matrix.
  virtual sparse::CsrMatrix kernel2(const KernelContext& ctx) = 0;

  /// Kernel 3: fixed-iteration PageRank on the kernel-2 matrix.
  virtual std::vector<double> kernel3(const KernelContext& ctx,
                                      const sparse::CsrMatrix& matrix) = 0;

  /// Kernel-3 algorithm stage: run one canonical algorithm (see
  /// core/algorithm.hpp) over the kernel-2 matrix. The base implementation
  /// routes "pagerank" through kernel3() — so the paper's fixed pipeline
  /// stays bit-identical per backend — and every other algorithm through
  /// the shared sparse/ reference implementations (the documented fallback,
  /// bit-identical across backends by construction). Backends whose niche
  /// has a native formulation (e.g. graphblas) override per algorithm.
  virtual AlgorithmResult run_algorithm(const KernelContext& ctx,
                                        const sparse::CsrMatrix& matrix,
                                        const std::string& algorithm);
};

/// Factory. Known names: native, parallel, graphblas, arraylang, dataframe.
/// Throws ConfigError for unknown names.
std::unique_ptr<PipelineBackend> make_backend(const std::string& name);

/// All registered backend names, in canonical report order.
std::vector<std::string> backend_names();

}  // namespace prpb::core
