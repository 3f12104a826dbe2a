#include "model/crossover.hpp"

#include "sort/external_sort.hpp"
#include "util/error.hpp"

namespace prpb::model {

int max_in_memory_sort_scale(std::uint64_t ram_bytes, int edge_factor) {
  util::require(edge_factor >= 1, "crossover: edge_factor must be >= 1");
  int best = 0;
  for (int scale = 1; scale <= 40; ++scale) {
    const std::uint64_t edges =
        static_cast<std::uint64_t>(edge_factor) << scale;
    if (sort::needs_external_sort(edges, ram_bytes)) break;
    best = scale;
  }
  return best;
}

int target_scale_for_ram(std::uint64_t ram_bytes, double fraction,
                         int edge_factor) {
  util::require(fraction > 0 && fraction <= 1,
                "crossover: fraction must be in (0, 1]");
  const auto budget =
      static_cast<std::uint64_t>(fraction * static_cast<double>(ram_bytes));
  int best = 0;
  for (int scale = 1; scale <= 40; ++scale) {
    const std::uint64_t bytes =
        (static_cast<std::uint64_t>(edge_factor) << scale) * 16;
    if (bytes <= budget) {
      best = scale;
    } else {
      break;
    }
  }
  return best;
}

CostTerm dominant_term(const KernelPrediction& prediction) {
  if (prediction.io_fraction >= prediction.compute_fraction &&
      prediction.io_fraction >= prediction.software_fraction) {
    return CostTerm::kIo;
  }
  if (prediction.compute_fraction >= prediction.software_fraction) {
    return CostTerm::kCompute;
  }
  return CostTerm::kSoftware;
}

const char* cost_term_name(CostTerm term) {
  switch (term) {
    case CostTerm::kIo: return "io";
    case CostTerm::kCompute: return "compute";
    case CostTerm::kSoftware: return "software";
  }
  return "?";
}

int io_bound_crossover_scale(const HardwareModel& hw,
                             const BackendTraits& traits, int kernel,
                             int min_scale, int max_scale, int edge_factor) {
  util::require(kernel >= 0 && kernel <= 3,
                "crossover: kernel must be 0-3");
  util::require(min_scale >= 1 && min_scale <= max_scale,
                "crossover: bad scale range");
  for (int scale = min_scale; scale <= max_scale; ++scale) {
    KernelPrediction p;
    switch (kernel) {
      case 0: p = predict_kernel0(hw, traits, scale, edge_factor); break;
      case 1: p = predict_kernel1(hw, traits, scale, edge_factor); break;
      case 2: p = predict_kernel2(hw, traits, scale, edge_factor); break;
      case 3: p = predict_kernel3(hw, traits, scale, edge_factor); break;
    }
    if (dominant_term(p) == CostTerm::kIo) return scale;
  }
  return -1;
}

}  // namespace prpb::model
