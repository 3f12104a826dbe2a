#include "model/predict.hpp"

#include <cmath>

#include "util/error.hpp"

namespace prpb::model {

namespace {
struct Terms {
  double io = 0;
  double compute = 0;
  double software = 0;
};

KernelPrediction finish(const Terms& terms, double edges) {
  KernelPrediction p;
  p.seconds = terms.io + terms.compute + terms.software;
  p.edges_per_second = p.seconds > 0 ? edges / p.seconds : 0;
  if (p.seconds > 0) {
    p.io_fraction = terms.io / p.seconds;
    p.compute_fraction = terms.compute / p.seconds;
    p.software_fraction = terms.software / p.seconds;
  }
  return p;
}

double edges_of(int scale, int edge_factor) {
  return static_cast<double>(edge_factor) *
         static_cast<double>(1ULL << scale);
}
}  // namespace

double tsv_edge_bytes(int scale) {
  // Vertex labels are uniform-ish over [0, 2^scale): average decimal digit
  // count approximates log10(2^scale) (most draws land in the top decade).
  const double digits =
      std::max(1.0, std::log10(std::pow(2.0, scale)));
  return 2.0 * digits + 2.0;  // two labels + tab + newline
}

BackendTraits backend_traits(const std::string& backend,
                             const HardwareModel& hw) {
  BackendTraits t;
  t.name = backend;
  if (backend == "native" || backend == "parallel" ||
      backend == "graphblas") {
    t.format_s = hw.fast_format_s;
    t.parse_s = hw.fast_parse_s;
    t.dispatch_s = 0;
    t.sort_byte_passes = 8;  // radix passes over 16-byte records
    return t;
  }
  if (backend == "arraylang") {
    t.format_s = hw.generic_format_s;
    t.parse_s = hw.generic_parse_s;
    // boxing + permutation gathers + double<->index conversions
    t.dispatch_s = 8e-9;
    t.sort_byte_passes = 12;  // comparison sort through an index permutation
    return t;
  }
  if (backend == "dataframe") {
    t.format_s = hw.generic_format_s;
    t.parse_s = hw.generic_parse_s;
    t.dispatch_s = 4e-9;  // columnar but type-dispatched per operation
    t.sort_byte_passes = 12;
    return t;
  }
  throw util::ConfigError("backend_traits: unknown backend '" + backend +
                          "'");
}

KernelPrediction predict_kernel0(const HardwareModel& hw,
                                 const BackendTraits& traits, int scale,
                                 int edge_factor) {
  const double m = edges_of(scale, edge_factor);
  const double bytes = m * tsv_edge_bytes(scale);
  Terms t;
  t.io = bytes / hw.io_write_bps;
  // generation: 2*scale single-round splitmix mixes per edge (the stream
  // keys are hoisted per generator), each a few ns of ALU work
  t.compute = m * static_cast<double>(scale) * 8.0 / hw.flops;
  t.software = m * (traits.format_s + traits.dispatch_s);
  return finish(t, m);
}

KernelPrediction predict_kernel1(const HardwareModel& hw,
                                 const BackendTraits& traits, int scale,
                                 int edge_factor) {
  const double m = edges_of(scale, edge_factor);
  const double text_bytes = m * tsv_edge_bytes(scale);
  const double record_bytes = m * 16.0;
  Terms t;
  t.io = text_bytes / hw.io_read_bps + text_bytes / hw.io_write_bps;
  t.compute = record_bytes * traits.sort_byte_passes / 8.0 * 2.0 /
              hw.memory_bandwidth_bps;
  t.software = m * (traits.parse_s + traits.format_s + traits.dispatch_s);
  return finish(t, m);
}

KernelPrediction predict_kernel2(const HardwareModel& hw,
                                 const BackendTraits& traits, int scale,
                                 int edge_factor) {
  const double m = edges_of(scale, edge_factor);
  const double text_bytes = m * tsv_edge_bytes(scale);
  const double record_bytes = m * 16.0;
  Terms t;
  t.io = text_bytes / hw.io_read_bps;
  // build (bucket + sort + dedup) ~ 4 record passes; degree sums ~ 1 pass
  t.compute = record_bytes * 5.0 * 2.0 / hw.memory_bandwidth_bps;
  t.software = m * (traits.parse_s + traits.dispatch_s);
  return finish(t, m);
}

KernelPrediction predict_kernel3(const HardwareModel& hw,
                                 const BackendTraits& traits, int scale,
                                 int edge_factor, int iterations) {
  const double m = edges_of(scale, edge_factor);
  Terms t;
  // Per iteration: one SpMV touching ~20 bytes per stored edge (index +
  // value + scattered y access) and 2 flops per stored edge. All stacks
  // funnel into the same vectorized SpMV — hence the paper's small
  // kernel-3 dispersion — so dispatch applies per *iteration*, not per edge.
  const double iters = static_cast<double>(iterations);
  t.compute = iters * (m * 20.0 / hw.memory_bandwidth_bps +
                       m * 2.0 / hw.flops);
  t.software = iters * 64.0 * traits.dispatch_s * 1e3;
  return finish(t, iters * m);
}

PipelinePrediction predict_pipeline(const HardwareModel& hw,
                                    const BackendTraits& traits, int scale,
                                    int edge_factor, int iterations) {
  PipelinePrediction p;
  p.k0 = predict_kernel0(hw, traits, scale, edge_factor);
  p.k1 = predict_kernel1(hw, traits, scale, edge_factor);
  p.k2 = predict_kernel2(hw, traits, scale, edge_factor);
  p.k3 = predict_kernel3(hw, traits, scale, edge_factor, iterations);
  return p;
}

}  // namespace prpb::model
