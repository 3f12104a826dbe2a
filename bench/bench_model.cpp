// Hardware-model validation (paper §V: "performance predictions can be
// made based on simple computing hardware models").
// Calibrates the model on this machine, predicts every kernel for the
// native and arraylang stacks, measures the real thing, and prints
// predicted vs measured with the ratio.
#include <cstdio>

#include "bench_common.hpp"
#include "model/crossover.hpp"
#include "model/hardware.hpp"
#include "model/predict.hpp"

int main(int argc, char** argv) {
  using namespace prpb;

  util::ArgParser args("bench_model",
                       "hardware-model predictions vs measurements");
  args.add_option("scale", "graph scale to verify at", "16");
  if (!args.parse(argc, argv)) return 0;
  const int scale = static_cast<int>(args.get_int("scale"));

  std::printf("calibrating hardware model...\n");
  const model::HardwareModel hw = model::calibrate();
  std::printf("  memory bandwidth : %s/s\n",
              util::human_bytes(
                  static_cast<std::uint64_t>(hw.memory_bandwidth_bps))
                  .c_str());
  std::printf("  triad bandwidth  : %s/s (peak for achieved-GB/s)\n",
              util::human_bytes(
                  static_cast<std::uint64_t>(hw.triad_bandwidth_bps))
                  .c_str());
  std::printf("  io write / read  : %s/s / %s/s\n",
              util::human_bytes(static_cast<std::uint64_t>(hw.io_write_bps))
                  .c_str(),
              util::human_bytes(static_cast<std::uint64_t>(hw.io_read_bps))
                  .c_str());
  std::printf("  flops            : %.2e\n", hw.flops);
  std::printf("  codec ns/edge    : fast %.0f/%.0f  generic %.0f/%.0f "
              "(format/parse)\n\n",
              hw.fast_format_s * 1e9, hw.fast_parse_s * 1e9,
              hw.generic_format_s * 1e9, hw.generic_parse_s * 1e9);

  bench::SweepOptions options;
  options.min_scale = scale;
  options.max_scale = scale;
  options.backends = {"native", "arraylang"};

  util::TextTable table({"backend", "kernel", "predicted s", "measured s",
                         "ratio"});
  for (int kernel = 0; kernel <= 3; ++kernel) {
    const auto measured = bench::sweep_kernel(options, kernel);
    for (const auto& point : measured) {
      const auto traits = model::backend_traits(point.backend, hw);
      model::KernelPrediction prediction;
      switch (kernel) {
        case 0: prediction = model::predict_kernel0(hw, traits, scale, 16);
                break;
        case 1: prediction = model::predict_kernel1(hw, traits, scale, 16);
                break;
        case 2: prediction = model::predict_kernel2(hw, traits, scale, 16);
                break;
        case 3: prediction = model::predict_kernel3(hw, traits, scale, 16);
                break;
      }
      std::string label = "K";
      label += std::to_string(kernel);
      table.add_row({point.backend, label,
                     util::fixed(prediction.seconds, 4),
                     util::fixed(point.seconds, 4),
                     util::fixed(prediction.seconds /
                                     std::max(point.seconds, 1e-9),
                                 2)});
    }
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("a ratio within ~3x in either direction is the accuracy the "
              "paper's\n'simple hardware models' aim for; the point is "
              "ordering, not precision.\n\n");

  // Crossover analysis: the thresholds the model implies for this machine.
  const std::uint64_t ram = 15ULL << 30;  // report for a 15 GB node
  std::printf("crossover analysis (assuming %s RAM):\n",
              util::human_bytes(ram).c_str());
  std::printf("  paper's target-scale rule (edges ~25%% of RAM): S = %d\n",
              model::target_scale_for_ram(ram));
  std::printf("  largest in-memory kernel-1 sort:               S = %d\n",
              model::max_in_memory_sort_scale(ram));
  for (const char* name : {"native", "arraylang"}) {
    const auto traits = model::backend_traits(name, hw);
    const int cross =
        model::io_bound_crossover_scale(hw, traits, 0, 10, 36);
    if (cross >= 0) {
      std::printf("  %s kernel 0 becomes I/O-bound at:        S = %d\n",
                  name, cross);
    } else {
      std::printf("  %s kernel 0 stays software/compute-bound through "
                  "S = 36\n",
                  name);
    }
  }
  return 0;
}
