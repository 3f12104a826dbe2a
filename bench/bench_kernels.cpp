// Machine-readable per-kernel benchmark: every cell of
// {kernel 0-3} x {backend} at each sweep scale, with
// edges/sec, median seconds, and peak RSS, written as one JSON document
// (BENCH_kernels.json). The I/O-bound kernels 0-2 are additionally swept
// over {stage_format tsv|binary} x {storage dir|mem} so the document
// carries the codec and store ablation; kernel 3 runs on the CLI-selected
// combo only, since the compute kernel's cost does not depend on stage
// encoding. This is the artifact CI and the ablation docs consume; the
// human-readable figure benches (bench_fig4..7) stay the per-kernel
// narrative views.
//
//   bench_kernels --min-scale 16 --max-scale 16
//       --backends native,parallel --json BENCH_kernels.json
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace prpb;

  bench::SweepOptions options;
  options.backends = {"native", "parallel"};
  options.algorithms = core::algorithm_names();
  if (!bench::parse_sweep_options(
          argc, argv, "bench_kernels",
          "all kernels x backends (x algorithm for kernel 3), as JSON",
          options)) {
    return 0;
  }
  if (options.json_path.empty()) options.json_path = "BENCH_kernels.json";

  try {
    // One recorder spans every sweep so --trace-out captures the whole
    // grid (per-sweep recorders would each overwrite the file).
    obs::TraceRecorder recorder(!options.trace_out.empty());
    obs::TraceRecorder* trace =
        recorder.enabled() ? &recorder : nullptr;
    std::vector<bench::SeriesPoint> cells;
    bench::SweepOptions cell_options = options;
    cell_options.csv_path.clear();
    cell_options.json_path.clear();
    cell_options.trace_out.clear();
    struct Combo {
      const char* format;
      const char* storage;
    };
    static constexpr Combo kCombos[] = {
        {"tsv", "dir"}, {"binary", "dir"}, {"tsv", "mem"}, {"binary", "mem"}};
    for (const auto& combo : kCombos) {
      cell_options.stage_format = combo.format;
      cell_options.storage = combo.storage;
      for (int kernel = 0; kernel <= 2; ++kernel) {
        std::fprintf(stderr, "[bench_kernels] kernel %d, %s/%s\n", kernel,
                     combo.format, combo.storage);
        const auto points =
            bench::sweep_kernel(cell_options, kernel, "pagerank", trace);
        cells.insert(cells.end(), points.begin(), points.end());
      }
    }
    cell_options.stage_format = options.stage_format;
    cell_options.storage = options.storage;
    for (const auto& algorithm : cell_options.algorithms) {
      std::fprintf(stderr, "[bench_kernels] kernel 3/%s\n",
                   algorithm.c_str());
      const auto points =
          bench::sweep_kernel(cell_options, 3, algorithm, trace);
      cells.insert(cells.end(), points.begin(), points.end());
    }

    io::write_file(options.json_path, bench::kernels_json(cells) + "\n");
    std::printf("wrote %zu cells to %s\n", cells.size(),
                options.json_path.c_str());
    if (trace != nullptr) {
      trace->write_chrome_trace(options.trace_out);
      std::printf("wrote %zu trace events to %s\n", trace->event_count(),
                  options.trace_out.c_str());
    }

    bench::print_series("kernel cells", cells);
  } catch (const util::Error& e) {
    std::fprintf(stderr, "bench_kernels: error: %s\n", e.what());
    return 1;
  }
  return 0;
}
