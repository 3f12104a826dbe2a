// bench_diff: noise-aware comparison of two benchmark cell documents
// (BENCH_kernels.json, BENCH_serving.json).
//
// Compares the candidate against the baseline cell-by-cell (matched on the
// full cell identity: kernel, backend, scale, storage, stage format,
// source, algorithm, metric) and flags a regression
// only when the median change exceeds a band derived from both documents'
// recorded MADs — run-to-run jitter inside the band is reported but never
// fails. The check is direction-aware: seconds cells regress when slower,
// qps (serving throughput) cells regress when throughput drops.
// Cells present only in the candidate (e.g. a newly swept scale or
// backend) are "added": they extend the matrix, never fail the gate, and
// are listed in the --json verdict's summary.added_cells.
//
//   bench_diff BENCH_kernels.json BENCH_new.json [--json verdict.json]
//
// Exit status: 0 when no cell regressed, 1 on regression, 2 on usage or
// I/O errors or a document that repeats a cell — so CI can gate on the
// code and archive the JSON verdict.
#include <cstdio>

#include "io/file_stream.hpp"
#include "model/trajectory.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/format.hpp"

namespace {

std::string percent(double fraction) {
  return prpb::util::fixed(fraction * 100.0, 1) + "%";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace prpb;

  util::ArgParser args(
      "bench_diff",
      "compare two BENCH_kernels.json documents cell-by-cell;\n"
      "usage: bench_diff <baseline.json> <candidate.json>");
  args.add_option("noise-mult",
                  "regression band width in combined MADs", "4.0");
  args.add_option("min-rel",
                  "relative band floor (also the whole band for "
                  "single-shot cells)", "0.05");
  args.add_option("json", "write the machine-readable verdict here", "");
  args.add_flag("quiet", "suppress the per-cell table");

  try {
    if (!args.parse(argc, argv)) return 0;
    if (args.positional().size() != 2) {
      std::fprintf(stderr,
                   "bench_diff: expected exactly two positional arguments "
                   "(baseline.json candidate.json)\n%s",
                   args.help().c_str());
      return 2;
    }
    const std::string& base_path = args.positional()[0];
    const std::string& head_path = args.positional()[1];

    model::DiffOptions options;
    options.noise_mult = args.get_double("noise-mult");
    options.min_rel_band = args.get_double("min-rel");
    util::require(options.noise_mult >= 0, "--noise-mult must be >= 0");
    util::require(options.min_rel_band >= 0, "--min-rel must be >= 0");

    const auto base = model::parse_cells_text(io::read_file(base_path));
    const auto head = model::parse_cells_text(io::read_file(head_path));
    const model::DiffReport report = model::diff_cells(base, head, options);

    if (!args.get_flag("quiet")) {
      // "base"/"head" carry the cell's primary value: seconds for kernel
      // cells, QPS (suffixed "/s") for serving cells.
      util::TextTable table(
          {"cell", "base", "head", "delta", "band", "verdict"});
      for (const model::CellDiff& diff : report.cells) {
        const model::BenchCell& id =
            diff.verdict == model::CellVerdict::kRemoved ? diff.base
                                                         : diff.head;
        const bool matched = diff.verdict != model::CellVerdict::kAdded &&
                             diff.verdict != model::CellVerdict::kRemoved;
        const auto show = [&id](const model::BenchCell& cell) {
          return id.higher_is_better()
                     ? util::fixed(cell.primary_value(), 0) + "/s"
                     : util::fixed(cell.primary_value(), 4) + " s";
        };
        table.add_row(
            {id.key(),
             diff.verdict == model::CellVerdict::kAdded ? "-"
                                                        : show(diff.base),
             diff.verdict == model::CellVerdict::kRemoved ? "-"
                                                          : show(diff.head),
             matched ? percent(diff.delta_rel) : "-",
             matched ? percent(diff.band_rel) : "-",
             model::verdict_name(diff.verdict)});
      }
      std::printf("%s\n", table.str().c_str());
    }
    std::printf(
        "bench_diff: %d regression(s), %d improvement(s), %d within "
        "noise, %d added, %d removed -> %s\n",
        report.regressions, report.improvements, report.within_noise,
        report.added, report.removed,
        report.regressed() ? "REGRESSION" : "ok");

    if (!args.get("json").empty()) {
      io::write_file(args.get("json"),
                     model::diff_json(report, base_path, head_path, options) +
                         "\n");
    }
    return report.regressed() ? 1 : 0;
  } catch (const util::Error& e) {
    std::fprintf(stderr, "bench_diff: error: %s\n", e.what());
    return 2;
  }
}
