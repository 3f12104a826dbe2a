// Benchmark-trajectory model: the BENCH_kernels.json cell schema, its
// serializer/parser, and the noise-aware cell-by-cell diff that decides
// whether a perf change is a real regression or run-to-run jitter.
//
// A cell is one (kernel, backend, scale, storage, stage_format, source,
// algorithm) measurement. Since PR 8 a cell carries its noise
// model — `repeats` timings reduced to a median and a MAD (median absolute
// deviation) — plus CPU seconds and /proc/self/io disk traffic.
// Old documents without those fields parse fine: repeats defaults to 1,
// the MAD to 0, and the diff falls back to the minimum relative band.
// Unknown keys (such as the `perf` counter objects older cells carry) are
// skipped.
//
// The diff declares a regression only when the median slowdown exceeds
//   band = max(min_rel_band, noise_mult · (MAD_base + MAD_head) / median_base)
// — i.e. a delta has to clear both an absolute floor (protects single-shot
// baselines) and a multiple of the combined measured noise.
//
// Since PR 10 a cell can measure throughput instead of latency: serving
// cells (BENCH_serving.json, written by bench_serving) carry
// metric = "qps" with a qps median/MAD and client-observed latency
// percentiles. The diff is direction-aware — for a qps cell *lower* is
// the regression, so the same band test runs with the sign flipped.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace prpb::util {
class JsonValue;
}

namespace prpb::model {

/// One benchmark cell of the BENCH_kernels.json document.
struct BenchCell {
  int kernel = -1;  ///< 0-3, or -1 for whole-pipeline cells
  std::string backend;
  int scale = 0;
  std::uint64_t edges = 0;
  double seconds = 0;        ///< median wall seconds across repeats
  double seconds_mad = 0;    ///< median absolute deviation of the repeats
  double cpu_seconds = 0;    ///< user+sys CPU of the median trial
  int repeats = 1;           ///< timings the median/MAD were reduced from
  double edges_per_second = 0;  ///< wall-based (keeps the existing clamp)
  std::uint64_t peak_rss_bytes = 0;
  std::uint64_t io_read_bytes = 0;   ///< /proc/self/io delta (0 if masked)
  std::uint64_t io_write_bytes = 0;
  // Cell configuration labels, part of the identity key.
  std::string storage;
  std::string stage_format;
  std::string source;     ///< graph source the cell ran on
  std::string algorithm;  ///< kernel-3 cells: the algorithm measured
  /// Primary measurement of the cell: "seconds" (kernel cells, lower is
  /// better) or "qps" (serving cells, higher is better). Part of the
  /// identity key only when non-default, so pre-existing cells keep their
  /// keys. The diff judges the matching value with the matching direction.
  std::string metric = "seconds";
  // Serving measurements (metric == "qps").
  double qps = 0;      ///< median sustained queries/second across repeats
  double qps_mad = 0;  ///< MAD of the per-repeat QPS
  double p50_ms = 0;   ///< client-observed per-request latency percentiles
  double p99_ms = 0;
  double p999_ms = 0;

  /// Identity for cell-by-cell diffs (everything but the measurements).
  [[nodiscard]] std::string key() const;

  /// True for throughput cells (higher primary value is better).
  [[nodiscard]] bool higher_is_better() const { return metric == "qps"; }
  /// The primary measured value the diff judges (seconds or qps).
  [[nodiscard]] double primary_value() const {
    return higher_is_better() ? qps : seconds;
  }
  [[nodiscard]] double primary_mad() const {
    return higher_is_better() ? qps_mad : seconds_mad;
  }
};

/// Serializes cells as a machine-readable benchmark document
/// ({"benchmark": <marker>, "cells": [...]}). The marker defaults to the
/// kernel document ("prpb-kernels"); bench_serving writes "prpb-serving".
std::string cells_json(const std::vector<BenchCell>& cells,
                       const std::string& benchmark = "prpb-kernels");

/// Parses a prpb-kernels or prpb-serving document; pre-PR-8 documents (no
/// repeats / MAD / counter fields) load with defaults. Throws
/// util::IoError on malformed JSON and util::InvariantError on a wrong
/// document shape.
std::vector<BenchCell> parse_cells(const util::JsonValue& document);
std::vector<BenchCell> parse_cells_text(const std::string& text);

struct DiffOptions {
  /// Band width in combined MADs — ~4 keeps false alarms rare while a
  /// genuine 10% slowdown on a quiet cell still trips it.
  double noise_mult = 4.0;
  /// Relative band floor; also the whole band for single-shot cells.
  double min_rel_band = 0.05;
};

enum class CellVerdict {
  kWithinNoise,
  kRegression,   ///< median slowdown beyond the noise band
  kImprovement,  ///< median speedup beyond the noise band
  kAdded,        ///< cell only in the head document
  kRemoved,      ///< cell only in the base document
};
const char* verdict_name(CellVerdict verdict);

struct CellDiff {
  BenchCell base;  ///< default-constructed for kAdded
  BenchCell head;  ///< default-constructed for kRemoved
  CellVerdict verdict = CellVerdict::kWithinNoise;
  /// Relative change of the cell's primary value ((head - base) / base):
  /// seconds for kernel cells, qps for serving cells. The verdict is
  /// direction-aware — for qps, delta_rel < -band is the regression.
  double delta_rel = 0;
  double band_rel = 0;  ///< the noise band the delta was judged against
};

struct DiffReport {
  std::vector<CellDiff> cells;  ///< head order, then removed base cells
  int regressions = 0;
  int improvements = 0;
  int within_noise = 0;
  int added = 0;
  int removed = 0;

  /// The CI gate: true when any matched cell regressed.
  [[nodiscard]] bool regressed() const { return regressions > 0; }
};

/// Two cells of one document share a BenchCell::key(), so the diff could
/// not tell which of them a cell of the other document matches (e.g. a
/// baseline that still carries the retired fast/ref axis).
class DuplicateCellError final : public util::InvariantError {
 public:
  explicit DuplicateCellError(const std::string& what)
      : util::InvariantError(what) {}
};

/// Cell-by-cell comparison of two documents' cells, keyed on
/// BenchCell::key(). Added/removed cells never count as regressions.
/// Throws DuplicateCellError when either document repeats a key.
DiffReport diff_cells(const std::vector<BenchCell>& base,
                      const std::vector<BenchCell>& head,
                      const DiffOptions& options = {});

/// Machine-readable verdict document ({"benchmark": "prpb-bench-diff",
/// ..., "verdict": "regression" | "ok"}) for CI consumption.
std::string diff_json(const DiffReport& report, const std::string& base_name,
                      const std::string& head_name,
                      const DiffOptions& options = {});

}  // namespace prpb::model
