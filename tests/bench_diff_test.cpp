// Bench-trajectory model tests: BENCH_kernels.json schema round-trip and
// the noise-band verdict logic bench_diff and CI gate on.
#include "model/trajectory.hpp"

#include <gtest/gtest.h>

#include "io/file_stream.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace prpb {
namespace {

model::BenchCell make_cell(int kernel, const std::string& backend,
                           double seconds, double mad) {
  model::BenchCell cell;
  cell.kernel = kernel;
  cell.backend = backend;
  cell.scale = 14;
  cell.edges = 1 << 18;
  cell.seconds = seconds;
  cell.seconds_mad = mad;
  cell.cpu_seconds = seconds * 0.95;
  cell.repeats = 5;
  cell.edges_per_second = seconds > 0 ? cell.edges / seconds : 0;
  cell.storage = "dir";
  cell.stage_format = "tsv";
  cell.source = "generator";
  return cell;
}

TEST(BenchCell, KeyCoversConfiguration) {
  model::BenchCell cell = make_cell(1, "native", 1.0, 0.01);
  const std::string base_key = cell.key();
  EXPECT_EQ(base_key, "k1|native|14|dir|tsv|generator|");

  model::BenchCell binary = cell;
  binary.stage_format = "binary";
  EXPECT_NE(binary.key(), base_key);
  model::BenchCell algo = cell;
  algo.algorithm = "bfs";
  EXPECT_NE(algo.key(), base_key);
  // Measurements are not identity.
  model::BenchCell slower = cell;
  slower.seconds = 99.0;
  EXPECT_EQ(slower.key(), base_key);
}

TEST(BenchCell, JsonRoundTrips) {
  model::BenchCell cell = make_cell(2, "parallel", 0.75, 0.005);
  cell.peak_rss_bytes = 1u << 26;
  cell.io_read_bytes = 4096;
  cell.io_write_bytes = 8192;
  model::BenchCell plain = make_cell(3, "native", 0.2, 0.001);
  plain.algorithm = "pagerank";

  const std::string json = model::cells_json({cell, plain});
  const auto parsed = model::parse_cells_text(json);
  ASSERT_EQ(parsed.size(), 2u);

  const model::BenchCell& round = parsed[0];
  EXPECT_EQ(round.key(), cell.key());
  EXPECT_DOUBLE_EQ(round.seconds, cell.seconds);
  EXPECT_DOUBLE_EQ(round.seconds_mad, cell.seconds_mad);
  EXPECT_DOUBLE_EQ(round.cpu_seconds, cell.cpu_seconds);
  EXPECT_EQ(round.repeats, cell.repeats);
  EXPECT_EQ(round.peak_rss_bytes, cell.peak_rss_bytes);
  EXPECT_EQ(round.io_read_bytes, cell.io_read_bytes);
  EXPECT_EQ(round.io_write_bytes, cell.io_write_bytes);
  EXPECT_EQ(parsed[1].algorithm, "pagerank");
}

TEST(BenchCell, OldDocumentsParseWithDefaults) {
  // Pre-PR-8 document: no repeats, MAD, CPU, io, or perf fields. The
  // second cell carries the retired kernel-3 CSR-form fields, and the
  // third the retired hardware-counter object; both parse and stay out of
  // the key.
  const std::string old_doc = R"({
    "benchmark": "prpb-kernels",
    "cells": [{
      "kernel": 1, "backend": "native", "scale": 16, "edges": 1048576,
      "seconds": 2.5, "edges_per_second": 419430.4,
      "peak_rss_bytes": 104857600, "storage": "dir",
      "stage_format": "tsv", "fast_path": false, "source": "generator"
    }, {
      "kernel": 3, "backend": "native", "scale": 16, "edges": 1048576,
      "seconds": 0.5, "storage": "dir", "stage_format": "tsv",
      "source": "generator", "algorithm": "pagerank",
      "csr": "plain", "bytes_per_edge": 8
    }, {
      "kernel": 2, "backend": "parallel", "scale": 16, "edges": 1048576,
      "seconds": 0.75, "seconds_mad": 0.005, "repeats": 5,
      "storage": "dir", "stage_format": "tsv", "source": "generator",
      "perf": {"cycles": 3000000000, "instructions": 4500000000,
               "llc_misses": 12000000, "ipc": 1.5, "llc_miss_rate": 0.3,
               "dram_gbps": 0.768, "peak_bandwidth_fraction": 0.06}
    }]
  })";
  const auto cells = model::parse_cells_text(old_doc);
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0].repeats, 1);
  EXPECT_DOUBLE_EQ(cells[0].seconds_mad, 0.0);
  EXPECT_DOUBLE_EQ(cells[0].cpu_seconds, 0.0);
  EXPECT_EQ(cells[0].key(), "k1|native|16|dir|tsv|generator|");
  EXPECT_DOUBLE_EQ(cells[1].seconds, 0.5);
  EXPECT_EQ(cells[1].key(), "k3|native|16|dir|tsv|generator|pagerank");

  model::BenchCell counted = make_cell(2, "parallel", 0.75, 0.005);
  counted.scale = 16;
  EXPECT_EQ(cells[2].key(), counted.key());
  EXPECT_DOUBLE_EQ(cells[2].seconds, 0.75);
  EXPECT_EQ(cells[2].repeats, 5);
  // Written back, the cell carries no counter object.
  const std::string rewritten = model::cells_json({cells[2]});
  EXPECT_EQ(rewritten.find("perf"), std::string::npos) << rewritten;
  EXPECT_EQ(rewritten.find("cycles"), std::string::npos) << rewritten;
}

TEST(BenchDiff, DuplicateKeysAreATypedError) {
  // A baseline from before the fast/ref axis was retired holds both
  // schedules of one cell; they now share a key, and silently keeping
  // either one would judge the candidate against an arbitrary baseline.
  const std::string two_schedules = R"({
    "benchmark": "prpb-kernels",
    "cells": [
      {"kernel": 1, "backend": "native", "scale": 16, "seconds": 2.5,
       "storage": "dir", "stage_format": "tsv", "fast_path": false},
      {"kernel": 1, "backend": "native", "scale": 16, "seconds": 1.5,
       "storage": "dir", "stage_format": "tsv", "fast_path": true}
    ]
  })";
  const auto old_cells = model::parse_cells_text(two_schedules);
  ASSERT_EQ(old_cells.size(), 2u);
  const std::vector<model::BenchCell> one = {old_cells[0]};
  EXPECT_THROW(model::diff_cells(old_cells, one), model::DuplicateCellError);
  EXPECT_THROW(model::diff_cells(one, old_cells), model::DuplicateCellError);
  // Typed as an invariant failure, which bench_diff reports with exit 2.
  EXPECT_THROW(model::diff_cells(old_cells, old_cells), util::InvariantError);
}

TEST(BenchCell, ParseRejectsWrongShape) {
  EXPECT_THROW(model::parse_cells_text("{\"benchmark\": \"other\"}"),
               util::Error);
  EXPECT_THROW(
      model::parse_cells_text("{\"benchmark\": \"prpb-kernels\"}"),
      util::Error);
}

TEST(BenchDiff, FlagsRegressionBeyondBand) {
  const auto base = {make_cell(1, "native", 1.0, 0.01)};
  const auto head = {make_cell(1, "native", 1.3, 0.01)};
  const model::DiffReport report = model::diff_cells(base, head);
  ASSERT_EQ(report.cells.size(), 1u);
  // band = max(0.05, 4 * 0.02 / 1.0) = 0.08 < 0.30 delta.
  EXPECT_EQ(report.cells[0].verdict, model::CellVerdict::kRegression);
  EXPECT_NEAR(report.cells[0].delta_rel, 0.3, 1e-12);
  EXPECT_NEAR(report.cells[0].band_rel, 0.08, 1e-12);
  EXPECT_TRUE(report.regressed());
  EXPECT_EQ(report.regressions, 1);
}

TEST(BenchDiff, JitterWithinBandPasses) {
  const auto base = {make_cell(1, "native", 1.0, 0.01)};
  const auto head = {make_cell(1, "native", 1.04, 0.01)};  // +4% < 5% floor
  const model::DiffReport report = model::diff_cells(base, head);
  EXPECT_FALSE(report.regressed());
  EXPECT_EQ(report.cells[0].verdict, model::CellVerdict::kWithinNoise);
}

TEST(BenchDiff, NoisyCellsWidenTheBand) {
  // A 15% slowdown on a cell whose own MADs say ±2% noise each side:
  // band = max(0.05, 4 * (0.02 + 0.02)) = 0.16 > 0.15 -> within noise.
  const auto base = {make_cell(1, "native", 1.0, 0.02)};
  const auto head = {make_cell(1, "native", 1.15, 0.02)};
  const model::DiffReport report = model::diff_cells(base, head);
  EXPECT_EQ(report.cells[0].verdict, model::CellVerdict::kWithinNoise);
  // The same delta on quiet cells is a real regression.
  const auto quiet_base = {make_cell(1, "native", 1.0, 0.001)};
  const auto quiet_head = {make_cell(1, "native", 1.15, 0.001)};
  EXPECT_TRUE(model::diff_cells(quiet_base, quiet_head).regressed());
}

TEST(BenchDiff, ImprovementAddedRemoved) {
  const std::vector<model::BenchCell> base = {
      make_cell(1, "native", 1.0, 0.001),
      make_cell(2, "native", 1.0, 0.001)};
  const std::vector<model::BenchCell> head = {
      make_cell(1, "native", 0.5, 0.001),   // improvement
      make_cell(2, "parallel", 0.3, 0.001)  // added (k2 native removed)
  };
  const model::DiffReport report = model::diff_cells(base, head);
  EXPECT_FALSE(report.regressed());
  EXPECT_EQ(report.improvements, 1);
  EXPECT_EQ(report.added, 1);
  EXPECT_EQ(report.removed, 1);
  ASSERT_EQ(report.cells.size(), 3u);
  EXPECT_EQ(report.cells[0].verdict, model::CellVerdict::kImprovement);
  EXPECT_EQ(report.cells[1].verdict, model::CellVerdict::kAdded);
  EXPECT_EQ(report.cells[2].verdict, model::CellVerdict::kRemoved);

  // The verdict JSON lists the added cell so CI logs say what grew.
  const util::JsonValue parsed = util::JsonValue::parse(
      model::diff_json(report, "base.json", "head.json"));
  const util::JsonValue* added = parsed.find("summary")->find("added_cells");
  ASSERT_NE(added, nullptr);
  ASSERT_EQ(added->array().size(), 1u);
  EXPECT_EQ(added->array()[0].string(), head[1].key());
}

TEST(BenchDiff, SingleShotCellsUseTheFloor) {
  // Old documents carry no MAD; the 5% floor is the whole band.
  auto base_cell = make_cell(1, "native", 1.0, 0.0);
  base_cell.repeats = 1;
  auto head_cell = make_cell(1, "native", 1.06, 0.0);
  head_cell.repeats = 1;
  const model::DiffReport report =
      model::diff_cells({base_cell}, {head_cell});
  EXPECT_TRUE(report.regressed());
  EXPECT_NEAR(report.cells[0].band_rel, 0.05, 1e-12);
}

TEST(BenchDiff, DegenerateTimingsNeverJudged) {
  const auto base = {make_cell(1, "native", 0.0, 0.0)};
  const auto head = {make_cell(1, "native", 1.0, 0.0)};
  const model::DiffReport report = model::diff_cells(base, head);
  EXPECT_EQ(report.cells[0].verdict, model::CellVerdict::kWithinNoise);
  EXPECT_FALSE(report.regressed());
}

TEST(BenchDiff, VerdictJsonIsMachineReadable) {
  const auto base = {make_cell(1, "native", 1.0, 0.001)};
  const auto head = {make_cell(1, "native", 1.5, 0.001)};
  const model::DiffReport report = model::diff_cells(base, head);
  const std::string json =
      model::diff_json(report, "base.json", "head.json");
  const util::JsonValue parsed = util::JsonValue::parse(json);
  ASSERT_TRUE(parsed.is_object());
  const util::JsonValue* verdict = parsed.find("verdict");
  ASSERT_NE(verdict, nullptr);
  EXPECT_EQ(verdict->string(), "regression");
  const util::JsonValue* summary = parsed.find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_DOUBLE_EQ(summary->find("regressions")->number(), 1.0);
  const util::JsonValue* cells = parsed.find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_EQ(cells->array().size(), 1u);
  EXPECT_EQ(cells->array()[0].find("verdict")->string(), "regression");

  // An all-clear diff reports "ok".
  const model::DiffReport clean = model::diff_cells(base, base);
  const util::JsonValue ok = util::JsonValue::parse(
      model::diff_json(clean, "base.json", "base.json"));
  EXPECT_EQ(ok.find("verdict")->string(), "ok");
}

model::BenchCell make_qps_cell(const std::string& op, double qps,
                               double mad) {
  model::BenchCell cell;
  cell.kernel = -1;
  cell.backend = "native";
  cell.scale = 16;
  cell.edges = 1 << 20;
  cell.algorithm = op;
  cell.storage = "mem";
  cell.stage_format = "tsv";
  cell.source = "generator";
  cell.metric = "qps";
  cell.qps = qps;
  cell.qps_mad = mad;
  cell.p50_ms = 0.05;
  cell.p99_ms = 0.4;
  cell.p999_ms = 1.2;
  cell.repeats = 3;
  return cell;
}

TEST(BenchDiff, QpsCellsFlipTheRegressionDirection) {
  // Throughput is higher-is-better: a drop beyond the band regresses even
  // though the raw delta is negative — the exact delta that would read as
  // an improvement for a seconds cell.
  const auto base = {make_qps_cell("serve:mixed", 50000.0, 100.0)};
  const auto slower = {make_qps_cell("serve:mixed", 35000.0, 100.0)};
  const model::DiffReport drop = model::diff_cells(base, slower);
  ASSERT_EQ(drop.cells.size(), 1u);
  EXPECT_EQ(drop.cells[0].verdict, model::CellVerdict::kRegression);
  EXPECT_NEAR(drop.cells[0].delta_rel, -0.3, 1e-12);
  EXPECT_TRUE(drop.regressed());

  // And a gain is an improvement, not a regression.
  const auto faster = {make_qps_cell("serve:mixed", 65000.0, 100.0)};
  const model::DiffReport gain = model::diff_cells(base, faster);
  EXPECT_EQ(gain.cells[0].verdict, model::CellVerdict::kImprovement);
  EXPECT_FALSE(gain.regressed());

  // Jitter inside the band stays within noise in both directions.
  const auto wiggle = {make_qps_cell("serve:mixed", 48500.0, 100.0)};
  EXPECT_EQ(model::diff_cells(base, wiggle).cells[0].verdict,
            model::CellVerdict::kWithinNoise);

  // The verdict JSON names the qps sides so CI logs stay readable.
  const util::JsonValue parsed = util::JsonValue::parse(
      model::diff_json(drop, "base.json", "head.json"));
  const util::JsonValue& cell = parsed.find("cells")->array()[0];
  EXPECT_DOUBLE_EQ(cell.find("base_qps")->number(), 50000.0);
  EXPECT_DOUBLE_EQ(cell.find("head_qps")->number(), 35000.0);
  EXPECT_EQ(cell.find("base_seconds"), nullptr);
}

TEST(BenchDiff, QpsKeysNeverCollideWithSecondsKeys) {
  const model::BenchCell qps = make_qps_cell("serve:topk", 1000.0, 1.0);
  model::BenchCell seconds = qps;
  seconds.metric = "seconds";
  seconds.seconds = 0.001;
  EXPECT_NE(qps.key(), seconds.key());
  EXPECT_NE(qps.key().find("|metric=qps"), std::string::npos);
  // Seconds cells keep their pre-serving keys: old baselines still match.
  EXPECT_EQ(seconds.key().find("|metric="), std::string::npos);
}

TEST(BenchDiff, ServingDocumentRoundTrips) {
  const auto cells = {make_qps_cell("serve:mixed", 42000.0, 250.0),
                      make_qps_cell("serve:ppr", 900.0, 10.0)};
  const std::string json = model::cells_json(cells, "prpb-serving");
  EXPECT_NE(json.find("\"benchmark\":\"prpb-serving\""), std::string::npos);
  const auto parsed = model::parse_cells_text(json);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].metric, "qps");
  EXPECT_DOUBLE_EQ(parsed[0].qps, 42000.0);
  EXPECT_DOUBLE_EQ(parsed[0].qps_mad, 250.0);
  EXPECT_DOUBLE_EQ(parsed[0].p50_ms, 0.05);
  EXPECT_DOUBLE_EQ(parsed[0].p99_ms, 0.4);
  EXPECT_DOUBLE_EQ(parsed[0].p999_ms, 1.2);
  EXPECT_EQ(parsed[0].key(), (*cells.begin()).key());
  // Identical serving documents diff clean — the CI gate's fixpoint.
  EXPECT_FALSE(model::diff_cells(parsed, parsed).regressed());
}

TEST(BenchDiff, CommittedBaselineStaysParseable) {
  const auto cells = model::parse_cells_text(
      io::read_file(PRPB_SOURCE_DIR "/BENCH_kernels.json"));
  EXPECT_FALSE(cells.empty());
  // Identical documents must diff clean — the CI gate's trivial fixpoint.
  EXPECT_FALSE(model::diff_cells(cells, cells).regressed());
}

}  // namespace
}  // namespace prpb
