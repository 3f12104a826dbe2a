#include "model/trajectory.hpp"

#include <cmath>
#include <unordered_map>

#include "util/error.hpp"
#include "util/json.hpp"

namespace prpb::model {

namespace {

double number_or(const util::JsonValue& cell, const char* key,
                 double fallback) {
  const util::JsonValue* value = cell.find(key);
  return value != nullptr && value->is_number() ? value->number() : fallback;
}

std::uint64_t uint_or(const util::JsonValue& cell, const char* key,
                      std::uint64_t fallback) {
  const util::JsonValue* value = cell.find(key);
  if (value == nullptr || !value->is_number()) return fallback;
  return static_cast<std::uint64_t>(value->number());
}

std::string string_or(const util::JsonValue& cell, const char* key,
                      const std::string& fallback) {
  const util::JsonValue* value = cell.find(key);
  return value != nullptr && value->is_string() ? value->string() : fallback;
}

void write_key_fields(util::JsonWriter& json, const BenchCell& cell) {
  if (cell.kernel >= 0) {
    json.field("kernel", static_cast<std::int64_t>(cell.kernel));
  }
  json.field("backend", cell.backend);
  json.field("scale", static_cast<std::int64_t>(cell.scale));
  json.field("storage", cell.storage);
  json.field("stage_format", cell.stage_format);
  json.field("source", cell.source.empty() ? "generator" : cell.source);
  if (!cell.algorithm.empty()) json.field("algorithm", cell.algorithm);
  if (cell.metric != "seconds") json.field("metric", cell.metric);
}

/// Indexes `cells` by key; a repeated key is a DuplicateCellError.
std::unordered_map<std::string, const BenchCell*> index_cells(
    const std::vector<BenchCell>& cells, const char* document) {
  std::unordered_map<std::string, const BenchCell*> by_key;
  by_key.reserve(cells.size());
  for (const BenchCell& cell : cells) {
    if (!by_key.emplace(cell.key(), &cell).second) {
      throw DuplicateCellError(std::string("bench diff: ") + document +
                               " document repeats cell " + cell.key());
    }
  }
  return by_key;
}

}  // namespace

std::string BenchCell::key() const {
  std::string key = "k";
  key += std::to_string(kernel) + "|" + backend + "|" +
         std::to_string(scale) + "|" + storage + "|" + stage_format + "|" +
         (source.empty() ? "generator" : source) + "|" + algorithm;
  // Appended only for the non-default metric so cells measured before the
  // axis existed keep their keys (old baselines still match).
  if (metric != "seconds") key += "|metric=" + metric;
  return key;
}

std::string cells_json(const std::vector<BenchCell>& cells,
                       const std::string& benchmark) {
  util::JsonWriter json;
  json.begin_object();
  json.field("benchmark", benchmark);
  json.begin_array("cells");
  for (const BenchCell& cell : cells) {
    json.begin_object();
    if (cell.kernel >= 0) {
      json.field("kernel", static_cast<std::int64_t>(cell.kernel));
    }
    json.field("backend", cell.backend);
    json.field("scale", static_cast<std::int64_t>(cell.scale));
    json.field("edges", cell.edges);
    json.field("seconds", cell.seconds);
    json.field("seconds_mad", cell.seconds_mad);
    json.field("cpu_seconds", cell.cpu_seconds);
    json.field("repeats", static_cast<std::int64_t>(cell.repeats));
    json.field("edges_per_second", cell.edges_per_second);
    json.field("peak_rss_bytes", cell.peak_rss_bytes);
    json.field("io_read_bytes", cell.io_read_bytes);
    json.field("io_write_bytes", cell.io_write_bytes);
    json.field("storage", cell.storage);
    json.field("stage_format", cell.stage_format);
    json.field("source", cell.source.empty() ? "generator" : cell.source);
    if (!cell.algorithm.empty()) json.field("algorithm", cell.algorithm);
    if (cell.metric != "seconds") json.field("metric", cell.metric);
    if (cell.metric == "qps") {
      json.field("qps", cell.qps);
      json.field("qps_mad", cell.qps_mad);
      json.field("p50_ms", cell.p50_ms);
      json.field("p99_ms", cell.p99_ms);
      json.field("p999_ms", cell.p999_ms);
    }
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

std::vector<BenchCell> parse_cells(const util::JsonValue& document) {
  util::ensure(document.is_object(),
               "prpb-kernels: top level is not an object");
  const util::JsonValue* kind = document.find("benchmark");
  util::ensure(kind != nullptr && kind->is_string() &&
                   (kind->string() == "prpb-kernels" ||
                    kind->string() == "prpb-serving"),
               "prpb-kernels: missing benchmark marker");
  const util::JsonValue* cells = document.find("cells");
  util::ensure(cells != nullptr && cells->is_array(),
               "prpb-kernels: missing \"cells\" array");

  std::vector<BenchCell> parsed;
  parsed.reserve(cells->array().size());
  for (const util::JsonValue& node : cells->array()) {
    util::ensure(node.is_object(), "prpb-kernels: cell is not an object");
    BenchCell cell;
    cell.kernel = static_cast<int>(number_or(node, "kernel", -1));
    cell.backend = string_or(node, "backend", "");
    util::ensure(!cell.backend.empty(),
                 "prpb-kernels: cell without a backend");
    cell.scale = static_cast<int>(number_or(node, "scale", 0));
    cell.edges = uint_or(node, "edges", 0);
    cell.seconds = number_or(node, "seconds", 0);
    cell.seconds_mad = number_or(node, "seconds_mad", 0);
    cell.cpu_seconds = number_or(node, "cpu_seconds", 0);
    cell.repeats = static_cast<int>(number_or(node, "repeats", 1));
    cell.edges_per_second = number_or(node, "edges_per_second", 0);
    cell.peak_rss_bytes = uint_or(node, "peak_rss_bytes", 0);
    cell.io_read_bytes = uint_or(node, "io_read_bytes", 0);
    cell.io_write_bytes = uint_or(node, "io_write_bytes", 0);
    cell.storage = string_or(node, "storage", "");
    cell.stage_format = string_or(node, "stage_format", "");
    cell.source = string_or(node, "source", "generator");
    cell.algorithm = string_or(node, "algorithm", "");
    cell.metric = string_or(node, "metric", "seconds");
    cell.qps = number_or(node, "qps", 0);
    cell.qps_mad = number_or(node, "qps_mad", 0);
    cell.p50_ms = number_or(node, "p50_ms", 0);
    cell.p99_ms = number_or(node, "p99_ms", 0);
    cell.p999_ms = number_or(node, "p999_ms", 0);
    parsed.push_back(std::move(cell));
  }
  return parsed;
}

std::vector<BenchCell> parse_cells_text(const std::string& text) {
  return parse_cells(util::JsonValue::parse(text));
}

const char* verdict_name(CellVerdict verdict) {
  switch (verdict) {
    case CellVerdict::kWithinNoise: return "within_noise";
    case CellVerdict::kRegression: return "regression";
    case CellVerdict::kImprovement: return "improvement";
    case CellVerdict::kAdded: return "added";
    case CellVerdict::kRemoved: return "removed";
  }
  return "unknown";
}

DiffReport diff_cells(const std::vector<BenchCell>& base,
                      const std::vector<BenchCell>& head,
                      const DiffOptions& options) {
  std::unordered_map<std::string, const BenchCell*> by_key =
      index_cells(base, "baseline");
  index_cells(head, "candidate");  // only the duplicate check is needed

  DiffReport report;
  for (const BenchCell& cell : head) {
    CellDiff diff;
    diff.head = cell;
    const auto it = by_key.find(cell.key());
    if (it == by_key.end()) {
      diff.verdict = CellVerdict::kAdded;
      ++report.added;
      report.cells.push_back(std::move(diff));
      continue;
    }
    diff.base = *it->second;
    by_key.erase(it);
    const double base_value = diff.base.primary_value();
    const double head_value = diff.head.primary_value();
    if (base_value <= 0 || head_value <= 0) {
      // Degenerate measurement on either side — nothing trustworthy.
      diff.verdict = CellVerdict::kWithinNoise;
      ++report.within_noise;
      report.cells.push_back(std::move(diff));
      continue;
    }
    diff.delta_rel = (head_value - base_value) / base_value;
    diff.band_rel = std::max(
        options.min_rel_band,
        options.noise_mult *
            (diff.base.primary_mad() + diff.head.primary_mad()) /
            base_value);
    // Direction-aware: a seconds cell regresses when it got slower
    // (delta above the band); a qps cell regresses when throughput
    // dropped (delta below the negated band).
    const bool worse = diff.head.higher_is_better()
                           ? diff.delta_rel < -diff.band_rel
                           : diff.delta_rel > diff.band_rel;
    const bool better = diff.head.higher_is_better()
                            ? diff.delta_rel > diff.band_rel
                            : diff.delta_rel < -diff.band_rel;
    if (worse) {
      diff.verdict = CellVerdict::kRegression;
      ++report.regressions;
    } else if (better) {
      diff.verdict = CellVerdict::kImprovement;
      ++report.improvements;
    } else {
      diff.verdict = CellVerdict::kWithinNoise;
      ++report.within_noise;
    }
    report.cells.push_back(std::move(diff));
  }
  // Whatever is left in the map exists only in the baseline.
  for (const BenchCell& cell : base) {
    if (by_key.find(cell.key()) == by_key.end()) continue;
    CellDiff diff;
    diff.base = cell;
    diff.verdict = CellVerdict::kRemoved;
    ++report.removed;
    report.cells.push_back(std::move(diff));
  }
  return report;
}

std::string diff_json(const DiffReport& report, const std::string& base_name,
                      const std::string& head_name,
                      const DiffOptions& options) {
  util::JsonWriter json;
  json.begin_object();
  json.field("benchmark", "prpb-bench-diff");
  json.field("baseline", base_name);
  json.field("candidate", head_name);
  json.begin_object("options");
  json.field("noise_mult", options.noise_mult);
  json.field("min_rel_band", options.min_rel_band);
  json.end_object();
  json.begin_array("cells");
  for (const CellDiff& diff : report.cells) {
    json.begin_object();
    const BenchCell& id =
        diff.verdict == CellVerdict::kRemoved ? diff.base : diff.head;
    write_key_fields(json, id);
    json.field("verdict", verdict_name(diff.verdict));
    const bool qps_cell = id.higher_is_better();
    if (diff.verdict != CellVerdict::kAdded) {
      json.field(qps_cell ? "base_qps" : "base_seconds",
                 diff.base.primary_value());
      json.field("base_mad", diff.base.primary_mad());
    }
    if (diff.verdict != CellVerdict::kRemoved) {
      json.field(qps_cell ? "head_qps" : "head_seconds",
                 diff.head.primary_value());
      json.field("head_mad", diff.head.primary_mad());
    }
    if (diff.verdict == CellVerdict::kRegression ||
        diff.verdict == CellVerdict::kImprovement ||
        diff.verdict == CellVerdict::kWithinNoise) {
      json.field("delta_rel", diff.delta_rel);
      json.field("band_rel", diff.band_rel);
    }
    json.end_object();
  }
  json.end_array();
  json.begin_object("summary");
  json.field("regressions", static_cast<std::int64_t>(report.regressions));
  json.field("improvements",
             static_cast<std::int64_t>(report.improvements));
  json.field("within_noise",
             static_cast<std::int64_t>(report.within_noise));
  json.field("added", static_cast<std::int64_t>(report.added));
  json.field("removed", static_cast<std::int64_t>(report.removed));
  // Head-only cells spelled out so CI logs show which configurations a
  // change introduced (e.g. a new scale or backend) —
  // they extend the matrix rather than failing the gate.
  json.begin_array("added_cells");
  for (const CellDiff& diff : report.cells) {
    if (diff.verdict == CellVerdict::kAdded) json.value(diff.head.key());
  }
  json.end_array();
  json.end_object();
  json.field("verdict", report.regressed() ? "regression" : "ok");
  json.end_object();
  return json.str();
}

}  // namespace prpb::model
