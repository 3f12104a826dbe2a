// trace_check — structural validator for Chrome trace_event JSON files
// written by `prpb --trace-out` (and the bench harness). Checks that:
//   * the document parses and has the {"traceEvents": [...]} layout;
//   * every event has a name, a known phase, and non-negative timestamps
//     ('X' events additionally a non-negative duration);
//   * on each thread, complete events nest properly — any two spans are
//     either disjoint or one contains the other (what Perfetto's track
//     layout assumes);
// and prints a per-phase / per-name summary. Exits 1 on any violation, so
// CI can gate on it.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "io/file_stream.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace {

struct SpanRow {
  std::string name;
  std::uint64_t ts = 0;
  std::uint64_t end = 0;
};

int fail(const char* what, const std::string& detail) {
  std::fprintf(stderr, "trace_check: %s: %s\n", what, detail.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace prpb;
  if (argc != 2) {
    std::fprintf(stderr, "usage: trace_check TRACE.json\n");
    return 2;
  }

  try {
    const util::JsonValue document =
        util::JsonValue::parse(io::read_file(argv[1]));
    if (!document.is_object()) {
      return fail("bad document", "top level is not an object");
    }
    const util::JsonValue* events = document.find("traceEvents");
    if (events == nullptr || !events->is_array()) {
      return fail("bad document", "missing \"traceEvents\" array");
    }

    std::map<char, std::size_t> by_phase;
    std::map<std::string, std::size_t> spans_by_name;
    std::map<std::uint64_t, std::vector<SpanRow>> spans_by_tid;

    std::size_t index = 0;
    for (const util::JsonValue& event : events->array()) {
      const std::string where = "event #" + std::to_string(index++);
      if (!event.is_object()) return fail("bad event", where);
      const util::JsonValue* name = event.find("name");
      const util::JsonValue* phase = event.find("ph");
      const util::JsonValue* ts = event.find("ts");
      if (name == nullptr || !name->is_string() || name->string().empty()) {
        return fail("missing name", where);
      }
      if (phase == nullptr || !phase->is_string() ||
          phase->string().size() != 1) {
        return fail("missing phase", where);
      }
      if (ts == nullptr || !ts->is_number() || ts->number() < 0.0) {
        return fail("bad ts", where);
      }
      const char ph = phase->string()[0];
      by_phase[ph] += 1;
      if (ph == 'X') {
        const util::JsonValue* dur = event.find("dur");
        if (dur == nullptr || !dur->is_number() || dur->number() < 0.0) {
          return fail("negative or missing dur", where + " " +
                                                     name->string());
        }
        const util::JsonValue* tid = event.find("tid");
        const auto tid_value =
            tid != nullptr && tid->is_number()
                ? static_cast<std::uint64_t>(tid->number())
                : 0;
        SpanRow row;
        row.name = name->string();
        row.ts = static_cast<std::uint64_t>(ts->number());
        row.end = row.ts + static_cast<std::uint64_t>(dur->number());
        const util::JsonValue* args = event.find("args");
        // Accumulated busy-time events ("acc":1) have synthetic back-dated
        // starts and are exempt from the strict-nesting invariant.
        const bool accumulated = args != nullptr && args->is_object() &&
                                 args->find("acc") != nullptr;
        if (!accumulated) spans_by_tid[tid_value].push_back(row);
        spans_by_name[row.name] += 1;
      } else if (ph != 'C' && ph != 'i') {
        return fail("unknown phase", where + " '" + phase->string() + "'");
      }
    }

    // Nesting: walk each thread's spans sorted by (start asc, end desc) —
    // parents before children on ties — keeping a stack of open spans.
    for (auto& [tid, rows] : spans_by_tid) {
      std::sort(rows.begin(), rows.end(),
                [](const SpanRow& a, const SpanRow& b) {
                  if (a.ts != b.ts) return a.ts < b.ts;
                  return a.end > b.end;
                });
      std::vector<const SpanRow*> open;
      for (const SpanRow& row : rows) {
        while (!open.empty() && row.ts >= open.back()->end) open.pop_back();
        if (!open.empty() && row.end > open.back()->end) {
          return fail("spans overlap without nesting",
                      row.name + " vs " + open.back()->name + " on tid " +
                          std::to_string(tid));
        }
        open.push_back(&row);
      }
    }

    std::printf("trace_check: %s OK\n", argv[1]);
    for (const auto& [ph, count] : by_phase) {
      std::printf("  phase '%c': %zu events\n", ph, count);
    }
    for (const auto& [name, count] : spans_by_name) {
      std::printf("  span %-24s x%zu\n", name.c_str(), count);
    }
  } catch (const util::Error& e) {
    return fail("error", e.what());
  }
  return 0;
}
