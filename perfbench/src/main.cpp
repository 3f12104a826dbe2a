// perfbench — the repository benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics of the workload, measured with
// no instrumentation; --trace 1 runs the traced pass that prints the
// per-layer metrics. Either way the last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Progress and
// diagnostics go to standard error. perfbench/README.md explains the
// workloads and metrics; perfbench/run.py builds and runs this program.
#include <sys/resource.h>

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"
#include "core/backend.hpp"
#include "pipeline.hpp"
#include "util/stats.hpp"

namespace perfbench {

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      {"pipeline-tsv-s18", 18, "tsv", "dir"},
      {"pipeline-binary-s18", 18, "binary", "mem"},
  };
  return table;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& workload : workloads()) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

std::string pinned_digest(int scale) {
  switch (scale) {
    case 18:
      return "d95d8f88872544a2";
    case 19:
      return "15e022adfe57e5b7";
    default:
      return {};
  }
}

void Result::wrong(const std::string& why) {
  correct = false;
  note("INCORRECT: %s", why.c_str());
}

std::string Result::json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

double median(std::vector<double> values) {
  return prpb::util::median(std::move(values));
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void note(const char* format, ...) {
  std::fputs("[perfbench] ", stderr);
  va_list args;
  va_start(args, format);
  std::vfprintf(stderr, format, args);
  va_end(args);
  std::fputc('\n', stderr);
}

namespace {

/// The traced run of any workload: the workload's pipeline with layer
/// spans, then the serve layer over that pipeline's matrix and ranks.
Result run_traced(const Workload& workload, const Options& options) {
  Result result;
  StagedGraph graph{pipeline_config(workload, options), nullptr,
                    prpb::core::make_backend("native")};
  const ScratchDir scratch(graph.config.work_dir);
  prpb::core::PipelineResult pipeline =
      trace_pipeline_layers(graph, options, result);
  graph.store.reset();
  trace_serve_layers(std::move(pipeline), workload, options, result);
  return result;
}

int usage(const char* problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--scale <S>] "
               "[--fault bad-digest|drop-reply] [--work-dir <dir>]\n"
               "workloads:",
               problem);
  for (const Workload& workload : workloads()) {
    std::fprintf(stderr, " %s", workload.name.c_str());
  }
  std::fputc('\n', stderr);
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage("--trace takes 0 or 1");
      }
      options.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--scale") {
      options.scale = static_cast<int>(std::strtol(value, &end, 10));
    } else if (flag == "--fault") {
      options.fault = value;
      if (options.fault != "bad-digest" && options.fault != "drop-reply") {
        return usage(("unknown fault " + options.fault).c_str());
      }
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return usage(("bad value for " + flag).c_str());
    }
  }
  const Workload* workload = find_workload(options.workload);
  if (workload == nullptr) return usage("unknown or missing --workload");
  if (!(options.seconds > 0)) return usage("--seconds must be > 0");

  try {
    const Result result = options.trace
                              ? run_traced(*workload, options)
                              : run_pipeline_workload(*workload, options);
    for (const Result::Metric& metric : result.metrics) {
      note("%-34s %.6g %s", metric.name.c_str(), metric.value,
           metric.unit.c_str());
    }
    std::printf("%s\n", result.json().c_str());
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: error: %s\n", error.what());
    return 1;
  }
}
