// Shared definitions of the repository benchmark: the workload table, the
// options the command line sets, and the result every run prints as its
// last line of standard output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One benchmark workload: a pipeline configuration whose K1→K3 is timed
/// on a stage store set up by K0.
struct Workload {
  std::string name;
  int scale = 18;
  std::string stage_format;  ///< "tsv" | "binary"
  std::string storage;       ///< "dir" | "mem"
};

const std::vector<Workload>& workloads();
/// Null when `name` names no workload.
const Workload* find_workload(const std::string& name);

/// The paper's generator seed, at which the K3 digests are pinned.
inline constexpr std::uint64_t kDefaultSeed = 20160205;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Overrides the workload's scale (the self-test runs tiny graphs).
  int scale = 0;
  /// Deliberate fault for the self-test: "" | "bad-digest" | "drop-reply".
  std::string fault;
  /// Scratch directory for dir-store stages (inside the checkout).
  std::string work_dir = ".bench_work";
};

/// What one run prints: correctness, operation counts and named metrics.
struct Result {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Marks the run incorrect and says why on standard error.
  void wrong(const std::string& why);
  /// The single-line JSON object of the benchmark contract.
  [[nodiscard]] std::string json() const;
};

/// The K3 rank digest pinned for `scale` at the default seed (both stage
/// codecs give it); empty when no pin exists for that scale.
std::string pinned_digest(int scale);

double median(std::vector<double> values);
/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();
/// Progress line on standard error.
void note(const char* format, ...) __attribute__((format(printf, 1, 2)));

Result run_pipeline_workload(const Workload& workload, const Options& options);

}  // namespace perfbench
