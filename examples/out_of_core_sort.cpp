// Out-of-core kernel 1 — the paper: "if u and v are too large to fit in
// memory, then an out-of-core algorithm would be required."
//
// Writes a stage, sorts it twice — once fully in memory, once through the
// external merge sort with a deliberately tiny RAM budget — and verifies
// the two sorted stages are byte-identical.
#include <cstdio>

#include "gen/kronecker.hpp"
#include "io/edge_files.hpp"
#include "io/stage_store.hpp"
#include "io/tsv.hpp"
#include "sort/edge_sort.hpp"
#include "sort/external_sort.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/fs.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace prpb;

  util::ArgParser args("out_of_core_sort",
                       "external vs in-memory kernel-1 sort demo");
  args.add_option("scale", "graph scale", "16");
  args.add_option("budget-kb", "external sort RAM budget (KiB)", "512");
  if (!args.parse(argc, argv)) return 0;

  const int scale = static_cast<int>(args.get_int("scale"));
  const std::uint64_t budget =
      static_cast<std::uint64_t>(args.get_int("budget-kb")) * 1024;

  gen::KroneckerParams params;
  params.scale = scale;
  gen::KroneckerGenerator generator(params);
  util::TempDir work("prpb-ooc");
  io::DirStageStore store(work.path());
  const io::StageCodec& codec = io::tsv_codec(io::Codec::kFast);
  io::write_generated_edges(store, "input", generator, 4, codec);
  std::printf("stage 0: %s edges, %s on disk\n",
              util::human_count(generator.num_edges()).c_str(),
              util::human_bytes(util::dir_bytes(work.path() / "input"))
                  .c_str());

  const std::uint64_t required = 2 * generator.num_edges() * sizeof(gen::Edge);
  std::printf("policy at a %s budget: %s (in-memory would need %s)\n\n",
              util::human_bytes(budget).c_str(),
              sort::needs_external_sort(generator.num_edges(), budget)
                  ? "EXTERNAL sort"
                  : "in-memory sort",
              util::human_bytes(required).c_str());

  // In-memory reference.
  util::Stopwatch mem_watch;
  {
    gen::EdgeList edges = io::read_all_edges(store, "input", codec);
    sort::radix_sort(edges);
    io::write_edge_list(store, "sorted_mem", edges, 4, codec);
  }
  const double mem_seconds = mem_watch.seconds();

  // External with the tiny budget.
  sort::ExternalSortConfig config;
  config.memory_budget_bytes = budget;
  config.output_shards = 4;
  config.stage_codec = &codec;
  util::Stopwatch ext_watch;
  const auto stats = sort::external_sort_stage(store, "input", "sorted_ext",
                                               "tmp", config);
  const double ext_seconds = ext_watch.seconds();

  std::printf("in-memory: %.3fs (%s edges/s)\n", mem_seconds,
              util::sci(static_cast<double>(generator.num_edges()) /
                        mem_seconds)
                  .c_str());
  std::printf("external:  %.3fs (%s edges/s), %zu initial runs, %zu merge "
              "passes, %s spilled (encoded)\n",
              ext_seconds,
              util::sci(static_cast<double>(stats.edges) / ext_seconds)
                  .c_str(),
              stats.initial_runs, stats.merge_passes,
              util::human_bytes(stats.spill_bytes).c_str());

  const auto a = io::read_all_edges(store, "sorted_mem", codec);
  const auto b = io::read_all_edges(store, "sorted_ext", codec);
  const bool identical = a == b;
  std::printf("sorted outputs identical: %s\n", identical ? "YES" : "NO");
  return identical ? 0 : 1;
}
