// Distributed pipeline demo — the paper's parallel decomposition, run on
// the simulated cluster: alltoall edge exchange in kernel 1, allreduced
// in-degrees and out-degrees in kernel 2, allreduced rank vectors in
// kernel 3. Prints per-rank communication statistics and checks the result
// against the serial pipeline bit for bit; exits 1 on any divergence.
#include <cstdio>

#include "core/backend_native.hpp"
#include "core/runner.hpp"
#include "dist/pipeline.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/fs.hpp"

int main(int argc, char** argv) {
  using namespace prpb;

  util::ArgParser args("distributed_pagerank",
                       "simulated column-partitioned parallel pipeline");
  args.add_option("scale", "graph scale", "12");
  args.add_option("max-ranks", "largest simulated processor count", "8");
  if (!args.parse(argc, argv)) return 0;

  dist::DistConfig config;
  config.scale = static_cast<int>(args.get_int("scale"));

  // Serial reference.
  util::TempDir work("prpb-dist-demo");
  core::PipelineConfig serial;
  serial.scale = config.scale;
  serial.work_dir = work.path();
  core::NativeBackend backend;
  const auto reference = core::run_pipeline(serial, backend).ranks;

  std::printf("distributed pipeline, scale %d (N = %s, M = %s)\n\n",
              config.scale,
              util::human_count(config.num_vertices()).c_str(),
              util::human_count(config.num_edges()).c_str());

  util::TextTable table({"ranks", "K1 exchange", "K3 allreduce",
                         "total comm", "vs serial"});
  const auto max_ranks = static_cast<std::size_t>(args.get_int("max-ranks"));
  bool all_ok = true;
  for (std::size_t p = 1; p <= max_ranks; p *= 2) {
    const dist::DistResult result = dist::run_distributed(config, p);
    const bool ok = result.ranks == reference;
    all_ok = all_ok && ok;
    table.add_row({std::to_string(p),
                   util::human_bytes(result.k1_exchange_bytes),
                   util::human_bytes(result.k3_allreduce_bytes),
                   util::human_bytes(result.total_bytes),
                   ok ? "MATCH" : "DIVERGED"});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("kernel-3 allreduce volume = iterations x P x N x 8 bytes — "
              "the term the paper\npredicts will dominate a parallel "
              "kernel 3 ('limited by network communication').\n");
  return all_ok ? 0 : 1;
}
