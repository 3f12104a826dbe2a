// Table II — benchmark run sizes: scale -> max vertices, max edges, memory
// footprint at 16 bytes/edge. The table is recomputed from the formulae
// (N = 2^S, M = 16N) and cross-checked against the live generator and a
// real kernel-0 stage at a small scale.
#include <cstdio>

#include "core/config.hpp"
#include "gen/generator.hpp"
#include "io/edge_files.hpp"
#include "io/stage_store.hpp"
#include "io/tsv.hpp"
#include "util/format.hpp"
#include "util/fs.hpp"

int main() {
  using namespace prpb;

  std::printf("Table II — benchmark run sizes\n\n");
  util::TextTable table({"Scale", "Max Vertices", "Max Edges", "~Memory"});
  for (int scale = 16; scale <= 22; ++scale) {
    const core::RunSize size = core::run_size(scale);
    table.add_row({std::to_string(scale),
                   util::human_count(size.max_vertices),
                   util::human_count(size.max_edges),
                   util::human_bytes(size.memory_bytes)});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("(paper: 65K/1M/25MB at scale 16 up to 4M/67M/1.6GB at "
              "scale 22;\n our ~Memory column counts the raw 16-byte edge "
              "structs)\n\n");

  // Live cross-check: the generator and an on-disk stage must agree with
  // the formulae.
  bool ok = true;
  for (int scale = 8; scale <= 12; scale += 2) {
    const auto generator =
        gen::make_generator("kronecker", scale, 16, 20160205);
    const core::RunSize size = core::run_size(scale);
    const bool counts_ok = generator->num_vertices() == size.max_vertices &&
                           generator->num_edges() == size.max_edges;
    util::TempDir dir("prpb-table2");
    io::DirStageStore store(dir.path());
    const io::StageCodec& codec = io::tsv_codec(io::Codec::kFast);
    io::write_generated_edges(store, "k0_edges", *generator, 2, codec);
    const bool stage_ok =
        io::count_edges(store, "k0_edges", codec) == size.max_edges;
    std::printf("scale %d live check: generator %s, stage %s\n", scale,
                counts_ok ? "OK" : "MISMATCH",
                stage_ok ? "OK" : "MISMATCH");
    ok = ok && counts_ok && stage_ok;
  }
  return ok ? 0 : 1;
}
