#include "core/backend_arraylang.hpp"

#include "interp/interpreter.hpp"
#include "util/error.hpp"

namespace prpb::core {

// Kernel programs. These mirror the paper's Matlab statements; `crand` is
// the counter-based uniform source shared with the native generator, so the
// generated graph is bit-identical across backends.
const char* ArrayLangBackend::kernel0_source() {
  return R"(% kernel 0: Graph500 Kronecker generation + edge-file write
u = zeros(M)
v = zeros(M)
kpow = 1
for level = 1:scale
  r1 = crand(2 * (level - 1), M, seed)
  r2 = crand(2 * (level - 1) + 1, M, seed)
  ubit = r1 > ab
  vbit = r2 > (cnorm .* ubit + anorm .* (1 - ubit))
  u = u + kpow .* ubit
  v = v + kpow .* vbit
  kpow = kpow * 2
end
u = scramble(u, scale, seed)
v = scramble(v, scale, seed)
save_edges(outdir, nfiles, u, v)
)";
}

const char* ArrayLangBackend::kernel1_source() {
  return R"(% kernel 1: read, sort by start vertex, rewrite
e = load_edges(indir)
u = stride(e, 2, 1)
v = stride(e, 2, 2)
idx = sortperm2(u, vkey)
u = permute(u, idx)
v = permute(v, idx)
save_edges(outdir, nfiles, u, v)
)";
}

const char* ArrayLangBackend::kernel2_source() {
  return R"(% kernel 2: adjacency construction, degree filtering, row normalize
e = load_edges(indir)
u = stride(e, 2, 1)
v = stride(e, 2, 2)
A = sparse(u, v, 1, N, N)
din = sum(A, 1)
mask = (din == max(din)) + (din == 1)
A = zerocols(A, mask)
dout = sum(A, 2)
A = scalerows(A, dout)
)";
}

const char* ArrayLangBackend::kernel3_source() {
  return R"(% kernel 3: fixed-iteration PageRank, row-vector form
r = pr_init(N, seed)
for it = 1:iters
  s = sum(r)
  r = c .* (r * A) + (1 - c) .* s ./ N
end
)";
}

void ArrayLangBackend::kernel0(const KernelContext& ctx) {
  const PipelineConfig& config = ctx.config;
  interp::Interpreter vm;
  vm.set_stage_store(&ctx.store);
  vm.set_stage_codec(&ctx.codec(io::Codec::kGeneric));
  vm.set("scale", static_cast<double>(config.scale));
  vm.set("seed", static_cast<double>(config.seed));
  vm.set("nfiles", static_cast<double>(config.num_files));
  vm.set("outdir", ctx.out_stage);
  if (config.generator == "kronecker") {
    // Graph500 initiator constants (A=0.57, B=0.19, C=0.19, D=0.05).
    vm.set("M", static_cast<double>(config.num_edges()));
    vm.set("ab", 0.57 + 0.19);
    vm.set("anorm", 0.57 / (0.57 + 0.19));
    vm.set("cnorm", 0.19 / (0.19 + 0.05));
    vm.run(kernel0_source());
    return;
  }
  // Other generators have no closed-form arraylang kernel; generate through
  // the builtin and keep the interpreted file write.
  vm.set("genname", config.generator);
  vm.set("ef", static_cast<double>(config.edge_factor));
  vm.run(R"(
e = gen_edges(genname, scale, ef, seed)
u = stride(e, 2, 1)
v = stride(e, 2, 2)
save_edges(outdir, nfiles, u, v)
)");
}

void ArrayLangBackend::kernel1(const KernelContext& ctx) {
  const PipelineConfig& config = ctx.config;
  interp::Interpreter vm;
  vm.set_stage_store(&ctx.store);
  vm.set_stage_codec(&ctx.codec(io::Codec::kGeneric));
  vm.set("indir", ctx.in_stage);
  vm.set("outdir", ctx.out_stage);
  vm.set("nfiles", static_cast<double>(config.num_files));
  // vkey selects the tie-break column: v for canonical (u, v) order, u
  // itself (all ties, stable) when only the start vertex is ordered.
  vm.run("e = load_edges(indir)\n"
         "u = stride(e, 2, 1)\n"
         "v = stride(e, 2, 2)\n");
  vm.set("vkey", config.sort_key == sort::SortKey::kStartEnd
                     ? vm.get("v")
                     : vm.get("u"));
  vm.run("idx = sortperm2(u, vkey)\n"
         "u = permute(u, idx)\n"
         "v = permute(v, idx)\n"
         "save_edges(outdir, nfiles, u, v)\n");
}

sparse::CsrMatrix ArrayLangBackend::kernel2(const KernelContext& ctx) {
  interp::Interpreter vm;
  vm.set_stage_store(&ctx.store);
  vm.set_stage_codec(&ctx.codec(io::Codec::kGeneric));
  vm.set("indir", ctx.in_stage);
  vm.set("N", static_cast<double>(ctx.config.num_vertices()));
  vm.run(kernel2_source());
  return vm.get("A").matrix();
}

std::vector<double> ArrayLangBackend::kernel3(const KernelContext& ctx,
                                              const sparse::CsrMatrix& matrix) {
  const PipelineConfig& config = ctx.config;
  util::require(matrix.rows() == config.num_vertices(),
                "kernel3: matrix size does not match N = 2^scale");
  // No per-iteration telemetry here: the loop runs inside the interpreted
  // script, which has no callback surface (k3_iterations stays empty).
  interp::Interpreter vm;
  vm.set("A", matrix);
  vm.set("N", static_cast<double>(matrix.rows()));
  vm.set("c", config.damping);
  vm.set("iters", static_cast<double>(config.iterations));
  vm.set("seed", static_cast<double>(config.seed));
  vm.run(kernel3_source());
  return vm.get("r").array();
}

}  // namespace prpb::core
