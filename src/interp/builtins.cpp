// Standard builtin library of arraylang.
//
// Builtins are the vectorized primitives of the language — the analogue of
// Matlab/NumPy kernels. Edge-file I/O builtins use the *generic* TSV codec
// on purpose: an interpreted stack's number<->string conversion cost is part
// of what the benchmark measures (Figures 4-6 of the paper).
#include <algorithm>
#include <cmath>
#include <numeric>

#include "gen/generator.hpp"
#include "gen/kronecker.hpp"
#include "interp/interpreter.hpp"
#include "io/edge_files.hpp"
#include "rand/rng.hpp"
#include "sparse/pagerank.hpp"
#include "util/error.hpp"
#include "util/format.hpp"

namespace prpb::interp {

namespace {

void expect_args(const std::vector<Value>& args, std::size_t n,
                 const char* name) {
  util::require(args.size() == n, std::string(name) + ": wrong argument count");
}

std::uint64_t as_index(double x, const char* what) {
  util::require(x >= 0 && std::floor(x) == x,
                std::string(what) + ": expected a non-negative integer");
  return static_cast<std::uint64_t>(x);
}

/// The codec the edge-file builtins encode/decode with: whatever the host
/// installed, defaulting to the generic TSV string path.
const io::StageCodec& interp_codec(const Interpreter& interp) {
  return interp.stage_codec() != nullptr
             ? *interp.stage_codec()
             : io::tsv_codec(io::Codec::kGeneric);
}

Array map_array(const Value& v, double (*fn)(double)) {
  if (v.is_scalar()) return Array{fn(v.scalar())};
  const Array& a = v.array();
  Array out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = fn(a[i]);
  return out;
}

Value unary_math(std::vector<Value>& args, const char* name,
                 double (*fn)(double)) {
  expect_args(args, 1, name);
  if (args[0].is_scalar()) return Value(fn(args[0].scalar()));
  return Value(map_array(args[0], fn));
}

}  // namespace

void install_standard_builtins(std::map<std::string, Builtin>& builtins) {
  // ---- construction ---------------------------------------------------------
  builtins["zeros"] = [](std::vector<Value>& args, Interpreter&) {
    expect_args(args, 1, "zeros");
    return Value(Array(as_index(args[0].scalar(), "zeros"), 0.0));
  };
  builtins["ones"] = [](std::vector<Value>& args, Interpreter&) {
    expect_args(args, 1, "ones");
    return Value(Array(as_index(args[0].scalar(), "ones"), 1.0));
  };
  builtins["rand"] = [](std::vector<Value>& args, Interpreter& interp) {
    expect_args(args, 1, "rand");
    Array out(as_index(args[0].scalar(), "rand"));
    for (auto& x : out) x = interp.rng().next_double();
    return Value(std::move(out));
  };
  // Counter-based uniforms: crand(stream, n, seed) — bit-identical to the
  // native generator's draws, which is how the arraylang kernel 0 produces
  // the same graph as every other backend.
  builtins["crand"] = [](std::vector<Value>& args, Interpreter&) {
    expect_args(args, 3, "crand");
    const std::uint64_t stream = as_index(args[0].scalar(), "crand");
    const std::uint64_t n = as_index(args[1].scalar(), "crand");
    const auto seed = static_cast<std::uint64_t>(args[2].scalar());
    const rnd::CounterRng rng(seed);
    Array out(n);
    for (std::uint64_t i = 0; i < n; ++i) out[i] = rng.uniform(stream, i);
    return Value(std::move(out));
  };
  builtins["pr_init"] = [](std::vector<Value>& args, Interpreter&) {
    expect_args(args, 2, "pr_init");
    const std::uint64_t n = as_index(args[0].scalar(), "pr_init");
    const auto seed = static_cast<std::uint64_t>(args[1].scalar());
    return Value(sparse::pagerank_initial_vector(n, seed));
  };

  // ---- reductions and math --------------------------------------------------
  builtins["sum"] = [](std::vector<Value>& args, Interpreter&) {
    util::require(args.size() == 1 || args.size() == 2,
                  "sum: takes 1 or 2 arguments");
    if (args[0].is_matrix()) {
      expect_args(args, 2, "sum(matrix)");
      const double dim = args[1].scalar();
      util::require(dim == 1.0 || dim == 2.0, "sum: dim must be 1 or 2");
      return Value(dim == 1.0 ? args[0].matrix().col_sums()
                              : args[0].matrix().row_sums());
    }
    if (args[0].is_scalar()) return Value(args[0].scalar());
    const Array& a = args[0].array();
    return Value(std::accumulate(a.begin(), a.end(), 0.0));
  };
  builtins["max"] = [](std::vector<Value>& args, Interpreter&) {
    expect_args(args, 1, "max");
    if (args[0].is_scalar()) return Value(args[0].scalar());
    const Array& a = args[0].array();
    util::require(!a.empty(), "max: empty array");
    return Value(*std::max_element(a.begin(), a.end()));
  };
  builtins["min"] = [](std::vector<Value>& args, Interpreter&) {
    expect_args(args, 1, "min");
    if (args[0].is_scalar()) return Value(args[0].scalar());
    const Array& a = args[0].array();
    util::require(!a.empty(), "min: empty array");
    return Value(*std::min_element(a.begin(), a.end()));
  };
  builtins["numel"] = [](std::vector<Value>& args, Interpreter&) {
    expect_args(args, 1, "numel");
    if (args[0].is_scalar()) return Value(1.0);
    if (args[0].is_string())
      return Value(static_cast<double>(args[0].str().size()));
    return Value(static_cast<double>(args[0].array().size()));
  };
  builtins["abs"] = [](std::vector<Value>& args, Interpreter&) {
    return unary_math(args, "abs", [](double x) { return std::abs(x); });
  };
  builtins["floor"] = [](std::vector<Value>& args, Interpreter&) {
    return unary_math(args, "floor", [](double x) { return std::floor(x); });
  };
  builtins["sqrt"] = [](std::vector<Value>& args, Interpreter&) {
    return unary_math(args, "sqrt", [](double x) { return std::sqrt(x); });
  };
  builtins["mod"] = [](std::vector<Value>& args, Interpreter&) {
    expect_args(args, 2, "mod");
    const double m = args[1].scalar();
    util::require(m != 0.0, "mod: modulus must be nonzero");
    if (args[0].is_scalar())
      return Value(std::fmod(args[0].scalar(), m));
    Array out = args[0].array();
    for (auto& x : out) x = std::fmod(x, m);
    return Value(std::move(out));
  };
  builtins["norm"] = [](std::vector<Value>& args, Interpreter&) {
    expect_args(args, 2, "norm");
    util::require(args[1].scalar() == 1.0, "norm: only the 1-norm is defined");
    if (args[0].is_scalar()) return Value(std::abs(args[0].scalar()));
    return Value(sparse::norm1(args[0].array()));
  };
  builtins["find"] = [](std::vector<Value>& args, Interpreter&) {
    expect_args(args, 1, "find");
    const Array& a = args[0].array();
    Array out;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i] != 0.0) out.push_back(static_cast<double>(i + 1));
    }
    return Value(std::move(out));
  };
  builtins["cumsum"] = [](std::vector<Value>& args, Interpreter&) {
    expect_args(args, 1, "cumsum");
    Array out = args[0].is_scalar() ? Array{args[0].scalar()}
                                    : args[0].array();
    double acc = 0.0;
    for (auto& x : out) {
      acc += x;
      x = acc;
    }
    return Value(std::move(out));
  };
  builtins["linspace"] = [](std::vector<Value>& args, Interpreter&) {
    expect_args(args, 3, "linspace");
    const double lo = args[0].scalar();
    const double hi = args[1].scalar();
    const std::uint64_t n = as_index(args[2].scalar(), "linspace");
    util::require(n >= 2, "linspace: need at least two points");
    Array out(n);
    const double step = (hi - lo) / static_cast<double>(n - 1);
    for (std::uint64_t i = 0; i < n; ++i)
      out[i] = lo + step * static_cast<double>(i);
    out.back() = hi;  // avoid fp drift at the endpoint
    return Value(std::move(out));
  };
  builtins["sortvals"] = [](std::vector<Value>& args, Interpreter&) {
    expect_args(args, 1, "sortvals");
    Array out = args[0].array();
    std::sort(out.begin(), out.end());
    return Value(std::move(out));
  };
  builtins["unique"] = [](std::vector<Value>& args, Interpreter&) {
    expect_args(args, 1, "unique");
    Array out = args[0].array();
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return Value(std::move(out));
  };
  builtins["any"] = [](std::vector<Value>& args, Interpreter&) {
    expect_args(args, 1, "any");
    if (args[0].is_scalar()) return Value(args[0].scalar() != 0.0 ? 1.0 : 0.0);
    for (const double x : args[0].array()) {
      if (x != 0.0) return Value(1.0);
    }
    return Value(0.0);
  };

  // ---- graph / permutation primitives ---------------------------------------
  builtins["scramble"] = [](std::vector<Value>& args, Interpreter&) {
    expect_args(args, 3, "scramble");
    const int bits = static_cast<int>(args[1].scalar());
    const auto seed = static_cast<std::uint64_t>(args[2].scalar());
    const gen::BitPermutation perm(bits, seed);
    Array out = args[0].array();
    for (auto& x : out) {
      x = static_cast<double>(perm.forward(as_index(x, "scramble")));
    }
    return Value(std::move(out));
  };
  builtins["sortperm2"] = [](std::vector<Value>& args, Interpreter&) {
    expect_args(args, 2, "sortperm2");
    const Array& u = args[0].array();
    const Array& v = args[1].array();
    util::require(u.size() == v.size(), "sortperm2: size mismatch");
    std::vector<std::size_t> order(u.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return u[a] != u[b] ? u[a] < u[b] : v[a] < v[b];
                     });
    Array out(order.size());
    for (std::size_t i = 0; i < order.size(); ++i)
      out[i] = static_cast<double>(order[i] + 1);
    return Value(std::move(out));
  };
  builtins["permute"] = [](std::vector<Value>& args, Interpreter&) {
    expect_args(args, 2, "permute");
    const Array& a = args[0].array();
    const Array& idx = args[1].array();
    Array out(idx.size());
    for (std::size_t i = 0; i < idx.size(); ++i) {
      const std::uint64_t j = as_index(idx[i], "permute");
      util::require(j >= 1 && j <= a.size(), "permute: index out of bounds");
      out[i] = a[j - 1];
    }
    return Value(std::move(out));
  };
  builtins["stride"] = [](std::vector<Value>& args, Interpreter&) {
    expect_args(args, 3, "stride");
    const Array& a = args[0].array();
    const std::uint64_t step = as_index(args[1].scalar(), "stride");
    const std::uint64_t offset = as_index(args[2].scalar(), "stride");
    util::require(step >= 1 && offset >= 1 && offset <= step,
                  "stride: need step >= 1 and 1 <= offset <= step");
    Array out;
    out.reserve(a.size() / step + 1);
    for (std::size_t i = offset - 1; i < a.size(); i += step)
      out.push_back(a[i]);
    return Value(std::move(out));
  };
  builtins["interleave"] = [](std::vector<Value>& args, Interpreter&) {
    expect_args(args, 2, "interleave");
    const Array& u = args[0].array();
    const Array& v = args[1].array();
    util::require(u.size() == v.size(), "interleave: size mismatch");
    Array out;
    out.reserve(2 * u.size());
    for (std::size_t i = 0; i < u.size(); ++i) {
      out.push_back(u[i]);
      out.push_back(v[i]);
    }
    return Value(std::move(out));
  };

  // gen_edges(name, scale, ef, seed): full edge list of a native generator,
  // interleaved [u1 v1 u2 v2 ...]. The escape hatch for generators that have
  // no pure-arraylang formulation (bter, ppl).
  builtins["gen_edges"] = [](std::vector<Value>& args, Interpreter&) {
    expect_args(args, 4, "gen_edges");
    const auto generator = gen::make_generator(
        args[0].str(), static_cast<int>(args[1].scalar()),
        static_cast<int>(args[2].scalar()),
        static_cast<std::uint64_t>(args[3].scalar()));
    const gen::EdgeList edges = generator->generate_all();
    Array out;
    out.reserve(2 * edges.size());
    for (const auto& edge : edges) {
      out.push_back(static_cast<double>(edge.u));
      out.push_back(static_cast<double>(edge.v));
    }
    return Value(std::move(out));
  };

  // ---- sparse matrices -------------------------------------------------------
  builtins["sparse"] = [](std::vector<Value>& args, Interpreter&) {
    expect_args(args, 5, "sparse");
    const Array& u = args[0].array();
    const Array& v = args[1].array();
    util::require(u.size() == v.size(), "sparse: size mismatch");
    const std::uint64_t rows = as_index(args[3].scalar(), "sparse");
    const std::uint64_t cols = as_index(args[4].scalar(), "sparse");
    std::vector<std::uint64_t> ri(u.size());
    std::vector<std::uint64_t> ci(v.size());
    for (std::size_t i = 0; i < u.size(); ++i) {
      ri[i] = as_index(u[i], "sparse");
      ci[i] = as_index(v[i], "sparse");
    }
    std::vector<double> vals;
    if (args[2].is_scalar()) {
      vals.assign(u.size(), args[2].scalar());
    } else {
      vals = args[2].array();
      util::require(vals.size() == u.size(), "sparse: value size mismatch");
    }
    return Value(sparse::CsrMatrix::from_triplets(ri, ci, vals, rows, cols));
  };
  builtins["nnz"] = [](std::vector<Value>& args, Interpreter&) {
    expect_args(args, 1, "nnz");
    return Value(static_cast<double>(args[0].matrix().nnz()));
  };
  builtins["valsum"] = [](std::vector<Value>& args, Interpreter&) {
    expect_args(args, 1, "valsum");
    return Value(args[0].matrix().value_sum());
  };
  builtins["full_at"] = [](std::vector<Value>& args, Interpreter&) {
    expect_args(args, 3, "full_at");
    return Value(args[0].matrix().at(as_index(args[1].scalar(), "full_at"),
                                     as_index(args[2].scalar(), "full_at")));
  };
  builtins["zerocols"] = [](std::vector<Value>& args, Interpreter&) {
    expect_args(args, 2, "zerocols");
    Value m = args[0];
    const Array& maskv = args[1].array();
    util::require(maskv.size() == m.matrix().cols(),
                  "zerocols: mask size mismatch");
    std::vector<bool> mask(maskv.size());
    for (std::size_t i = 0; i < maskv.size(); ++i) mask[i] = maskv[i] != 0.0;
    m.mutable_matrix().zero_columns(mask);
    return m;
  };
  builtins["scalerows"] = [](std::vector<Value>& args, Interpreter&) {
    expect_args(args, 2, "scalerows");
    Value m = args[0];
    m.mutable_matrix().scale_rows_inverse(args[1].array());
    return m;
  };

  // ---- edge-file I/O (generic TSV unless the host picked a codec) -----------
  // When the host installed a StageStore (set_stage_store), the string
  // argument names a stage of that store; otherwise it is a filesystem path,
  // resolved by a transient DirStageStore rooted at the working directory.
  // set_stage_codec swaps the encoding; the default stays the generic TSV
  // string path an interpreted stack pays for.
  builtins["load_edges"] = [](std::vector<Value>& args, Interpreter& interp) {
    expect_args(args, 1, "load_edges");
    io::DirStageStore fallback(".");
    io::StageStore& store =
        interp.stage_store() ? *interp.stage_store() : fallback;
    const gen::EdgeList edges =
        io::read_all_edges(store, args[0].str(), interp_codec(interp));
    Array out;
    out.reserve(2 * edges.size());
    for (const auto& edge : edges) {
      out.push_back(static_cast<double>(edge.u));
      out.push_back(static_cast<double>(edge.v));
    }
    return Value(std::move(out));
  };
  builtins["save_edges"] = [](std::vector<Value>& args, Interpreter& interp) {
    expect_args(args, 4, "save_edges");
    const std::uint64_t shards = as_index(args[1].scalar(), "save_edges");
    const Array& u = args[2].array();
    const Array& v = args[3].array();
    util::require(u.size() == v.size(), "save_edges: size mismatch");
    gen::EdgeList edges;
    edges.reserve(u.size());
    for (std::size_t i = 0; i < u.size(); ++i) {
      edges.push_back(gen::Edge{as_index(u[i], "save_edges"),
                                as_index(v[i], "save_edges")});
    }
    io::DirStageStore fallback(".");
    io::StageStore& store =
        interp.stage_store() ? *interp.stage_store() : fallback;
    const std::uint64_t bytes = io::write_edge_list(
        store, args[0].str(), edges, shards, interp_codec(interp));
    return Value(static_cast<double>(bytes));
  };
  builtins["count_edges"] = [](std::vector<Value>& args, Interpreter& interp) {
    expect_args(args, 1, "count_edges");
    io::DirStageStore fallback(".");
    io::StageStore& store =
        interp.stage_store() ? *interp.stage_store() : fallback;
    return Value(static_cast<double>(
        io::count_edges(store, args[0].str(), interp_codec(interp))));
  };

  // ---- diagnostics -----------------------------------------------------------
  builtins["print"] = [](std::vector<Value>& args, Interpreter& interp) {
    expect_args(args, 1, "print");
    const Value& v = args[0];
    std::string line;
    if (v.is_scalar()) {
      line = util::fixed(v.scalar(), 6);
    } else if (v.is_string()) {
      line = v.str();
    } else if (v.is_array()) {
      line = "[";
      const Array& a = v.array();
      for (std::size_t i = 0; i < a.size() && i < 16; ++i) {
        if (i != 0) line += ", ";
        line += util::fixed(a[i], 6);
      }
      if (a.size() > 16) line += ", ...";
      line += "]";
    } else {
      line = "<sparse " + std::to_string(v.matrix().rows()) + "x" +
             std::to_string(v.matrix().cols()) + ", nnz " +
             std::to_string(v.matrix().nnz()) + ">";
    }
    interp.emit(std::move(line));
    return Value(0.0);
  };
}

}  // namespace prpb::interp
