// Tree-walking evaluator for arraylang.
//
// The host (the pipeline's arraylang backend, tests, examples) seeds the
// environment with variables, runs a program, and reads results back out.
// All heavy lifting happens inside vectorized builtins (see builtins.cpp);
// the evaluator itself is deliberately a plain dynamic-dispatch tree walker.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "interp/ast.hpp"
#include "interp/value.hpp"
#include "rand/rng.hpp"

namespace prpb::io {
class StageCodec;
class StageStore;
}  // namespace prpb::io

namespace prpb::interp {

class Interpreter;

/// Builtin signature: args are evaluated values; the interpreter reference
/// gives access to interpreter state (RNG, output sink).
using Builtin = std::function<Value(std::vector<Value>&, Interpreter&)>;

class Interpreter {
 public:
  Interpreter();

  /// Binds or rebinds a global variable.
  void set(const std::string& name, Value value);
  /// Reads a variable; throws util::Error when unbound.
  [[nodiscard]] const Value& get(const std::string& name) const;
  [[nodiscard]] bool has(const std::string& name) const;

  /// Registers an additional builtin (tests use this for instrumentation).
  void register_builtin(const std::string& name, Builtin fn);

  /// Parses and executes source in the global environment. The parsed
  /// program is retained so user-defined functions survive across runs.
  void run(std::string_view source);
  /// Executes a pre-parsed program. If the program defines functions it
  /// must outlive the interpreter (prefer the string overload otherwise).
  void run(const Program& program);

  /// Evaluates a single expression and returns its value.
  Value eval_expression(std::string_view source);

  /// Interpreter-level RNG used by the stateful `rand` builtin.
  rnd::Xoshiro256& rng() { return rng_; }
  void reseed(std::uint64_t seed) { rng_ = rnd::Xoshiro256(seed); }

  /// Lines emitted by the `print` builtin (collected for tests/logging).
  [[nodiscard]] const std::vector<std::string>& output() const {
    return output_;
  }
  void emit(std::string line) { output_.push_back(std::move(line)); }

  /// Dynamic-dispatch counter: every builtin call and binary op increments
  /// it. Exposed so benchmarks can report interpretation overhead.
  [[nodiscard]] std::uint64_t dispatch_count() const { return dispatches_; }

  /// Routes the edge-file builtins (load_edges/save_edges/count_edges)
  /// through a StageStore: their string arguments become stage names of
  /// `store` instead of filesystem paths. Pass nullptr (the default) to
  /// keep the historical path behavior. Non-owning; the store must outlive
  /// every run() that touches edge I/O.
  void set_stage_store(io::StageStore* store) { stage_store_ = store; }
  [[nodiscard]] io::StageStore* stage_store() const { return stage_store_; }

  /// Selects the stage codec the edge-file builtins use. Pass nullptr (the
  /// default) for TSV in the generic flavor — the interpreted stack's
  /// honest string path. Non-owning; codecs are immutable singletons.
  void set_stage_codec(const io::StageCodec* codec) { stage_codec_ = codec; }
  [[nodiscard]] const io::StageCodec* stage_codec() const {
    return stage_codec_;
  }

  /// True when `name` is a user-defined function.
  [[nodiscard]] bool has_function(const std::string& name) const {
    return functions_.contains(name);
  }

 private:
  friend struct EvalVisitor;

  struct UserFunction {
    std::vector<std::string> params;
    const std::vector<StmtPtr>* body = nullptr;  // owned by a retained
                                                 // or caller-owned Program
  };

  /// Thrown by `return` statements; caught at the call boundary.
  struct ReturnSignal {
    Value value;
  };

  void exec(const Stmt& stmt);
  Value eval(const Expr& expr);
  Value eval_binary(const Expr& expr);
  Value eval_call(const Expr& expr);
  Value call_user_function(const UserFunction& fn, std::vector<Value>& args,
                           const std::string& name, std::size_t line);

  std::map<std::string, Value>& scope() { return scopes_.back(); }
  [[nodiscard]] const std::map<std::string, Value>& scope() const {
    return scopes_.back();
  }

  std::vector<std::map<std::string, Value>> scopes_{1};
  std::map<std::string, Builtin> builtins_;
  std::map<std::string, UserFunction> functions_;
  std::vector<std::shared_ptr<const Program>> retained_programs_;
  rnd::Xoshiro256 rng_;
  std::vector<std::string> output_;
  io::StageStore* stage_store_ = nullptr;
  const io::StageCodec* stage_codec_ = nullptr;
  std::uint64_t dispatches_ = 0;
  std::size_t call_depth_ = 0;
  /// Native stack bytes user-function calls may use below the outermost
  /// one: half of the 8 MiB default thread stack, which leaves the caller
  /// and the unwinding of the error room in every build. A call level
  /// takes about 1.1 KiB in a RelWithDebInfo build and 4 KiB in a
  /// sanitized Debug one (about 3700 and 1000 levels).
  static constexpr std::uintptr_t kMaxStackBytes = std::uintptr_t{4} << 20;
  /// Frame address of the outermost user-function call on this thread.
  std::uintptr_t stack_base_ = 0;
};

/// Installs the standard builtin library into `builtins` (called by the
/// Interpreter constructor; exposed for documentation/testing of coverage).
void install_standard_builtins(std::map<std::string, Builtin>& builtins);

}  // namespace prpb::interp
