#include "interp/interpreter.hpp"

#include <cmath>

#include "interp/parser.hpp"
#include "util/error.hpp"

namespace prpb::interp {

namespace {
[[noreturn]] void runtime_error(std::size_t line, const std::string& msg) {
  throw util::Error("arraylang runtime error (line " + std::to_string(line) +
                    "): " + msg);
}

double scalar_binop(BinOp op, double a, double b, std::size_t line) {
  switch (op) {
    case BinOp::kAdd: return a + b;
    case BinOp::kSub: return a - b;
    case BinOp::kMul: return a * b;
    case BinOp::kDiv:
      return a / b;  // IEEE semantics (inf/nan) like Matlab
    case BinOp::kEq: return a == b ? 1.0 : 0.0;
    case BinOp::kNe: return a != b ? 1.0 : 0.0;
    case BinOp::kLt: return a < b ? 1.0 : 0.0;
    case BinOp::kLe: return a <= b ? 1.0 : 0.0;
    case BinOp::kGt: return a > b ? 1.0 : 0.0;
    case BinOp::kGe: return a >= b ? 1.0 : 0.0;
  }
  runtime_error(line, "unknown binary operator");
}
}  // namespace

Interpreter::Interpreter() : rng_(0xa11ce5eedULL) {
  install_standard_builtins(builtins_);
}

void Interpreter::set(const std::string& name, Value value) {
  scope()[name] = std::move(value);
}

const Value& Interpreter::get(const std::string& name) const {
  const auto it = scope().find(name);
  if (it == scope().end()) {
    throw util::Error("arraylang: undefined variable '" + name + "'");
  }
  return it->second;
}

bool Interpreter::has(const std::string& name) const {
  return scope().contains(name);
}

void Interpreter::register_builtin(const std::string& name, Builtin fn) {
  builtins_[name] = std::move(fn);
}

void Interpreter::run(std::string_view source) {
  auto program = std::make_shared<Program>(parse(source));
  retained_programs_.push_back(program);  // function bodies must outlive run
  run(*program);
}

void Interpreter::run(const Program& program) {
  for (const auto& stmt : program) exec(*stmt);
}

Value Interpreter::eval_expression(std::string_view source) {
  const Program program = parse(source);
  util::require(program.size() == 1 &&
                    program.front()->kind == Stmt::Kind::kExpr,
                "eval_expression: source must be a single expression");
  return eval(*program.front()->value);
}

void Interpreter::exec(const Stmt& stmt) {
  switch (stmt.kind) {
    case Stmt::Kind::kAssign:
      set(stmt.target, eval(*stmt.value));
      return;
    case Stmt::Kind::kExpr:
      (void)eval(*stmt.value);
      return;
    case Stmt::Kind::kFor: {
      const Value range = eval(*stmt.value);
      if (range.is_scalar()) {
        set(stmt.target, range.scalar());
        for (const auto& inner : stmt.body) exec(*inner);
        return;
      }
      // copy the iteration space: the body may rebind variables
      const Array items = range.array();
      for (const double item : items) {
        set(stmt.target, item);
        for (const auto& inner : stmt.body) exec(*inner);
      }
      return;
    }
    case Stmt::Kind::kIf: {
      const Value cond = eval(*stmt.value);
      const auto& branch = cond.truthy() ? stmt.body : stmt.orelse;
      for (const auto& inner : branch) exec(*inner);
      return;
    }
    case Stmt::Kind::kFuncDef: {
      UserFunction fn;
      fn.params = stmt.params;
      fn.body = &stmt.body;
      functions_[stmt.target] = std::move(fn);
      return;
    }
    case Stmt::Kind::kReturn:
      throw ReturnSignal{eval(*stmt.value)};
    case Stmt::Kind::kWhile: {
      constexpr std::uint64_t kMaxIterations = 100'000'000;
      std::uint64_t guard = 0;
      while (eval(*stmt.value).truthy()) {
        for (const auto& inner : stmt.body) exec(*inner);
        if (++guard > kMaxIterations) {
          runtime_error(stmt.line, "while loop exceeded iteration guard");
        }
      }
      return;
    }
  }
  runtime_error(stmt.line, "unknown statement kind");
}

Value Interpreter::eval(const Expr& expr) {
  switch (expr.kind) {
    case Expr::Kind::kNumber:
      return Value(expr.number);
    case Expr::Kind::kString:
      return Value(expr.text);
    case Expr::Kind::kVariable:
      return get(expr.text);
    case Expr::Kind::kBinary:
      return eval_binary(expr);
    case Expr::Kind::kCall:
      return eval_call(expr);
    case Expr::Kind::kRange: {
      const double lo = eval(*expr.lhs).scalar();
      const double hi = eval(*expr.rhs).scalar();
      Array items;
      for (double x = lo; x <= hi; x += 1.0) items.push_back(x);
      return Value(std::move(items));
    }
  }
  runtime_error(expr.line, "unknown expression kind");
}

Value Interpreter::eval_binary(const Expr& expr) {
  ++dispatches_;
  const Value lhs = eval(*expr.lhs);
  const Value rhs = eval(*expr.rhs);
  const BinOp op = expr.op;
  const std::size_t line = expr.line;

  if (lhs.is_scalar() && rhs.is_scalar()) {
    return Value(scalar_binop(op, lhs.scalar(), rhs.scalar(), line));
  }
  if (lhs.is_array() && rhs.is_scalar()) {
    const double b = rhs.scalar();
    Array out(lhs.array().size());
    const Array& a = lhs.array();
    for (std::size_t i = 0; i < a.size(); ++i)
      out[i] = scalar_binop(op, a[i], b, line);
    return Value(std::move(out));
  }
  if (lhs.is_scalar() && rhs.is_array()) {
    const double a = lhs.scalar();
    const Array& b = rhs.array();
    Array out(b.size());
    for (std::size_t i = 0; i < b.size(); ++i)
      out[i] = scalar_binop(op, a, b[i], line);
    return Value(std::move(out));
  }
  if (lhs.is_array() && rhs.is_array()) {
    const Array& a = lhs.array();
    const Array& b = rhs.array();
    if (a.size() != b.size())
      runtime_error(line, "array size mismatch in elementwise operation");
    Array out(a.size());
    for (std::size_t i = 0; i < a.size(); ++i)
      out[i] = scalar_binop(op, a[i], b[i], line);
    return Value(std::move(out));
  }
  // array * matrix: row-vector times sparse matrix (the PageRank update).
  if (lhs.is_array() && rhs.is_matrix() && op == BinOp::kMul) {
    std::vector<double> out;
    rhs.matrix().vec_mat(lhs.array(), out);
    return Value(std::move(out));
  }
  // scalar * matrix / matrix * scalar / matrix / scalar: value scaling.
  if (lhs.is_scalar() && rhs.is_matrix() && op == BinOp::kMul) {
    Value m = rhs;
    const double s = lhs.scalar();
    for (auto& v : m.mutable_matrix().mutable_values()) v *= s;
    return m;
  }
  if (lhs.is_matrix() && rhs.is_scalar() &&
      (op == BinOp::kMul || op == BinOp::kDiv)) {
    Value m = lhs;
    const double s =
        op == BinOp::kMul ? rhs.scalar() : 1.0 / rhs.scalar();
    for (auto& v : m.mutable_matrix().mutable_values()) v *= s;
    return m;
  }
  runtime_error(line, std::string("unsupported operand types (") +
                          lhs.type_name() + ", " + rhs.type_name() + ")");
}

Value Interpreter::call_user_function(const UserFunction& fn,
                                      std::vector<Value>& args,
                                      const std::string& name,
                                      std::size_t line) {
  if (args.size() != fn.params.size()) {
    runtime_error(line, "function '" + name + "' expects " +
                            std::to_string(fn.params.size()) +
                            " argument(s), got " +
                            std::to_string(args.size()));
  }
  // A runaway recursion must fail before the native stack does. Frame
  // sizes differ by build (a sanitized Debug frame is several times a
  // Release one), so the guard bounds the stack bytes this thread has used
  // since the outermost call, not the number of calls.
  const auto frame =
      reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
  if (call_depth_ == 0) stack_base_ = frame;
  const std::uintptr_t used =
      stack_base_ > frame ? stack_base_ - frame : frame - stack_base_;
  if (used > kMaxStackBytes) {
    runtime_error(line, "call stack limit exceeded in '" + name +
                            "' at depth " + std::to_string(call_depth_));
  }
  // Fresh local scope (Matlab semantics: no access to caller variables).
  scopes_.emplace_back();
  ++call_depth_;
  for (std::size_t i = 0; i < args.size(); ++i) {
    scope()[fn.params[i]] = std::move(args[i]);
  }
  Value result(0.0);
  try {
    for (const auto& inner : *fn.body) exec(*inner);
  } catch (const ReturnSignal& signal) {
    result = signal.value;
  } catch (...) {
    --call_depth_;
    scopes_.pop_back();
    throw;
  }
  --call_depth_;
  scopes_.pop_back();
  return result;
}

Value Interpreter::eval_call(const Expr& expr) {
  ++dispatches_;
  // Variable-with-parentheses is 1-based indexing, Matlab style.
  if (!builtins_.contains(expr.text) && !functions_.contains(expr.text) &&
      has(expr.text)) {
    const Value& target = get(expr.text);
    if (expr.args.size() != 1)
      runtime_error(expr.line, "indexing takes exactly one subscript");
    const Value idx = eval(*expr.args.front());
    if (!target.is_array())
      runtime_error(expr.line, "only arrays support indexing");
    const Array& data = target.array();
    auto fetch = [&](double subscript) {
      const auto i = static_cast<std::int64_t>(subscript);
      if (i < 1 || static_cast<std::size_t>(i) > data.size())
        runtime_error(expr.line, "index out of bounds");
      return data[static_cast<std::size_t>(i - 1)];
    };
    if (idx.is_scalar()) return Value(fetch(idx.scalar()));
    Array out;
    out.reserve(idx.array().size());
    for (const double s : idx.array()) out.push_back(fetch(s));
    return Value(std::move(out));
  }

  std::vector<Value> args;
  args.reserve(expr.args.size());
  for (const auto& arg : expr.args) args.push_back(eval(*arg));

  // User-defined functions shadow builtins.
  if (const auto fit = functions_.find(expr.text);
      fit != functions_.end()) {
    return call_user_function(fit->second, args, expr.text, expr.line);
  }
  const auto it = builtins_.find(expr.text);
  if (it == builtins_.end())
    runtime_error(expr.line, "unknown function '" + expr.text + "'");
  try {
    return it->second(args, *this);
  } catch (const util::TransientIoError& e) {
    // Keep the retryable type: the pipeline runner's retry loop dispatches
    // on it, so a transient stage-store fault inside a builtin must not
    // degrade into a permanent plain Error.
    throw util::TransientIoError(
        "arraylang runtime error (line " + std::to_string(expr.line) +
        "): " + e.what() + " in call to '" + expr.text + "'");
  } catch (const util::Error& e) {
    runtime_error(expr.line, std::string(e.what()) + " in call to '" +
                                 expr.text + "'");
  }
}

}  // namespace prpb::interp
