// Tests for the arraylang interpreter (src/interp): lexer, parser,
// evaluator semantics, builtins, and error diagnostics.
#include <gtest/gtest.h>

#include "gen/kronecker.hpp"
#include "interp/interpreter.hpp"
#include "interp/lexer.hpp"
#include "interp/parser.hpp"
#include "io/edge_files.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"

namespace prpb::interp {
namespace {

double run_scalar(const std::string& program, const std::string& var) {
  Interpreter vm;
  vm.run(program);
  return vm.get(var).scalar();
}

// ---- lexer ----------------------------------------------------------------------

TEST(LexerTest, TokenKinds) {
  const auto tokens = tokenize("x = 3.5 + y % comment\n'str'");
  ASSERT_GE(tokens.size(), 7u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ(tokens[1].text, "=");
  EXPECT_EQ(tokens[2].kind, TokenKind::kNumber);
  EXPECT_DOUBLE_EQ(tokens[2].number, 3.5);
  EXPECT_EQ(tokens[3].text, "+");
  EXPECT_EQ(tokens[4].kind, TokenKind::kIdentifier);
  EXPECT_EQ(tokens[5].kind, TokenKind::kNewline);
  EXPECT_EQ(tokens[6].kind, TokenKind::kString);
  EXPECT_EQ(tokens[6].text, "str");
}

TEST(LexerTest, KeywordsRecognized) {
  for (const char* word : {"for", "end", "if", "else", "while"}) {
    const auto tokens = tokenize(word);
    EXPECT_EQ(tokens[0].kind, TokenKind::kKeyword) << word;
  }
  EXPECT_EQ(tokenize("fortune")[0].kind, TokenKind::kIdentifier);
}

TEST(LexerTest, TwoCharOperators) {
  const auto tokens = tokenize("a == b ~= c <= d >= e");
  EXPECT_EQ(tokens[1].text, "==");
  EXPECT_EQ(tokens[3].text, "~=");
  EXPECT_EQ(tokens[5].text, "<=");
  EXPECT_EQ(tokens[7].text, ">=");
}

TEST(LexerTest, MatlabElementwiseSpellingsNormalize) {
  const auto tokens = tokenize("a .* b ./ c");
  EXPECT_EQ(tokens[1].text, "*");
  EXPECT_EQ(tokens[3].text, "/");
}

TEST(LexerTest, SemicolonIsStatementBreak) {
  const auto tokens = tokenize("a; b");
  EXPECT_EQ(tokens[1].kind, TokenKind::kNewline);
}

TEST(LexerTest, TracksLineNumbers) {
  const auto tokens = tokenize("a\nb\nc");
  EXPECT_EQ(tokens[0].line, 1u);
  EXPECT_EQ(tokens[2].line, 2u);
  EXPECT_EQ(tokens[4].line, 3u);
}

TEST(LexerTest, Errors) {
  EXPECT_THROW(tokenize("a ? b"), util::Error);
  EXPECT_THROW(tokenize("'unterminated"), util::Error);
}

// ---- parser ---------------------------------------------------------------------

TEST(ParserTest, PrecedenceMulOverAdd) {
  EXPECT_DOUBLE_EQ(run_scalar("x = 2 + 3 * 4", "x"), 14.0);
  EXPECT_DOUBLE_EQ(run_scalar("x = (2 + 3) * 4", "x"), 20.0);
}

TEST(ParserTest, ComparisonLooserThanArithmetic) {
  EXPECT_DOUBLE_EQ(run_scalar("x = 1 + 1 == 2", "x"), 1.0);
}

TEST(ParserTest, UnaryMinus) {
  EXPECT_DOUBLE_EQ(run_scalar("x = -3 + 5", "x"), 2.0);
  EXPECT_DOUBLE_EQ(run_scalar("x = 2 * -3", "x"), -6.0);
  EXPECT_DOUBLE_EQ(run_scalar("x = +7", "x"), 7.0);
}

TEST(ParserTest, SyntaxErrorsCarryLineNumbers) {
  Interpreter vm;
  try {
    vm.run("a = 1\nb = (2\n");
    FAIL() << "expected parse error";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("line"), std::string::npos);
  }
}

TEST(ParserTest, MissingEndDetected) {
  Interpreter vm;
  EXPECT_THROW(vm.run("for i = 1:3\nx = i\n"), util::Error);
}

// ---- evaluator semantics ----------------------------------------------------------

TEST(EvalTest, RangeProducesInclusiveArray) {
  Interpreter vm;
  vm.run("r = 2:5");
  const Array& r = vm.get("r").array();
  ASSERT_EQ(r.size(), 4u);
  EXPECT_DOUBLE_EQ(r.front(), 2.0);
  EXPECT_DOUBLE_EQ(r.back(), 5.0);
}

TEST(EvalTest, EmptyRange) {
  Interpreter vm;
  vm.run("r = 5:2");
  EXPECT_TRUE(vm.get("r").array().empty());
}

TEST(EvalTest, ForLoopAccumulates) {
  EXPECT_DOUBLE_EQ(run_scalar("s = 0\nfor i = 1:10\ns = s + i\nend", "s"),
                   55.0);
}

TEST(EvalTest, ForLoopOverScalar) {
  EXPECT_DOUBLE_EQ(run_scalar("s = 0\nfor i = 4\ns = s + i\nend", "s"), 4.0);
}

TEST(EvalTest, WhileLoop) {
  EXPECT_DOUBLE_EQ(
      run_scalar("x = 1\nwhile x < 100\nx = x * 2\nend", "x"), 128.0);
}

TEST(EvalTest, IfElse) {
  EXPECT_DOUBLE_EQ(
      run_scalar("if 1 > 0\nx = 10\nelse\nx = 20\nend", "x"), 10.0);
  EXPECT_DOUBLE_EQ(
      run_scalar("if 1 < 0\nx = 10\nelse\nx = 20\nend", "x"), 20.0);
}

TEST(EvalTest, IfWithoutElse) {
  EXPECT_DOUBLE_EQ(run_scalar("x = 1\nif 0 > 1\nx = 2\nend", "x"), 1.0);
}

TEST(EvalTest, ScalarArrayBroadcast) {
  Interpreter vm;
  vm.run("a = ones(3)\nb = a * 2 + 1\nc = 10 - a");
  const Array& b = vm.get("b").array();
  EXPECT_DOUBLE_EQ(b[0], 3.0);
  const Array& c = vm.get("c").array();
  EXPECT_DOUBLE_EQ(c[2], 9.0);
}

TEST(EvalTest, ArrayArrayElementwise) {
  Interpreter vm;
  vm.run("a = 1:3\nb = 2:4\nc = a * b\nd = a == a");
  const Array& c = vm.get("c").array();
  EXPECT_DOUBLE_EQ(c[0], 2.0);
  EXPECT_DOUBLE_EQ(c[2], 12.0);
  const Array& d = vm.get("d").array();
  EXPECT_DOUBLE_EQ(d[0], 1.0);
}

TEST(EvalTest, ArraySizeMismatchThrows) {
  Interpreter vm;
  EXPECT_THROW(vm.run("a = 1:3\nb = 1:4\nc = a + b"), util::Error);
}

TEST(EvalTest, ComparisonProducesMask) {
  Interpreter vm;
  vm.run("m = (1:5) > 3");
  const Array& m = vm.get("m").array();
  EXPECT_DOUBLE_EQ(m[2], 0.0);
  EXPECT_DOUBLE_EQ(m[3], 1.0);
}

TEST(EvalTest, OneBasedIndexing) {
  Interpreter vm;
  vm.run("a = 10:14\nx = a(1)\ny = a(5)\nz = a(2:3)");
  EXPECT_DOUBLE_EQ(vm.get("x").scalar(), 10.0);
  EXPECT_DOUBLE_EQ(vm.get("y").scalar(), 14.0);
  const Array& z = vm.get("z").array();
  ASSERT_EQ(z.size(), 2u);
  EXPECT_DOUBLE_EQ(z[0], 11.0);
}

TEST(EvalTest, IndexOutOfBoundsThrows) {
  Interpreter vm;
  EXPECT_THROW(vm.run("a = 1:3\nx = a(0)"), util::Error);
  EXPECT_THROW(vm.run("a = 1:3\nx = a(4)"), util::Error);
}

TEST(EvalTest, UndefinedVariableThrows) {
  Interpreter vm;
  EXPECT_THROW(vm.run("x = nosuchvar + 1"), util::Error);
}

TEST(EvalTest, UnknownFunctionThrows) {
  Interpreter vm;
  EXPECT_THROW(vm.run("x = frobnicate(3)"), util::Error);
}

TEST(EvalTest, MatrixScalarOps) {
  Interpreter vm;
  vm.run("A = sparse(0:1, 1:2, 1, 3, 3)\nB = 2 * A\nC = A / 4");
  EXPECT_DOUBLE_EQ(vm.get("B").matrix().at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(vm.get("C").matrix().at(1, 2), 0.25);
}

TEST(EvalTest, RowVectorTimesMatrix) {
  Interpreter vm;
  vm.run("A = sparse(0:1, 1:2, 1, 3, 3)\nr = ones(3)\ny = r * A");
  const Array& y = vm.get("y").array();
  EXPECT_DOUBLE_EQ(y[0], 0.0);
  EXPECT_DOUBLE_EQ(y[1], 1.0);
  EXPECT_DOUBLE_EQ(y[2], 1.0);
}

TEST(EvalTest, DispatchCounterIncrements) {
  Interpreter vm;
  const auto before = vm.dispatch_count();
  vm.run("x = 1 + 2\ny = sum(1:3)");
  EXPECT_GT(vm.dispatch_count(), before);
}

TEST(EvalTest, EvalExpressionReturnsValue) {
  Interpreter vm;
  vm.set("n", 4.0);
  EXPECT_DOUBLE_EQ(vm.eval_expression("n * 2 + 1").scalar(), 9.0);
  EXPECT_THROW(vm.eval_expression("x = 3"), util::ConfigError);
}

// ---- value model -------------------------------------------------------------------

TEST(ValueTest, TypeChecksThrowDescriptiveErrors) {
  const Value scalar(3.0);
  EXPECT_THROW((void)scalar.array(), util::Error);
  EXPECT_THROW((void)scalar.matrix(), util::Error);
  EXPECT_THROW((void)scalar.str(), util::Error);
  EXPECT_STREQ(scalar.type_name(), "scalar");
}

TEST(ValueTest, CopyOnWriteLeavesOriginalUntouched) {
  Value a(Array{1.0, 2.0});
  Value b = a;  // shares payload
  b.mutable_array()[0] = 99.0;
  EXPECT_DOUBLE_EQ(a.array()[0], 1.0);
  EXPECT_DOUBLE_EQ(b.array()[0], 99.0);
}

TEST(ValueTest, Truthiness) {
  EXPECT_TRUE(Value(1.0).truthy());
  EXPECT_FALSE(Value(0.0).truthy());
  EXPECT_TRUE(Value(Array{1.0, 2.0}).truthy());
  EXPECT_FALSE(Value(Array{1.0, 0.0}).truthy());
  EXPECT_FALSE(Value(Array{}).truthy());
  EXPECT_TRUE(Value(std::string("x")).truthy());
  EXPECT_FALSE(Value(std::string()).truthy());
}

// ---- builtins ----------------------------------------------------------------------

TEST(BuiltinTest, ZerosOnesNumel) {
  Interpreter vm;
  vm.run("z = zeros(4)\no = ones(3)\nn = numel(z)");
  EXPECT_EQ(vm.get("z").array().size(), 4u);
  EXPECT_DOUBLE_EQ(vm.get("o").array()[2], 1.0);
  EXPECT_DOUBLE_EQ(vm.get("n").scalar(), 4.0);
}

TEST(BuiltinTest, SumMaxMinNorm) {
  Interpreter vm;
  vm.run("a = 1:4\ns = sum(a)\nm = max(a)\nl = min(a)\nn = norm(a, 1)");
  EXPECT_DOUBLE_EQ(vm.get("s").scalar(), 10.0);
  EXPECT_DOUBLE_EQ(vm.get("m").scalar(), 4.0);
  EXPECT_DOUBLE_EQ(vm.get("l").scalar(), 1.0);
  EXPECT_DOUBLE_EQ(vm.get("n").scalar(), 10.0);
}

TEST(BuiltinTest, MatrixSumsByDimension) {
  Interpreter vm;
  vm.run("A = sparse(0:1, 1:2, 1, 3, 3)\ndin = sum(A, 1)\ndout = sum(A, 2)");
  const Array& din = vm.get("din").array();
  EXPECT_DOUBLE_EQ(din[1], 1.0);
  EXPECT_DOUBLE_EQ(din[0], 0.0);
  const Array& dout = vm.get("dout").array();
  EXPECT_DOUBLE_EQ(dout[2], 0.0);
  EXPECT_DOUBLE_EQ(dout[0], 1.0);
}

TEST(BuiltinTest, AbsFloorSqrtMod) {
  Interpreter vm;
  vm.run("a = abs(-3)\nb = floor(2.9)\nc = sqrt(16)\nd = mod(7, 3)");
  EXPECT_DOUBLE_EQ(vm.get("a").scalar(), 3.0);
  EXPECT_DOUBLE_EQ(vm.get("b").scalar(), 2.0);
  EXPECT_DOUBLE_EQ(vm.get("c").scalar(), 4.0);
  EXPECT_DOUBLE_EQ(vm.get("d").scalar(), 1.0);
}

TEST(BuiltinTest, CumsumRunningTotals) {
  Interpreter vm;
  vm.run("c = cumsum(1:4)");
  EXPECT_EQ(vm.get("c").array(), (Array{1.0, 3.0, 6.0, 10.0}));
}

TEST(BuiltinTest, LinspaceEndpointsExact) {
  Interpreter vm;
  vm.run("x = linspace(0, 1, 5)");
  const Array& x = vm.get("x").array();
  ASSERT_EQ(x.size(), 5u);
  EXPECT_DOUBLE_EQ(x.front(), 0.0);
  EXPECT_DOUBLE_EQ(x[2], 0.5);
  EXPECT_DOUBLE_EQ(x.back(), 1.0);
  EXPECT_THROW(vm.run("y = linspace(0, 1, 1)"), util::Error);
}

TEST(BuiltinTest, SortValsAndUnique) {
  Interpreter vm;
  vm.run("s = sortvals(permute(1:4, sortperm2(4:7, 4:7)))\n"
         "u = unique(interleave(1:3, 1:3))");
  EXPECT_EQ(vm.get("s").array(), (Array{1.0, 2.0, 3.0, 4.0}));
  EXPECT_EQ(vm.get("u").array(), (Array{1.0, 2.0, 3.0}));
}

TEST(BuiltinTest, FindAndAny) {
  Interpreter vm;
  vm.run("idx = find((1:5) > 3)\na = any(zeros(3))\nb = any(1:3)");
  const Array& idx = vm.get("idx").array();
  ASSERT_EQ(idx.size(), 2u);
  EXPECT_DOUBLE_EQ(idx[0], 4.0);  // 1-based
  EXPECT_DOUBLE_EQ(vm.get("a").scalar(), 0.0);
  EXPECT_DOUBLE_EQ(vm.get("b").scalar(), 1.0);
}

TEST(BuiltinTest, RandRespectsReseed) {
  Interpreter a;
  Interpreter b;
  a.reseed(5);
  b.reseed(5);
  a.run("x = rand(8)");
  b.run("x = rand(8)");
  EXPECT_EQ(a.get("x").array(), b.get("x").array());
}

TEST(BuiltinTest, CrandMatchesCounterRng) {
  Interpreter vm;
  vm.run("x = crand(3, 5, 42)");
  const rnd::CounterRng rng(42);
  const Array& x = vm.get("x").array();
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(x[i], rng.uniform(3, i));
  }
}

TEST(BuiltinTest, ScrambleMatchesBitPermutation) {
  Interpreter vm;
  vm.run("x = scramble(0:7, 3, 99)");
  const gen::BitPermutation perm(3, 99);
  const Array& x = vm.get("x").array();
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(x[i], static_cast<double>(perm.forward(i)));
  }
}

TEST(BuiltinTest, SortPerm2AndPermute) {
  Interpreter vm;
  vm.run("u = zeros(3)\nu = u + 2\nv = 3:5\n"
         "idx = sortperm2(v, u)\nw = permute(v, idx)");
  const Array& w = vm.get("w").array();
  EXPECT_DOUBLE_EQ(w[0], 3.0);
  EXPECT_DOUBLE_EQ(w[2], 5.0);
}

TEST(BuiltinTest, StrideAndInterleave) {
  Interpreter vm;
  vm.run("e = interleave(1:3, 4:6)\nu = stride(e, 2, 1)\nv = stride(e, 2, 2)");
  EXPECT_EQ(vm.get("u").array(), (Array{1.0, 2.0, 3.0}));
  EXPECT_EQ(vm.get("v").array(), (Array{4.0, 5.0, 6.0}));
}

TEST(BuiltinTest, SparseMatrixConstruction) {
  Interpreter vm;
  vm.run("A = sparse(zeros(2), ones(2), 1, 2, 2)\n"
         "n = nnz(A)\ns = valsum(A)\nx = full_at(A, 0, 1)");
  EXPECT_DOUBLE_EQ(vm.get("n").scalar(), 1.0);   // duplicate accumulated
  EXPECT_DOUBLE_EQ(vm.get("s").scalar(), 2.0);
  EXPECT_DOUBLE_EQ(vm.get("x").scalar(), 2.0);
}

TEST(BuiltinTest, ZerocolsAndScalerows) {
  Interpreter vm;
  vm.run(
      "A = sparse(zeros(2), 0:1, 1, 2, 2)\n"  // entries (0,0) and (0,1)
      "B = zerocols(A, (0:1) == 0)\n"         // mask = [1, 0]
      "dout = sum(B, 2)\n"
      "C = scalerows(B, dout)");
  EXPECT_DOUBLE_EQ(vm.get("B").matrix().at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(vm.get("C").matrix().at(0, 1), 1.0);
  // zerocols/scalerows must not mutate their argument (value semantics)
  EXPECT_DOUBLE_EQ(vm.get("A").matrix().at(0, 0), 1.0);
}

TEST(BuiltinTest, EdgeFileIoRoundTrip) {
  util::TempDir dir("prpb-interp");
  Interpreter vm;
  vm.set("d", dir.path().string());
  vm.run("save_edges(d, 2, 10:14, 20:24)\n"
         "n = count_edges(d)\n"
         "e = load_edges(d)\n"
         "u = stride(e, 2, 1)");
  EXPECT_DOUBLE_EQ(vm.get("n").scalar(), 5.0);
  EXPECT_EQ(vm.get("u").array(), (Array{10, 11, 12, 13, 14}));
}

TEST(BuiltinTest, PrintCollectsOutput) {
  Interpreter vm;
  vm.run("print('hello')\nprint(42)");
  ASSERT_EQ(vm.output().size(), 2u);
  EXPECT_EQ(vm.output()[0], "hello");
}

TEST(BuiltinTest, WrongArgCountThrows) {
  Interpreter vm;
  EXPECT_THROW(vm.run("x = zeros(1, 2)"), util::Error);
  EXPECT_THROW(vm.run("x = mod(5)"), util::Error);
}

// ---- user-defined functions --------------------------------------------------

TEST(FunctionTest, DefineAndCall) {
  Interpreter vm;
  vm.run("function double_it(x)\nreturn x * 2\nend\ny = double_it(21)");
  EXPECT_DOUBLE_EQ(vm.get("y").scalar(), 42.0);
}

TEST(FunctionTest, MultipleParameters) {
  EXPECT_DOUBLE_EQ(run_scalar("function hypot2(a, b)\nreturn a*a + b*b\nend\n"
                              "h = hypot2(3, 4)",
                              "h"),
                   25.0);
}

TEST(FunctionTest, NoParameters) {
  EXPECT_DOUBLE_EQ(
      run_scalar("function five()\nreturn 5\nend\nx = five()", "x"), 5.0);
}

TEST(FunctionTest, WorksOnArrays) {
  Interpreter vm;
  vm.run("function l1(v)\nreturn sum(abs(v))\nend\nn = l1(0 - (1:3))");
  EXPECT_DOUBLE_EQ(vm.get("n").scalar(), 6.0);
}

TEST(FunctionTest, LocalScopeHidesCallerVariables) {
  Interpreter vm;
  // The function must not see `secret`, and its locals must not leak out.
  vm.run("secret = 7\n"
         "function peek(x)\nlocal_tmp = x + 1\nreturn local_tmp\nend\n"
         "y = peek(1)");
  EXPECT_DOUBLE_EQ(vm.get("y").scalar(), 2.0);
  EXPECT_FALSE(vm.has("local_tmp"));
  EXPECT_THROW(vm.run("function bad(x)\nreturn secret\nend\nz = bad(0)"),
               util::Error);
}

TEST(FunctionTest, FallsThroughWithoutReturnGivesZero) {
  EXPECT_DOUBLE_EQ(
      run_scalar("function noop(x)\ny = x\nend\nr = noop(9)", "r"), 0.0);
}

TEST(FunctionTest, EarlyReturnViaIf) {
  const char* source =
      "function clamp01(x)\n"
      "if x < 0\nreturn 0\nend\n"
      "if x > 1\nreturn 1\nend\n"
      "return x\n"
      "end\n"
      "a = clamp01(0 - 5)\nb = clamp01(0.5)\nc = clamp01(3)";
  Interpreter vm;
  vm.run(source);
  EXPECT_DOUBLE_EQ(vm.get("a").scalar(), 0.0);
  EXPECT_DOUBLE_EQ(vm.get("b").scalar(), 0.5);
  EXPECT_DOUBLE_EQ(vm.get("c").scalar(), 1.0);
}

TEST(FunctionTest, RecursionWorks) {
  EXPECT_DOUBLE_EQ(run_scalar("function fact(n)\n"
                              "if n <= 1\nreturn 1\nend\n"
                              "return n * fact(n - 1)\n"
                              "end\n"
                              "f = fact(10)",
                              "f"),
                   3628800.0);
}

TEST(FunctionTest, InfiniteRecursionCaught) {
  Interpreter vm;
  EXPECT_THROW(
      vm.run("function loop(n)\nreturn loop(n + 1)\nend\nx = loop(0)"),
      util::Error);
}

TEST(FunctionTest, WrongArityThrows) {
  Interpreter vm;
  vm.run("function f(a, b)\nreturn a + b\nend");
  EXPECT_THROW(vm.run("x = f(1)"), util::Error);
  EXPECT_THROW(vm.run("x = f(1, 2, 3)"), util::Error);
}

TEST(FunctionTest, FunctionsSurviveAcrossRuns) {
  Interpreter vm;
  vm.run("function inc(x)\nreturn x + 1\nend");
  vm.run("y = inc(41)");
  EXPECT_DOUBLE_EQ(vm.get("y").scalar(), 42.0);
}

TEST(FunctionTest, UserFunctionShadowsBuiltin) {
  Interpreter vm;
  vm.run("function numel(x)\nreturn 99\nend\nn = numel(1:5)");
  EXPECT_DOUBLE_EQ(vm.get("n").scalar(), 99.0);
}

TEST(FunctionTest, RedefinitionReplaces) {
  Interpreter vm;
  vm.run("function f(x)\nreturn 1\nend");
  vm.run("function f(x)\nreturn 2\nend");
  vm.run("y = f(0)");
  EXPECT_DOUBLE_EQ(vm.get("y").scalar(), 2.0);
}

TEST(BuiltinTest, RegisteredBuiltinCallable) {
  Interpreter vm;
  vm.register_builtin("twice",
                      [](std::vector<Value>& args, Interpreter&) {
                        return Value(args.at(0).scalar() * 2);
                      });
  vm.run("x = twice(21)");
  EXPECT_DOUBLE_EQ(vm.get("x").scalar(), 42.0);
}

}  // namespace
}  // namespace prpb::interp
