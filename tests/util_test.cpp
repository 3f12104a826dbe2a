// Tests for src/util: parsing, formatting, CLI, filesystem helpers, the
// thread pool, and timers.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/fs.hpp"
#include "util/parse.hpp"
#include "util/threadpool.hpp"
#include "util/timer.hpp"

namespace prpb::util {
namespace {

namespace fs = std::filesystem;

// ---- error helpers ----------------------------------------------------------

TEST(ErrorTest, RequireThrowsConfigError) {
  EXPECT_NO_THROW(require(true, "ok"));
  EXPECT_THROW(require(false, "bad config"), ConfigError);
}

TEST(ErrorTest, EnsureThrowsInvariantError) {
  EXPECT_NO_THROW(ensure(true, "ok"));
  EXPECT_THROW(ensure(false, "bad invariant"), InvariantError);
}

TEST(ErrorTest, IoRequireThrowsIoError) {
  EXPECT_THROW(io_require(false, "io"), IoError);
}

TEST(ErrorTest, ErrorsDeriveFromBase) {
  EXPECT_THROW(
      { throw ConfigError("x"); }, Error);
  EXPECT_THROW(
      { throw IoError("x"); }, Error);
  EXPECT_THROW(
      { throw InvariantError("x"); }, Error);
}

TEST(ErrorTest, MessagePreserved) {
  try {
    require(false, "exact message");
    FAIL() << "should have thrown";
  } catch (const ConfigError& e) {
    EXPECT_STREQ(e.what(), "exact message");
  }
}

// ---- parse ------------------------------------------------------------------

TEST(ParseTest, ParseU64Simple) {
  std::size_t pos = 0;
  EXPECT_EQ(parse_u64("12345", pos), 12345u);
  EXPECT_EQ(pos, 5u);
}

TEST(ParseTest, ParseU64StopsAtNonDigit) {
  std::size_t pos = 0;
  EXPECT_EQ(parse_u64("42\t17", pos), 42u);
  EXPECT_EQ(pos, 2u);
}

TEST(ParseTest, ParseU64RejectsEmptyAndNonDigit) {
  std::size_t pos = 0;
  EXPECT_FALSE(parse_u64("", pos).has_value());
  EXPECT_FALSE(parse_u64("x1", pos).has_value());
  pos = 3;
  EXPECT_FALSE(parse_u64("123", pos).has_value());  // pos at end
}

TEST(ParseTest, ParseU64Max) {
  EXPECT_EQ(parse_u64_full("18446744073709551615"),
            18446744073709551615ULL);
}

TEST(ParseTest, ParseU64OverflowRejected) {
  EXPECT_FALSE(parse_u64_full("18446744073709551616").has_value());
  EXPECT_FALSE(parse_u64_full("99999999999999999999").has_value());
}

TEST(ParseTest, ParseU64FullRejectsTrailing) {
  EXPECT_FALSE(parse_u64_full("12 ").has_value());
  EXPECT_FALSE(parse_u64_full(" 12").has_value());
  EXPECT_FALSE(parse_u64_full("1.5").has_value());
}

TEST(ParseTest, ParseI64FullSigned) {
  EXPECT_EQ(parse_i64_full("-42"), -42);
  EXPECT_EQ(parse_i64_full("9223372036854775807"), 9223372036854775807LL);
  EXPECT_FALSE(parse_i64_full("9223372036854775808").has_value());
}

TEST(ParseTest, ParseF64Full) {
  EXPECT_DOUBLE_EQ(parse_f64_full("3.5").value(), 3.5);
  EXPECT_DOUBLE_EQ(parse_f64_full("-1e3").value(), -1000.0);
  EXPECT_FALSE(parse_f64_full("abc").has_value());
  EXPECT_FALSE(parse_f64_full("1.5x").has_value());
}

TEST(ParseTest, FormatU64RoundTrip) {
  for (const std::uint64_t v :
       {0ULL, 1ULL, 9ULL, 10ULL, 123456789ULL, 18446744073709551615ULL}) {
    char buf[20];
    const std::size_t n = format_u64(buf, v);
    EXPECT_EQ(parse_u64_full(std::string_view(buf, n)), v);
  }
}

TEST(ParseTest, FormatU64AtEveryDigitBoundary) {
  // 0, 9, 10, 99, 100, ... up to 10^19, then the top of the range: the
  // SWAR lane below 10^8 and the scalar loop above it.
  std::vector<std::uint64_t> values = {0, 1ULL << 32, ~0ULL};
  for (std::uint64_t p = 10; p != 0; p = p <= ~0ULL / 10 ? p * 10 : 0) {
    values.push_back(p - 1);
    values.push_back(p);
  }
  for (const std::uint64_t v : values) {
    char buf[20];
    std::memset(buf, 'x', sizeof(buf));
    const std::size_t n = format_u64(buf, v);
    EXPECT_EQ(std::string(buf, n), std::to_string(v));
  }
}

TEST(ParseTest, AppendU64Appends) {
  std::string out = "x=";
  append_u64(out, 314);
  EXPECT_EQ(out, "x=314");
}

TEST(ParseTest, SplitTab) {
  const auto parts = split_tab("12\t34");
  ASSERT_TRUE(parts.has_value());
  EXPECT_EQ(parts->first, "12");
  EXPECT_EQ(parts->second, "34");
  EXPECT_FALSE(split_tab("1234").has_value());
}

TEST(ParseTest, SplitTabUsesFirstTab) {
  const auto parts = split_tab("a\tb\tc");
  ASSERT_TRUE(parts.has_value());
  EXPECT_EQ(parts->first, "a");
  EXPECT_EQ(parts->second, "b\tc");
}

TEST(ParseTest, StripCr) {
  EXPECT_EQ(strip_cr("line\r"), "line");
  EXPECT_EQ(strip_cr("line"), "line");
  EXPECT_EQ(strip_cr(""), "");
}

// ---- format -----------------------------------------------------------------

TEST(FormatTest, HumanBytes) {
  EXPECT_EQ(human_bytes(0), "0 B");
  EXPECT_EQ(human_bytes(999), "999 B");
  EXPECT_EQ(human_bytes(25 * 1024 * 1024), "25 MB");
  EXPECT_EQ(human_bytes(1ULL << 30), "1.0 GB");
}

TEST(FormatTest, HumanCount) {
  EXPECT_EQ(human_count(0), "0");
  EXPECT_EQ(human_count(999), "999");
  EXPECT_EQ(human_count(65536), "66K");
  EXPECT_EQ(human_count(1073741824), "1.1G");
}

TEST(FormatTest, Sci) { EXPECT_EQ(sci(1234567.0), "1.23e+06"); }

TEST(FormatTest, Fixed) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fixed(2.0, 0), "2");
}

TEST(FormatTest, TextTableAlignsColumns) {
  TextTable table({"name", "value"});
  table.add_row({"a", "1"});
  table.add_row({"long-name", "22"});
  const std::string out = table.str();
  EXPECT_NE(out.find("name       value"), std::string::npos);
  EXPECT_NE(out.find("long-name  22"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);
}

TEST(FormatTest, TextTableRejectsBadRowWidth) {
  TextTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), ConfigError);
}

TEST(FormatTest, TextTableRejectsEmptyHeader) {
  EXPECT_THROW(TextTable({}), ConfigError);
}

// ---- cli --------------------------------------------------------------------

TEST(CliTest, ParsesOptionsAndFlags) {
  ArgParser args("prog", "test");
  args.add_option("scale", "scale", "16");
  args.add_flag("verbose", "verbose");
  const char* argv[] = {"prog", "--scale", "20", "--verbose"};
  ASSERT_TRUE(args.parse(4, argv));
  EXPECT_EQ(args.get_int("scale"), 20);
  EXPECT_TRUE(args.get_flag("verbose"));
}

TEST(CliTest, DefaultsApply) {
  ArgParser args("prog", "test");
  args.add_option("scale", "scale", "16");
  args.add_flag("verbose", "verbose");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(args.parse(1, argv));
  EXPECT_EQ(args.get_int("scale"), 16);
  EXPECT_FALSE(args.get_flag("verbose"));
}

TEST(CliTest, EqualsSyntax) {
  ArgParser args("prog", "test");
  args.add_option("backend", "backend", "native");
  const char* argv[] = {"prog", "--backend=arraylang"};
  ASSERT_TRUE(args.parse(2, argv));
  EXPECT_EQ(args.get("backend"), "arraylang");
}

TEST(CliTest, UnknownOptionThrows) {
  ArgParser args("prog", "test");
  const char* argv[] = {"prog", "--nope", "1"};
  EXPECT_THROW(args.parse(3, argv), ConfigError);
}

TEST(CliTest, MissingValueThrows) {
  ArgParser args("prog", "test");
  args.add_option("scale", "scale", "16");
  const char* argv[] = {"prog", "--scale"};
  EXPECT_THROW(args.parse(2, argv), ConfigError);
}

TEST(CliTest, FlagWithValueThrows) {
  ArgParser args("prog", "test");
  args.add_flag("verbose", "verbose");
  const char* argv[] = {"prog", "--verbose=yes"};
  EXPECT_THROW(args.parse(2, argv), ConfigError);
}

TEST(CliTest, NonIntegerValueThrows) {
  ArgParser args("prog", "test");
  args.add_option("scale", "scale", "16");
  const char* argv[] = {"prog", "--scale", "abc"};
  ASSERT_TRUE(args.parse(3, argv));
  EXPECT_THROW((void)args.get_int("scale"), ConfigError);
}

TEST(CliTest, PositionalCollected) {
  ArgParser args("prog", "test");
  const char* argv[] = {"prog", "one", "two"};
  ASSERT_TRUE(args.parse(3, argv));
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "one");
}

TEST(CliTest, DuplicateOptionRegistrationThrows) {
  ArgParser args("prog", "test");
  args.add_option("x", "x", "1");
  EXPECT_THROW(args.add_option("x", "again", "2"), ConfigError);
  EXPECT_THROW(args.add_flag("x", "again"), ConfigError);
}

TEST(CliTest, HelpMentionsOptionsAndDefaults) {
  ArgParser args("prog", "description here");
  args.add_option("scale", "the scale", "16");
  const std::string help = args.help();
  EXPECT_NE(help.find("description here"), std::string::npos);
  EXPECT_NE(help.find("--scale"), std::string::npos);
  EXPECT_NE(help.find("default: 16"), std::string::npos);
}

TEST(CliTest, GetOnFlagThrows) {
  ArgParser args("prog", "test");
  args.add_flag("v", "v");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(args.parse(1, argv));
  EXPECT_THROW(args.get("v"), ConfigError);
  EXPECT_THROW((void)args.get_flag("missing"), ConfigError);
}

// ---- fs ---------------------------------------------------------------------

TEST(FsTest, TempDirCreatesAndRemoves) {
  fs::path kept;
  {
    TempDir dir("prpb-test");
    kept = dir.path();
    EXPECT_TRUE(fs::is_directory(kept));
    std::ofstream(dir.sub("file.txt")) << "data";
    EXPECT_TRUE(fs::exists(dir.sub("file.txt")));
  }
  EXPECT_FALSE(fs::exists(kept));
}

TEST(FsTest, TempDirKeep) {
  fs::path kept;
  {
    TempDir dir("prpb-test");
    kept = dir.path();
    dir.keep();
  }
  EXPECT_TRUE(fs::exists(kept));
  fs::remove_all(kept);
}

TEST(FsTest, TempDirMoveTransfersOwnership) {
  fs::path path;
  {
    TempDir a("prpb-test");
    path = a.path();
    TempDir b = std::move(a);
    EXPECT_EQ(b.path(), path);
  }
  EXPECT_FALSE(fs::exists(path));
}

TEST(FsTest, TempDirsAreUnique) {
  TempDir a("prpb-test");
  TempDir b("prpb-test");
  EXPECT_NE(a.path(), b.path());
}

TEST(FsTest, ListFilesSortedOrdersLexicographically) {
  TempDir dir("prpb-test");
  std::ofstream(dir.sub("b.txt")) << "b";
  std::ofstream(dir.sub("a.txt")) << "a";
  std::ofstream(dir.sub("c.txt")) << "c";
  const auto files = list_files_sorted(dir.path());
  ASSERT_EQ(files.size(), 3u);
  EXPECT_EQ(files[0].filename(), "a.txt");
  EXPECT_EQ(files[2].filename(), "c.txt");
}

TEST(FsTest, ListFilesSortedSkipsSubdirectories) {
  TempDir dir("prpb-test");
  std::ofstream(dir.sub("a.txt")) << "a";
  fs::create_directory(dir.sub("subdir"));
  EXPECT_EQ(list_files_sorted(dir.path()).size(), 1u);
}

TEST(FsTest, ListFilesSortedThrowsOnMissingDir) {
  EXPECT_THROW(list_files_sorted("/nonexistent/prpb"), IoError);
}

TEST(FsTest, DirBytesSumsSizes) {
  TempDir dir("prpb-test");
  std::ofstream(dir.sub("a")) << "12345";
  std::ofstream(dir.sub("b")) << "678";
  EXPECT_EQ(dir_bytes(dir.path()), 8u);
}

TEST(FsTest, EnsureDirAndClearDir) {
  TempDir dir("prpb-test");
  const auto nested = dir.sub("x") / "y";
  ensure_dir(nested);
  EXPECT_TRUE(fs::is_directory(nested));
  std::ofstream(nested / "f") << "1";
  clear_dir(nested);
  EXPECT_TRUE(fs::is_directory(nested));
  EXPECT_TRUE(list_files_sorted(nested).empty());
}

// ---- threadpool -------------------------------------------------------------

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPoolTest, PropagatesExceptions) {
  ThreadPool pool(1);
  auto future = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  parallel_for(pool, 0, 100, [&hits](std::uint64_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool ran = false;
  parallel_for(pool, 5, 5, [&ran](std::uint64_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, ParallelForChunksCoverExactly) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> total{0};
  parallel_for_chunks(pool, 10, 1000,
                      [&total](std::uint64_t lo, std::uint64_t hi) {
                        total += hi - lo;
                      });
  EXPECT_EQ(total.load(), 990u);
}

TEST(ThreadPoolTest, ParallelForRethrows) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for(pool, 0, 10,
                            [](std::uint64_t i) {
                              if (i == 7) throw std::runtime_error("x");
                            }),
               std::runtime_error);
}

// ---- timer ------------------------------------------------------------------

TEST(TimerTest, StopwatchMeasuresNonNegative) {
  Stopwatch watch;
  EXPECT_GE(watch.seconds(), 0.0);
}

TEST(TimerTest, RestartReturnsElapsed) {
  Stopwatch watch;
  const double elapsed = watch.restart();
  EXPECT_GE(elapsed, 0.0);
  EXPECT_GE(watch.seconds(), 0.0);
}

TEST(TimerTest, ScopeTimerWritesOnDestruction) {
  double out = -1.0;
  {
    ScopeTimer timer(out);
  }
  EXPECT_GE(out, 0.0);
}

TEST(TimerTest, TimingRecordRate) {
  TimingRecord record{"k", 2.0, 100};
  EXPECT_DOUBLE_EQ(record.rate(), 50.0);
  TimingRecord zero{"k", 0.0, 100};
  EXPECT_DOUBLE_EQ(zero.rate(), 0.0);
}

}  // namespace
}  // namespace prpb::util
