// Tests for util/stats (summaries, trend fits), util/json (writer and
// parser), the obs metrics registry, and core/report (machine-readable run
// reports).
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <utility>
#include <vector>

#include "core/backend.hpp"
#include "core/report.hpp"
#include "core/runner.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace prpb {
namespace {

// ---- stats -----------------------------------------------------------------------

TEST(StatsTest, SummaryOfKnownSample) {
  const auto s = util::summarize({4.0, 1.0, 3.0, 2.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.stddev, std::sqrt(1.25), 1e-12);
}

TEST(StatsTest, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(util::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(util::median({1.0, 2.0, 3.0, 10.0}), 2.5);
  EXPECT_DOUBLE_EQ(util::median({7.0}), 7.0);
}

TEST(StatsTest, EmptySampleThrows) {
  EXPECT_THROW(util::summarize({}), util::ConfigError);
  EXPECT_THROW(util::median({}), util::ConfigError);
}

TEST(StatsTest, LinearFitExactLine) {
  const auto fit = util::linear_fit({1, 2, 3, 4}, {3, 5, 7, 9});
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(StatsTest, LinearFitNoisyLineLowerR2) {
  const auto fit = util::linear_fit({1, 2, 3, 4}, {3, 9, 4, 11});
  EXPECT_LT(fit.r_squared, 1.0);
  EXPECT_GT(fit.slope, 0.0);
}

TEST(StatsTest, LinearFitErrors) {
  EXPECT_THROW(util::linear_fit({1.0}, {1.0}), util::ConfigError);
  EXPECT_THROW(util::linear_fit({1, 2}, {1, 2, 3}), util::ConfigError);
  EXPECT_THROW(util::linear_fit({2, 2}, {1, 2}), util::ConfigError);
}

TEST(StatsTest, LogLogFitRecoversPowerLawExponent) {
  // y = 5 x^-1.5
  std::vector<double> x, y;
  for (double v = 1; v <= 64; v *= 2) {
    x.push_back(v);
    y.push_back(5.0 * std::pow(v, -1.5));
  }
  const auto fit = util::log_log_fit(x, y);
  EXPECT_NEAR(fit.slope, -1.5, 1e-9);
  EXPECT_NEAR(std::exp(fit.intercept), 5.0, 1e-9);
}

TEST(StatsTest, LogLogFitRejectsNonPositive) {
  EXPECT_THROW(util::log_log_fit({1, 0}, {1, 1}), util::ConfigError);
  EXPECT_THROW(util::log_log_fit({1, 2}, {-1, 1}), util::ConfigError);
}

// ---- json writer -------------------------------------------------------------------

TEST(JsonTest, FlatObject) {
  util::JsonWriter json;
  json.begin_object();
  json.field("name", "prpb");
  json.field("scale", std::int64_t{16});
  json.field("rate", 2.5);
  json.field("ok", true);
  json.end_object();
  EXPECT_EQ(json.str(),
            R"({"name":"prpb","scale":16,"rate":2.5,"ok":true})");
}

TEST(JsonTest, NestedContainers) {
  util::JsonWriter json;
  json.begin_object();
  json.begin_array("values");
  json.value(std::int64_t{1});
  json.value(std::int64_t{2});
  json.end_array();
  json.begin_object("inner");
  json.field("x", std::int64_t{3});
  json.end_object();
  json.end_object();
  EXPECT_EQ(json.str(), R"({"values":[1,2],"inner":{"x":3}})");
}

TEST(JsonTest, EscapingSpecialCharacters) {
  EXPECT_EQ(util::JsonWriter::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(util::JsonWriter::escape(std::string_view("\x01", 1)),
            "\\u0001");
}

TEST(JsonTest, NonFiniteNumbersBecomeNull) {
  util::JsonWriter json;
  json.begin_array();
  json.value(std::nan(""));
  json.end_array();
  EXPECT_EQ(json.str(), "[null]");
}

TEST(JsonTest, MisuseDetected) {
  {
    util::JsonWriter json;
    json.begin_object();
    EXPECT_THROW(json.str(), util::InvariantError);  // unclosed
  }
  {
    util::JsonWriter json;
    json.begin_array();
    EXPECT_THROW(json.field("k", 1.0), util::InvariantError);
  }
  {
    util::JsonWriter json;
    json.begin_object();
    EXPECT_THROW(json.value(1.0), util::InvariantError);
  }
  {
    util::JsonWriter json;
    json.begin_object();
    EXPECT_THROW(json.end_array(), util::InvariantError);
  }
}

TEST(JsonTest, ArrayOfStrings) {
  util::JsonWriter json;
  json.begin_array();
  json.value("a");
  json.value("b\"c");
  json.end_array();
  EXPECT_EQ(json.str(), R"(["a","b\"c"])");
}

// ---- json parser -------------------------------------------------------------------

TEST(JsonParseTest, ScalarsAndContainers) {
  const auto doc = util::JsonValue::parse(
      R"({"name":"prpb","n":256,"rate":-2.5e3,"ok":true,"gone":null,)"
      R"("list":[1,"two",false]})");
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("name").string(), "prpb");
  EXPECT_DOUBLE_EQ(doc.at("n").number(), 256.0);
  EXPECT_DOUBLE_EQ(doc.at("rate").number(), -2500.0);
  EXPECT_TRUE(doc.at("ok").boolean());
  EXPECT_TRUE(doc.at("gone").is_null());
  const auto& list = doc.at("list").array();
  ASSERT_EQ(list.size(), 3u);
  EXPECT_DOUBLE_EQ(list[0].number(), 1.0);
  EXPECT_EQ(list[1].string(), "two");
  EXPECT_FALSE(list[2].boolean());
}

TEST(JsonParseTest, StringEscapes) {
  const auto doc = util::JsonValue::parse(R"(["a\"b\\c\nd","A"])");
  EXPECT_EQ(doc.array()[0].string(), "a\"b\\c\nd");
  EXPECT_EQ(doc.array()[1].string(), "A");
}

TEST(JsonParseTest, ObjectsPreserveMemberOrder) {
  const auto doc = util::JsonValue::parse(R"({"z":1,"a":2,"m":3})");
  const auto& members = doc.members();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].first, "z");
  EXPECT_EQ(members[1].first, "a");
  EXPECT_EQ(members[2].first, "m");
}

TEST(JsonParseTest, MalformedInputThrows) {
  for (const char* bad : {"", "{", "[1,]", "{\"k\":}", "tru", "1 2",
                          "{\"k\" 1}", "\"unterminated"}) {
    EXPECT_THROW(util::JsonValue::parse(bad), util::IoError) << bad;
  }
}

TEST(JsonParseTest, AccessorsCheckTypes) {
  const auto doc = util::JsonValue::parse("[1]");
  EXPECT_THROW((void)doc.string(), util::InvariantError);
  EXPECT_THROW((void)doc.at("k"), util::InvariantError);
  EXPECT_EQ(doc.find("k"), nullptr);
}

TEST(JsonParseTest, WriterOutputRoundTrips) {
  util::JsonWriter writer;
  writer.begin_object();
  writer.field("label", "a\"b\nc");
  writer.begin_array("xs");
  writer.value(1.5);
  writer.value(std::int64_t{-3});
  writer.end_array();
  writer.end_object();
  const auto doc = util::JsonValue::parse(writer.str());
  EXPECT_EQ(doc.at("label").string(), "a\"b\nc");
  EXPECT_DOUBLE_EQ(doc.at("xs").array()[0].number(), 1.5);
  EXPECT_DOUBLE_EQ(doc.at("xs").array()[1].number(), -3.0);
}

// ---- metrics registry --------------------------------------------------------------

TEST(MetricsTest, HistogramBucketBoundariesAreInclusiveUpper) {
  obs::Histogram h({1.0, 2.0, 4.0});
  EXPECT_EQ(h.bucket_index(0.5), 0u);
  EXPECT_EQ(h.bucket_index(1.0), 0u);  // bounds are inclusive upper limits
  EXPECT_EQ(h.bucket_index(1.5), 1u);
  EXPECT_EQ(h.bucket_index(4.0), 2u);
  EXPECT_EQ(h.bucket_index(4.1), 3u);  // overflow bucket

  for (const double v : {0.5, 1.0, 1.5, 4.0, 100.0}) h.observe(v);
  const auto snap = h.snapshot();
  ASSERT_EQ(snap.counts.size(), 4u);  // 3 finite + overflow
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 5u);
  EXPECT_DOUBLE_EQ(snap.sum, 107.0);
  EXPECT_DOUBLE_EQ(snap.min, 0.5);
  EXPECT_DOUBLE_EQ(snap.max, 100.0);
}

TEST(MetricsTest, HistogramRejectsBadBounds) {
  EXPECT_THROW((obs::Histogram({})), util::ConfigError);
  EXPECT_THROW((obs::Histogram({2.0, 1.0})), util::ConfigError);
  EXPECT_THROW((obs::Histogram({1.0, 1.0})), util::ConfigError);
}

TEST(MetricsTest, CounterMergesAcrossThreads) {
  obs::MetricsRegistry registry;
  constexpr int kThreads = 4;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      auto& counter = registry.counter("edges");
      auto& histogram =
          registry.histogram("batch", obs::batch_size_buckets());
      for (int i = 0; i < kAddsPerThread; ++i) {
        counter.add(1.0);
        histogram.observe(128.0);
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto snap = registry.snapshot();
  EXPECT_DOUBLE_EQ(snap.counters.at("edges"),
                   static_cast<double>(kThreads * kAddsPerThread));
  EXPECT_EQ(snap.histograms.at("batch").count,
            static_cast<std::uint64_t>(kThreads * kAddsPerThread));
}

TEST(MetricsTest, SnapshotJsonRoundTrips) {
  obs::MetricsRegistry registry;
  registry.counter("k1/spills").add(3.0);
  registry.gauge("mem/rss_mb").set(42.5);
  auto& h = registry.histogram("lat", {1.0, 10.0});
  h.observe(0.5);
  h.observe(100.0);

  const auto doc = util::JsonValue::parse(registry.snapshot().json());
  EXPECT_DOUBLE_EQ(doc.at("counters").at("k1/spills").number(), 3.0);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("mem/rss_mb").number(), 42.5);
  const auto& lat = doc.at("histograms").at("lat");
  EXPECT_DOUBLE_EQ(lat.at("count").number(), 2.0);
  EXPECT_DOUBLE_EQ(lat.at("sum").number(), 100.5);
  const auto& counts = lat.at("counts").array();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_DOUBLE_EQ(counts[0].number(), 1.0);
  EXPECT_DOUBLE_EQ(counts[1].number(), 0.0);
  EXPECT_DOUBLE_EQ(counts[2].number(), 1.0);
}

TEST(MetricsTest, DefaultBucketLaddersAreStrictlyIncreasing) {
  for (const auto& bounds :
       {obs::latency_buckets_ms(), obs::batch_size_buckets()}) {
    ASSERT_FALSE(bounds.empty());
    for (std::size_t i = 1; i < bounds.size(); ++i) {
      EXPECT_LT(bounds[i - 1], bounds[i]);
    }
  }
}

// ---- run report --------------------------------------------------------------------

TEST(ReportTest, ContainsAllSections) {
  util::TempDir work("prpb-report");
  core::PipelineConfig config;
  config.scale = 7;
  config.work_dir = work.path();
  const auto backend = core::make_backend("native");
  const auto result = core::run_pipeline(config, *backend);

  const std::string json = core::run_report_json(config, result);
  for (const char* needle :
       {"\"benchmark\":\"pagerank-pipeline\"", "\"backend\":\"native\"",
        "\"k0_generate\"", "\"k1_sort\"", "\"k2_filter\"",
        "\"k3_pagerank\"", "\"rank_digest\"", "\"matrix_fingerprint\"",
        "\"num_edges\":2048", "\"storage\":\"dir\"", "\"bytes_read\"",
        "\"bytes_written\"", "\"files_read\"", "\"files_written\"",
        "\"bytes_per_edge\"", "\"edges_per_second\"", "\"attempts\"",
        "\"resumed\"", "\"wall_seconds_total\"", "\"metrics\"",
        "\"k3_iterations\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
  EXPECT_EQ(json.find("eigen_check"), std::string::npos);  // not requested
}

TEST(ReportTest, WallClockCoversKernelsAndTelemetryParses) {
  util::TempDir work("prpb-report");
  core::PipelineConfig config;
  config.scale = 7;
  config.work_dir = work.path();
  const auto backend = core::make_backend("native");
  const auto result = core::run_pipeline(config, *backend);

  // All five timings come off the same monotonic clock, so the end-to-end
  // wall time bounds the per-kernel sum from above.
  const double kernel_sum = result.k0.seconds + result.k1.seconds +
                            result.k2.seconds + result.k3.seconds;
  EXPECT_GE(result.wall_seconds_total, kernel_sum);

  const auto doc =
      util::JsonValue::parse(core::run_report_json(config, result));
  EXPECT_GE(doc.at("wall_seconds_total").number(), kernel_sum);
  // Each kernel object reports the runner's bytes-per-edge figure, and
  // carries no hardware-counter block.
  const std::pair<const char*, const core::KernelMetrics*> kernels[] = {
      {"k0_generate", &result.k0},
      {"k1_sort", &result.k1},
      {"k2_filter", &result.k2},
      {"k3_pagerank", &result.k3}};
  for (const auto& [name, metrics] : kernels) {
    const auto& kernel = doc.at("kernels").at(name);
    EXPECT_DOUBLE_EQ(kernel.at("bytes_per_edge").number(),
                     metrics->bytes_per_edge())
        << name;
    EXPECT_EQ(kernel.find("perf"), nullptr) << name;
  }
  EXPECT_GT(result.k1.bytes_per_edge(), 0.0);
  const auto& iterations = doc.at("k3_iterations").array();
  ASSERT_EQ(iterations.size(), static_cast<std::size_t>(config.iterations));
  EXPECT_DOUBLE_EQ(iterations[0].at("iteration").number(), 0.0);
  EXPECT_GE(iterations[0].at("residual_l1").number(), 0.0);
  // Typed metrics replaced the flat counter map; the native path records
  // at least its external-sort decision counter or shard I/O histograms.
  EXPECT_TRUE(doc.at("metrics").is_object());
}

TEST(ReportTest, IncludesEigenCheckWhenGiven) {
  util::TempDir work("prpb-report");
  core::PipelineConfig config;
  config.scale = 7;
  config.work_dir = work.path();
  const auto backend = core::make_backend("native");
  const auto result = core::run_pipeline(config, *backend);
  const auto check = core::validate_against_eigenvector(
      result.matrix, result.ranks, config.damping, 1e-6);

  const std::string json = core::run_report_json(config, result, check);
  EXPECT_NE(json.find("\"eigen_check\""), std::string::npos);
  EXPECT_NE(json.find("\"pass\":true"), std::string::npos);
}

TEST(ReportTest, SameRunSameReportDifferentBackendSameDigest) {
  // Reports from two backends differ in timings but agree on digests.
  auto digest_of = [](const std::string& json) {
    const auto pos = json.find("\"rank_digest\":\"");
    EXPECT_NE(pos, std::string::npos);
    return json.substr(pos + 15, 16);
  };
  std::string first;
  for (const char* name : {"native", "graphblas"}) {
    util::TempDir work("prpb-report");
    core::PipelineConfig config;
    config.scale = 7;
    config.work_dir = work.path();
    const auto backend = core::make_backend(name);
    const auto result = core::run_pipeline(config, *backend);
    const std::string digest =
        digest_of(core::run_report_json(config, result));
    if (first.empty()) {
      first = digest;
    } else {
      EXPECT_EQ(digest, first);
    }
  }
}

}  // namespace
}  // namespace prpb
