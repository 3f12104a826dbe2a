// Tests for the observability subsystem: TraceRecorder/Span semantics,
// the disabled-path cost contract (no allocation, no events), the
// resource sampler, the golden structure of a full traced pipeline run
// (span taxonomy, nesting, per-iteration kernel-3 telemetry), and that the
// run report and the trace are two views of one reading.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <new>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/backend.hpp"
#include "core/runner.hpp"
#include "obs/metrics.hpp"
#include "obs/resource_sampler.hpp"
#include "obs/trace.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"

// Allocation counting is incompatible with sanitizer allocators; compile
// the counting operator new out entirely under ASan/TSan and skip the
// test at runtime instead.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PRPB_COUNT_ALLOCATIONS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PRPB_COUNT_ALLOCATIONS 0
#endif
#endif
#ifndef PRPB_COUNT_ALLOCATIONS
#define PRPB_COUNT_ALLOCATIONS 1
#endif

#if PRPB_COUNT_ALLOCATIONS
// The replaced operator new allocates with malloc, so free() in the
// replaced operator delete is the correct pairing — the compiler cannot
// see that and warns at every inlined delete in this TU.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
std::atomic<std::uint64_t> g_allocation_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace prpb {
namespace {

// ---- recorder + span basics ------------------------------------------------------

TEST(TraceRecorderTest, DisabledRecorderRecordsNothing) {
  obs::TraceRecorder recorder(false);
  {
    obs::Span outer(&recorder, "outer");
    obs::Span inner(&recorder, "inner");
    outer.set_args("{\"x\":1}");
  }
  recorder.record_counter("mem/rss_mb", 1.0);
  recorder.record_instant("note");
  EXPECT_EQ(recorder.event_count(), 0u);
  EXPECT_FALSE(recorder.enabled());
}

TEST(TraceRecorderTest, NullRecorderSpansAreInert) {
  obs::Span span(nullptr, "anything");
  EXPECT_FALSE(span.active());
  span.set_args("{}");
  span.finish();  // must be a no-op, not a crash
}

TEST(TraceRecorderTest, SpansNestOnOneThread) {
  obs::TraceRecorder recorder;
  {
    obs::Span outer(&recorder, "outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      obs::Span inner(&recorder, "inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 2u);
  // Inner finishes (and records) first.
  const obs::TraceEvent& inner = events[0];
  const obs::TraceEvent& outer = events[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(inner.tid, outer.tid);
  EXPECT_GE(inner.ts, outer.ts);
  EXPECT_LE(inner.ts + inner.dur, outer.ts + outer.dur);
  EXPECT_GT(outer.dur, inner.dur);
}

TEST(TraceRecorderTest, ThreadsGetDenseDistinctIds) {
  obs::TraceRecorder recorder;
  const std::uint32_t main_tid = recorder.thread_id();
  std::uint32_t worker_tid = main_tid;
  std::thread worker([&] { worker_tid = recorder.thread_id(); });
  worker.join();
  EXPECT_NE(worker_tid, main_tid);
  EXPECT_LT(std::max(worker_tid, main_tid), 2u);  // dense: {0, 1}
}

TEST(TraceRecorderTest, SetArgsAppearsInJson) {
  obs::TraceRecorder recorder;
  {
    obs::Span span(&recorder, "k3/iter");
    span.set_args("{\"iteration\":7}");
  }
  const auto document = util::JsonValue::parse(recorder.chrome_trace_json());
  const auto& events = document.at("traceEvents").array();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].at("args").at("iteration").number(), 7.0);
}

TEST(TraceRecorderTest, MoveTransfersOwnershipOfTheEvent) {
  obs::TraceRecorder recorder;
  {
    obs::Span first(&recorder, "moved");
    obs::Span second = std::move(first);
    EXPECT_FALSE(first.active());  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(second.active());
  }
  EXPECT_EQ(recorder.event_count(), 1u);  // recorded once, not twice
}

TEST(TraceRecorderTest, AccumulatingSpanEmitsOneBackDatedEvent) {
  obs::TraceRecorder recorder;
  obs::AccumulatingSpan span(&recorder, "codec/decode");
  span.begin();
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  span.end();
  span.begin();
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  span.end();
  span.flush("{\"shard\":\"part-0\"}");
  span.flush();  // nothing accumulated since: must not emit again

  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "codec/decode");
  EXPECT_GE(events[0].dur, 4000u);  // ~6 ms accumulated, µs units
  EXPECT_LE(events[0].ts + events[0].dur, recorder.now_us());
}

TEST(TraceRecorderTest, DisabledSpanPathDoesNotAllocate) {
#if !PRPB_COUNT_ALLOCATIONS
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#else
  obs::TraceRecorder recorder(false);
  {  // warm-up outside the measured window
    obs::Span span(&recorder, "warm");
  }
  const std::uint64_t before =
      g_allocation_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    obs::Span disabled(&recorder, "k1/sort");
    obs::Span null_span(nullptr, "k2/filter");
    obs::AccumulatingSpan acc(&recorder, "codec/decode");
    acc.begin();
    acc.end();
    acc.flush();
    disabled.finish();
  }
  EXPECT_EQ(g_allocation_count.load(std::memory_order_relaxed), before);
#endif
}

// ---- resource sampler ------------------------------------------------------------

TEST(ResourceSamplerTest, CollectsSamplesAndPeakRss) {
  obs::TraceRecorder recorder;
  obs::ResourceSampler::Options options;
  options.interval_ms = 10;
  options.trace = &recorder;
  obs::ResourceSampler sampler(options);
  sampler.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  sampler.stop();

  EXPECT_GE(sampler.sample_count(), 2u);
#if defined(__linux__)
  EXPECT_GT(sampler.peak_rss_bytes(), 0u);
#endif
  // Counter tracks landed in the trace.
  std::size_t rss_counters = 0;
  for (const auto& event : recorder.events()) {
    if (event.phase == 'C' && event.name == "mem/rss_mb") ++rss_counters;
  }
  EXPECT_GE(rss_counters, 2u);
}

TEST(ResourceSamplerTest, ResetPeakRestartsTracking) {
  obs::ResourceSampler::Options options;
  options.interval_ms = 10;
  obs::ResourceSampler sampler(options);
  sampler.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  sampler.reset_peak();
  sampler.stop();  // stop() takes a final sample, refreshing the peak
#if defined(__linux__)
  EXPECT_GT(sampler.peak_rss_bytes(), 0u);
#endif
}

// ---- golden trace structure of a full run ----------------------------------------

struct SpanRow {
  std::string name;
  std::uint64_t ts = 0;
  std::uint64_t end = 0;
};

TEST(PipelineTraceTest, GoldenStructureAtScale8) {
  util::TempDir work("prpb-trace");
  core::PipelineConfig config;
  config.scale = 8;
  config.work_dir = work.path();
  const auto backend = core::make_backend("native");

  obs::TraceRecorder recorder;
  obs::MetricsRegistry registry;
  core::RunOptions options;
  options.hooks.trace = &recorder;
  options.hooks.metrics = &registry;
  const auto result = core::run_pipeline(config, *backend, options);

  const auto document = util::JsonValue::parse(recorder.chrome_trace_json());
  EXPECT_EQ(document.at("displayTimeUnit").string(), "ms");

  std::map<std::string, std::size_t> spans;
  std::map<std::uint64_t, std::vector<SpanRow>> by_tid;
  for (const auto& event : document.at("traceEvents").array()) {
    const std::string& phase = event.at("ph").string();
    ASSERT_TRUE(phase == "X" || phase == "C" || phase == "i");
    if (phase != "X") continue;
    ASSERT_GE(event.at("dur").number(), 0.0);
    SpanRow row;
    row.name = event.at("name").string();
    row.ts = static_cast<std::uint64_t>(event.at("ts").number());
    row.end = row.ts + static_cast<std::uint64_t>(event.at("dur").number());
    by_tid[static_cast<std::uint64_t>(event.at("tid").number())].push_back(
        row);
    spans[row.name] += 1;
  }

  // Span taxonomy: the pipeline root, all four kernels, kernel sub-phases,
  // the shard-I/O layer and the codec layer must all be present.
  for (const char* name :
       {"pipeline", "k0/generate", "k1/sort", "k2/filter", "k3/pagerank",
        "k1/read", "k1/radix_sort", "k1/write", "k2/read",
        "k2/filter_edges", "store/read_shard", "store/write_shard",
        "codec/decode", "codec/encode"}) {
    EXPECT_GE(spans[name], 1u) << "missing span " << name;
  }
  // Exactly one "k3/iter" span per PageRank iteration, after the one
  // "k3/group" span of the serial SpMV's column grouping.
  EXPECT_EQ(spans["k3/iter"], static_cast<std::size_t>(config.iterations));
  EXPECT_EQ(spans["k3/group"], 1u);
  EXPECT_EQ(result.k3_iterations.size(),
            static_cast<std::size_t>(config.iterations));

  // Spans on each thread nest: any two are disjoint or one contains the
  // other (sorted by start asc / end desc, parents precede children).
  for (auto& [tid, rows] : by_tid) {
    std::sort(rows.begin(), rows.end(),
              [](const SpanRow& a, const SpanRow& b) {
                if (a.ts != b.ts) return a.ts < b.ts;
                return a.end > b.end;
              });
    std::vector<const SpanRow*> open;
    for (const SpanRow& row : rows) {
      while (!open.empty() && row.ts >= open.back()->end) open.pop_back();
      if (!open.empty()) {
        EXPECT_LE(row.end, open.back()->end)
            << row.name << " overlaps " << open.back()->name << " on tid "
            << tid;
      }
      open.push_back(&row);
    }
  }

  // Tracing made the shard-accounting store span every shard, so the
  // shard-latency histograms must have fills.
  const auto snapshot = registry.snapshot();
  ASSERT_TRUE(snapshot.histograms.count("store/shard_read_ms"));
  EXPECT_GT(snapshot.histograms.at("store/shard_read_ms").count, 0u);
  ASSERT_TRUE(snapshot.histograms.count("store/shard_write_ms"));
  EXPECT_GT(snapshot.histograms.at("store/shard_write_ms").count, 0u);
}

TEST(PipelineTraceTest, UntracedRunEmitsNoEventsButKeepsTelemetry) {
  util::TempDir work("prpb-trace");
  core::PipelineConfig config;
  config.scale = 7;
  config.work_dir = work.path();
  const auto backend = core::make_backend("native");

  obs::TraceRecorder recorder(false);
  core::RunOptions options;
  options.hooks.trace = &recorder;
  const auto result = core::run_pipeline(config, *backend, options);

  EXPECT_EQ(recorder.event_count(), 0u);
  // The k3 sink is independent of tracing: iteration stats still arrive.
  EXPECT_EQ(result.k3_iterations.size(),
            static_cast<std::size_t>(config.iterations));
  EXPECT_GT(result.wall_seconds_total, 0.0);
}

TEST(PipelineTraceTest, IterationTelemetryConverges) {
  util::TempDir work("prpb-trace");
  core::PipelineConfig config;
  config.scale = 7;
  config.work_dir = work.path();
  const auto backend = core::make_backend("parallel");
  const auto result = core::run_pipeline(config, *backend);

  ASSERT_EQ(result.k3_iterations.size(),
            static_cast<std::size_t>(config.iterations));
  for (std::size_t i = 0; i < result.k3_iterations.size(); ++i) {
    const auto& stats = result.k3_iterations[i];
    EXPECT_EQ(stats.iteration, static_cast<int>(i));
    EXPECT_GE(stats.seconds, 0.0);
    // Rank mass starts at 1 and can only leak through dangling vertices
    // (the paper's update does not redistribute it).
    EXPECT_GT(stats.rank_sum, 0.0);
    EXPECT_LE(stats.rank_sum, 1.0 + 1e-9);
    EXPECT_GE(stats.residual_l1, 0.0);
  }
  // Power iteration contracts: the residual must shrink over the run.
  EXPECT_LT(result.k3_iterations.back().residual_l1,
            result.k3_iterations.front().residual_l1);
}

// ---- one reading behind the report and the trace --------------------------------

std::uint64_t bytes_arg(const obs::TraceEvent& event) {
  return static_cast<std::uint64_t>(
      util::JsonValue::parse(event.args).at("bytes").number());
}

TEST(PipelineTraceTest, ReportAndTraceComeFromOneReading) {
  util::TempDir work("prpb-trace");
  core::PipelineConfig config;
  config.scale = 8;
  config.num_files = 2;
  config.work_dir = work.path();
  const auto backend = core::make_backend("native");

  obs::TraceRecorder recorder;
  core::RunOptions options;
  options.hooks.trace = &recorder;
  const auto result = core::run_pipeline(config, *backend, options);
  const std::vector<obs::TraceEvent> events = recorder.events();

  const std::pair<const char*, const core::KernelMetrics*> kernels[] = {
      {"k0/generate", &result.k0},
      {"k1/sort", &result.k1},
      {"k2/filter", &result.k2},
      {"k3/pagerank", &result.k3}};
  for (const auto& [name, metrics] : kernels) {
    const auto named = [name = std::string(name)](const obs::TraceEvent& e) {
      return e.name == name;
    };
    ASSERT_EQ(std::count_if(events.begin(), events.end(), named), 1) << name;
    const obs::TraceEvent& span =
        *std::find_if(events.begin(), events.end(), named);
    // The span and KernelMetrics.seconds share their clock readings; the
    // span's whole-microsecond endpoints cost at most 1 us of rounding.
    const long long expected_us = std::llround(metrics->seconds * 1e6);
    EXPECT_LE(std::llabs(static_cast<long long>(span.dur) - expected_us), 1)
        << name << " span " << span.dur << " us, report "
        << metrics->seconds << " s";

    // The shard spans inside the kernel carry exactly its stage bytes.
    std::uint64_t read = 0;
    std::uint64_t written = 0;
    std::uint64_t read_shards = 0;
    std::uint64_t written_shards = 0;
    for (const obs::TraceEvent& event : events) {
      if (event.ts < span.ts || event.ts + event.dur > span.ts + span.dur) {
        continue;
      }
      if (event.name == "store/read_shard") {
        read += bytes_arg(event);
        ++read_shards;
      } else if (event.name == "store/write_shard") {
        written += bytes_arg(event);
        ++written_shards;
      }
    }
    EXPECT_EQ(read + written, metrics->bytes_read + metrics->bytes_written)
        << name;
    EXPECT_EQ(read, metrics->bytes_read) << name;
    EXPECT_EQ(written, metrics->bytes_written) << name;
    EXPECT_EQ(read_shards, metrics->files_read) << name;
    EXPECT_EQ(written_shards, metrics->files_written) << name;
  }
  EXPECT_GT(result.k0.bytes_written, 0u);
  EXPECT_GT(result.k1.bytes_read, 0u);

  // The k3/iter spans and the report's k3_iterations are the same records.
  std::vector<const obs::TraceEvent*> iterations;
  for (const obs::TraceEvent& event : events) {
    if (event.name == "k3/iter") iterations.push_back(&event);
  }
  ASSERT_EQ(iterations.size(), result.k3_iterations.size());
  ASSERT_EQ(iterations.size(), static_cast<std::size_t>(config.iterations));
  for (std::size_t i = 0; i < iterations.size(); ++i) {
    const sparse::IterationStats& stats = result.k3_iterations[i];
    const auto args = util::JsonValue::parse(iterations[i]->args);
    EXPECT_EQ(args.at("iteration").number(), stats.iteration);
    EXPECT_EQ(args.at("residual_l1").number(), stats.residual_l1) << i;
    EXPECT_EQ(args.at("rank_sum").number(), stats.rank_sum) << i;
    EXPECT_EQ(iterations[i]->dur,
              static_cast<std::uint64_t>(stats.seconds * 1e6))
        << i;
  }
}

TEST(PipelineTraceTest, K3TelemetryIsIdenticalAcrossBackends) {
  core::PipelineConfig config;
  config.scale = 8;
  config.storage = "mem";
  const auto native = core::run_pipeline(config, *core::make_backend("native"));
  ASSERT_EQ(native.k3_iterations.size(),
            static_cast<std::size_t>(config.iterations));
  for (const char* name : {"parallel", "dataframe", "graphblas"}) {
    const auto result = core::run_pipeline(config, *core::make_backend(name));
    ASSERT_EQ(result.k3_iterations.size(), native.k3_iterations.size())
        << name;
    for (std::size_t i = 0; i < native.k3_iterations.size(); ++i) {
      EXPECT_EQ(result.k3_iterations[i].iteration, static_cast<int>(i));
      EXPECT_EQ(result.k3_iterations[i].residual_l1,
                native.k3_iterations[i].residual_l1)
          << name << " iteration " << i;
      EXPECT_EQ(result.k3_iterations[i].rank_sum,
                native.k3_iterations[i].rank_sum)
          << name << " iteration " << i;
    }
  }
}

}  // namespace
}  // namespace prpb
