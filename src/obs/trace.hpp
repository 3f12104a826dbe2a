// Span-based pipeline tracing.
//
// A TraceRecorder collects timestamped events — RAII Spans (nestable,
// thread-aware duration events), counter tracks, and instants — and
// exports them as Chrome trace_event JSON, loadable in chrome://tracing
// and Perfetto. The recorder is the single observability clock: every
// timestamp is microseconds on the monotonic steady_clock since the
// recorder's construction, so spans recorded from any thread nest
// consistently.
//
// Cost model: when the recorder is disabled (or absent), constructing a
// Span is a null/flag check — no allocation, no clock read. Recording is
// mutex-serialized; spans bracket kernel phases and shard operations
// (microseconds to seconds), not per-edge work, so contention is nil.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

namespace prpb::obs {

/// One recorded trace event, timestamps in microseconds since the
/// recorder epoch.
struct TraceEvent {
  std::string name;
  char phase = 'X';      ///< 'X' complete (span), 'C' counter, 'i' instant
  std::uint64_t ts = 0;  ///< event start
  std::uint64_t dur = 0; ///< duration ('X' only)
  std::uint32_t tid = 0; ///< recorder-assigned dense thread id
  std::string args;      ///< pre-rendered JSON object ("{...}") or empty
};

class TraceRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  explicit TraceRecorder(bool enabled = true)
      : enabled_(enabled), epoch_(Clock::now()),
        recorder_id_(make_recorder_id()) {}

  /// Cheap enough for hot-path guards (relaxed atomic load).
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Microseconds since the recorder epoch (monotonic).
  [[nodiscard]] std::uint64_t now_us() const { return us_at(Clock::now()); }

  /// Microseconds from the recorder epoch to `t`, a reading of Clock taken
  /// after the recorder was constructed. Lets a caller that already read
  /// the clock for its own timing record a span from the same readings.
  [[nodiscard]] std::uint64_t us_at(Clock::time_point t) const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(t - epoch_)
            .count());
  }

  /// Dense per-thread id for trace rows (0 = first thread seen).
  [[nodiscard]] std::uint32_t thread_id();

  /// Records a completed span on the calling thread. No-op when disabled.
  void record_complete(std::string name, std::uint64_t ts, std::uint64_t dur,
                       std::string args = {});
  /// Records one point of a counter track. No-op when disabled.
  void record_counter(std::string name, double value);
  /// Records an instant event. No-op when disabled.
  void record_instant(std::string name, std::string args = {});

  [[nodiscard]] std::size_t event_count() const;
  /// Snapshot of all recorded events (copied under the lock).
  [[nodiscard]] std::vector<TraceEvent> events() const;

  /// Serializes as a Chrome trace_event JSON document:
  ///   {"displayTimeUnit":"ms","traceEvents":[...]}
  [[nodiscard]] std::string chrome_trace_json() const;
  void write_chrome_trace(const std::filesystem::path& path) const;

 private:
  /// Process-unique id for this recorder instance. Threads cache their
  /// assigned tid keyed on this (not the address: a recorder allocated
  /// where a destroyed one lived must not inherit its cached tids).
  static std::uint64_t make_recorder_id();

  std::atomic<bool> enabled_;
  Clock::time_point epoch_;
  std::uint64_t recorder_id_;
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  std::uint32_t next_tid_ = 0;
};

/// RAII span: starts timing at construction, records a complete event at
/// finish()/destruction. Inactive (free of any cost beyond the enabled
/// check) when the recorder is null or disabled. Names are string
/// literals by convention — slash-separated paths like "k1/sort/merge";
/// per-instance detail goes in set_args(), which only materializes when
/// the span is active.
class Span {
 public:
  Span() = default;
  Span(TraceRecorder* recorder, const char* name) {
    if (recorder != nullptr && recorder->enabled()) {
      recorder_ = recorder;
      name_ = name;
      start_ = recorder->now_us();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& other) noexcept { swap(other); }
  Span& operator=(Span&& other) noexcept {
    finish();
    swap(other);
    return *this;
  }
  ~Span() { finish(); }

  [[nodiscard]] bool active() const { return recorder_ != nullptr; }

  /// Attaches a pre-rendered JSON object ("{...}") to the event.
  void set_args(std::string args) {
    if (active()) args_ = std::move(args);
  }

  /// Records the event now (idempotent; also run by the destructor).
  void finish() {
    if (!active()) return;
    const std::uint64_t end = recorder_->now_us();
    recorder_->record_complete(name_, start_, end - start_,
                               std::move(args_));
    recorder_ = nullptr;
  }

 private:
  void swap(Span& other) {
    std::swap(recorder_, other.recorder_);
    std::swap(name_, other.name_);
    std::swap(start_, other.start_);
    std::swap(args_, other.args_);
  }

  TraceRecorder* recorder_ = nullptr;
  const char* name_ = "";
  std::uint64_t start_ = 0;
  std::string args_;
};

/// Accumulates many short intervals into one complete event — used for
/// per-shard codec time, where a span per feed()/encode() call would bloat
/// the trace. flush() emits an event whose duration is the accumulated
/// busy time, back-dated to end at the flush point. Because the start is
/// synthetic, two accumulated events on one thread need not nest; every
/// flushed event carries "acc":1 in its args so validators (trace_check)
/// can exempt them from the strict-nesting invariant real spans obey.
/// Inert when the recorder is off.
class AccumulatingSpan {
 public:
  AccumulatingSpan() = default;
  AccumulatingSpan(TraceRecorder* recorder, const char* name)
      : recorder_(recorder != nullptr && recorder->enabled() ? recorder
                                                             : nullptr),
        name_(name) {}

  [[nodiscard]] bool active() const { return recorder_ != nullptr; }

  /// Bracket each timed interval with begin()/end().
  void begin() {
    if (active()) mark_ = recorder_->now_us();
  }
  void end() {
    if (active()) accumulated_ += recorder_->now_us() - mark_;
  }

  /// Emits the accumulated event (if any) and resets the accumulator.
  /// The "acc":1 marker is merged into `args` (an object or empty).
  void flush(std::string args = {}) {
    if (!active() || accumulated_ == 0) return;
    if (args.empty()) {
      args = "{\"acc\":1}";
    } else {
      args = args.size() > 2 ? "{\"acc\":1," + args.substr(1)
                             : "{\"acc\":1}";
    }
    const std::uint64_t now = recorder_->now_us();
    recorder_->record_complete(name_, now - accumulated_, accumulated_,
                               std::move(args));
    accumulated_ = 0;
  }

 private:
  TraceRecorder* recorder_ = nullptr;
  const char* name_ = "";
  std::uint64_t mark_ = 0;
  std::uint64_t accumulated_ = 0;
};

class MetricsRegistry;

/// The observability hook bundle threaded through kernels and I/O layers.
/// All pointers are optional and non-owning; value-copied freely.
struct Hooks {
  TraceRecorder* trace = nullptr;
  MetricsRegistry* metrics = nullptr;

  /// True when span recording is live (recorder attached and enabled).
  [[nodiscard]] bool tracing() const {
    return trace != nullptr && trace->enabled();
  }
};

}  // namespace prpb::obs
