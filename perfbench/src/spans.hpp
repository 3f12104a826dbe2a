// Span recorder of the traced run. Spans are opened by the benchmark's own
// code around calls into each layer's public functions; each records its
// name, start, end and the span open around it when it began. Spans stay
// in memory until the run reads its totals. Single-threaded: the traced
// pipeline calls every layer from one thread.
#pragma once

#include <chrono>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Record {
    std::string name;
    int parent = -1;  ///< index of the enclosing span, -1 at the root
    double start_s = 0.0;
    double end_s = -1.0;  ///< negative while the span is open
    [[nodiscard]] double seconds() const { return end_s - start_s; }
  };

  /// Opens a span on construction and closes it on destruction.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* name)
        : recorder_(recorder), id_(recorder.begin(name)) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { recorder_.end(id_); }

   private:
    SpanRecorder& recorder_;
    int id_;
  };

  int begin(const char* name);
  void end(int id);
  void clear();

  /// Summed duration of every span called `name`; with `under` set, only
  /// of those that have an ancestor called `under`.
  [[nodiscard]] double total(const std::string& name,
                             const std::string& under = {}) const;
  /// Summed self time of every span called `name`: its duration minus the
  /// durations of its direct children.
  [[nodiscard]] double self_total(const std::string& name) const;
  /// Summed duration of the direct children of every span called `parent`.
  [[nodiscard]] double children_total(const std::string& parent) const;
  /// Empty when every span is closed and lies within its parent's
  /// interval; otherwise a description of the first violation.
  [[nodiscard]] std::string nesting_error() const;

 private:
  [[nodiscard]] double now() const;
  [[nodiscard]] bool has_ancestor(int id, const std::string& name) const;

  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Record> records_;
  std::vector<int> open_;
};

}  // namespace perfbench
