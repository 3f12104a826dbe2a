// Pluggable stage storage — the kernel/harness I/O seam.
//
// The pipeline's kernels are pure stage-to-stage transforms; where a stage
// physically lives (a directory of shard files on Lustre or local disk, or
// RAM for the tmpfs-style ablation promised in DESIGN.md §2) is a harness
// decision, not a kernel decision. A StageStore names stages, and each
// stage holds an ordered set of named shards accessed through the
// StageReader/StageWriter byte streams:
//
//   DirStageStore       — shard files under root/<stage>/ (byte-identical
//                         to the historical on-disk layout)
//   MemStageStore       — shard buffers in memory, thread-safe
//   CountingStageStore  — decorator recording bytes/files read and written
//                         (the runner diffs it around each kernel) and,
//                         when tracing, a span per shard
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "io/stage_stream.hpp"
#include "obs/trace.hpp"

namespace prpb::obs {
class Histogram;
}  // namespace prpb::obs

namespace prpb::io {

/// Canonical shard file name for shard `index` of a stage ("edges_00042.tsv").
std::string shard_name(std::size_t index);

/// Canonical error-context prefix for stage/shard diagnostics:
///   "stage 'k1_sorted' shard 'edges_00003.tsv' (index 3) [store dir]"
/// Every store implementation (and the runner's stage checks) phrases its
/// errors through this so failures always name the stage, the shard and
/// the storage kind, whatever layer they surface from. The index clause is
/// derived from the shard name's digit run and omitted when absent; the
/// shard clause is omitted when `shard` is empty.
std::string shard_context(const std::string& kind, const std::string& stage,
                          const std::string& shard = {});

class StageStore {
 public:
  virtual ~StageStore() = default;

  /// Storage kind for reports: "dir" | "mem".
  [[nodiscard]] virtual std::string kind() const = 0;

  /// Opens one shard for reading. Throws IoError when absent.
  virtual std::unique_ptr<StageReader> open_read(const std::string& stage,
                                                 const std::string& shard) = 0;
  /// Opens (creates or truncates) one shard for writing. Creates the stage
  /// if needed. Throws IoError when the stage name is unusable.
  virtual std::unique_ptr<StageWriter> open_write(const std::string& stage,
                                                  const std::string& shard) = 0;
  /// Sorted shard names of a stage. Throws IoError when the stage does not
  /// exist (use exists() for a non-throwing probe).
  [[nodiscard]] virtual std::vector<std::string> list(
      const std::string& stage) const = 0;
  [[nodiscard]] virtual bool exists(const std::string& stage) const = 0;
  /// Creates the stage if needed and drops all of its shards.
  virtual void clear_stage(const std::string& stage) = 0;
  /// Removes the stage and everything in it (no-op when absent).
  virtual void remove(const std::string& stage) = 0;
  /// Removes one shard of a stage (no-op when absent). The external sort
  /// uses this to drop spill runs as soon as a merge consumes them.
  virtual void remove_shard(const std::string& stage,
                            const std::string& shard) = 0;
  /// Total payload bytes across all shards of a stage (0 when absent).
  [[nodiscard]] virtual std::uint64_t stage_bytes(
      const std::string& stage) const = 0;
  /// True when the stage is absent or holds no payload bytes. The default
  /// is a correct-but-costly probe; concrete stores override it with a
  /// cheap check (a full list()/stage_bytes() sweep just to test emptiness
  /// scans every shard).
  [[nodiscard]] virtual bool empty(const std::string& stage) const {
    return !exists(stage) || stage_bytes(stage) == 0;
  }

  /// Filesystem root when stages are backed by directories, nullptr
  /// otherwise; callers must treat nullptr as "storage is not on disk".
  /// Nothing in the pipeline needs a path (the external sort spills
  /// through the store); forwarding decorators pass the inner root on.
  [[nodiscard]] virtual const std::filesystem::path* root_dir() const {
    return nullptr;
  }
};

/// On-disk store: stage `s` is the directory root/<s>, shards are regular
/// files inside it. An absolute stage name replaces the root, so a store
/// rooted at "." resolves relative and absolute stage names as plain paths.
class DirStageStore final : public StageStore {
 public:
  explicit DirStageStore(std::filesystem::path root)
      : root_(std::move(root)) {}

  [[nodiscard]] std::string kind() const override { return "dir"; }
  std::unique_ptr<StageReader> open_read(const std::string& stage,
                                         const std::string& shard) override;
  std::unique_ptr<StageWriter> open_write(const std::string& stage,
                                          const std::string& shard) override;
  [[nodiscard]] std::vector<std::string> list(
      const std::string& stage) const override;
  [[nodiscard]] bool exists(const std::string& stage) const override;
  void clear_stage(const std::string& stage) override;
  void remove(const std::string& stage) override;
  void remove_shard(const std::string& stage,
                    const std::string& shard) override;
  [[nodiscard]] std::uint64_t stage_bytes(
      const std::string& stage) const override;
  [[nodiscard]] bool empty(const std::string& stage) const override;
  [[nodiscard]] const std::filesystem::path* root_dir() const override {
    return &root_;
  }

  [[nodiscard]] std::filesystem::path resolve(const std::string& stage) const {
    return root_ / stage;
  }

 private:
  std::filesystem::path root_;
};

/// In-memory store: shard payloads live in RAM (the tmpfs ablation). Map
/// operations are mutex-protected so backends may write shards from
/// multiple threads; each open shard buffer is owned by exactly one
/// writer/reader at a time, matching the pipeline's access pattern.
class MemStageStore final : public StageStore {
 public:
  [[nodiscard]] std::string kind() const override { return "mem"; }
  std::unique_ptr<StageReader> open_read(const std::string& stage,
                                         const std::string& shard) override;
  std::unique_ptr<StageWriter> open_write(const std::string& stage,
                                          const std::string& shard) override;
  [[nodiscard]] std::vector<std::string> list(
      const std::string& stage) const override;
  [[nodiscard]] bool exists(const std::string& stage) const override;
  void clear_stage(const std::string& stage) override;
  void remove(const std::string& stage) override;
  void remove_shard(const std::string& stage,
                    const std::string& shard) override;
  [[nodiscard]] std::uint64_t stage_bytes(
      const std::string& stage) const override;
  [[nodiscard]] bool empty(const std::string& stage) const override;

 private:
  using Shard = std::shared_ptr<std::string>;
  mutable std::mutex mutex_;
  std::map<std::string, std::map<std::string, Shard>> stages_;
};

/// Per-kernel I/O tally recorded by CountingStageStore.
struct StageIoCounters {
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t files_read = 0;     ///< shards opened for reading
  std::uint64_t files_written = 0;  ///< shards opened for writing

  StageIoCounters operator-(const StageIoCounters& other) const {
    return {bytes_read - other.bytes_read,
            bytes_written - other.bytes_written,
            files_read - other.files_read,
            files_written - other.files_written};
  }
};

/// The shard-accounting decorator: forwards to an inner store and accounts
/// for every shard opened through it, from one reading per shard.
///   * Always: counts bytes and files read and written. Counters are
///     cumulative; callers snapshot() before/after a kernel and subtract.
///     Thread-safe (atomic counters).
///   * When `hooks` is tracing at open: the shard also becomes a
///     "store/read_shard" or "store/write_shard" span covering the open,
///     the reads or writes, and close-on-destroy, with args
///     {stage, shard, bytes} — `bytes` being exactly what the counters
///     added for that shard. With a metrics registry the span's latency
///     also feeds the "store/shard_{read,write}_ms" histograms.
class CountingStageStore final : public StageStore {
 public:
  /// `inner` is not owned.
  explicit CountingStageStore(StageStore& inner, obs::Hooks hooks = {});

  [[nodiscard]] std::string kind() const override { return inner_.kind(); }
  std::unique_ptr<StageReader> open_read(const std::string& stage,
                                         const std::string& shard) override;
  std::unique_ptr<StageWriter> open_write(const std::string& stage,
                                          const std::string& shard) override;
  [[nodiscard]] std::vector<std::string> list(
      const std::string& stage) const override {
    return inner_.list(stage);
  }
  [[nodiscard]] bool exists(const std::string& stage) const override {
    return inner_.exists(stage);
  }
  void clear_stage(const std::string& stage) override {
    inner_.clear_stage(stage);
  }
  void remove(const std::string& stage) override { inner_.remove(stage); }
  void remove_shard(const std::string& stage,
                    const std::string& shard) override {
    inner_.remove_shard(stage, shard);
  }
  [[nodiscard]] std::uint64_t stage_bytes(
      const std::string& stage) const override {
    return inner_.stage_bytes(stage);
  }
  [[nodiscard]] bool empty(const std::string& stage) const override {
    return inner_.empty(stage);
  }
  [[nodiscard]] const std::filesystem::path* root_dir() const override {
    return inner_.root_dir();
  }

  [[nodiscard]] StageIoCounters snapshot() const;

 private:
  StageStore& inner_;
  obs::Hooks hooks_;
  obs::Histogram* read_latency_ms_ = nullptr;  // null unless traced + metrics
  obs::Histogram* write_latency_ms_ = nullptr;
  std::atomic<std::uint64_t> bytes_read_{0};
  std::atomic<std::uint64_t> bytes_written_{0};
  std::atomic<std::uint64_t> files_read_{0};
  std::atomic<std::uint64_t> files_written_{0};
};

}  // namespace prpb::io
