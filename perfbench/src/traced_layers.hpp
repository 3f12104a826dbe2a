// Traced-run instrumentation, all outside the program: decorators at the
// two public I/O seams (StageStore and StageCodec) that open spans around
// every store and codec call, and a pipeline backend that runs the native
// backend's K1–K3 through the same public layer calls (io read/write,
// sort::radix_sort, sparse::filter_edges, sparse::pagerank) with a span
// around each. The traced run's rank digest is checked like the untraced
// one, so the traced path cannot drift from the native result unnoticed.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "io/stage_codec.hpp"
#include "io/stage_store.hpp"
#include "spans.hpp"

namespace perfbench {

/// Forwards to an inner store; spans "io.store_read" around opening and
/// reading shards and "io.store_write" around opening, flushing and
/// closing them.
class TimedStore final : public prpb::io::StageStore {
 public:
  TimedStore(prpb::io::StageStore& inner, SpanRecorder& spans)
      : inner_(inner), spans_(spans) {}

  [[nodiscard]] std::string kind() const override { return inner_.kind(); }
  std::unique_ptr<prpb::io::StageReader> open_read(
      const std::string& stage, const std::string& shard) override;
  std::unique_ptr<prpb::io::StageWriter> open_write(
      const std::string& stage, const std::string& shard) override;
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

 private:
  prpb::io::StageStore& inner_;
  SpanRecorder& spans_;
};

/// Forwards to an inner codec; spans "io.decode" around every decoder call
/// and "io.encode" around every encoder call (an encoder's flushes into the
/// store nest inside as "io.store_write").
class TimedCodec final : public prpb::io::StageCodec {
 public:
  TimedCodec(const prpb::io::StageCodec& inner, SpanRecorder& spans)
      : inner_(inner), spans_(spans) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::string shard_extension() const override {
    return inner_.shard_extension();
  }
  [[nodiscard]] std::unique_ptr<prpb::io::StageEncoder> make_encoder()
      const override;
  [[nodiscard]] std::unique_ptr<prpb::io::StageDecoder> make_decoder()
      const override;

 private:
  const prpb::io::StageCodec& inner_;
  SpanRecorder& spans_;
};

/// The native backend's K1–K3 spelled as the public layer calls it makes,
/// each inside a span: "core.k1" { "io.read", "sort", "io.write" },
/// "core.k2" { "io.read", "sparse.filter" }, "core.k3" { "sparse.pagerank" }.
/// Stages go through a TimedCodec over the configured codec.
class TracedBackend final : public prpb::core::PipelineBackend {
 public:
  explicit TracedBackend(SpanRecorder& spans) : spans_(spans) {}

  [[nodiscard]] std::string name() const override { return "native"; }
  void kernel0(const prpb::core::KernelContext& ctx) override;
  void kernel1(const prpb::core::KernelContext& ctx) override;
  prpb::sparse::CsrMatrix kernel2(
      const prpb::core::KernelContext& ctx) override;
  std::vector<double> kernel3(const prpb::core::KernelContext& ctx,
                              const prpb::sparse::CsrMatrix& matrix) override;

 private:
  [[nodiscard]] TimedCodec codec(const prpb::core::KernelContext& ctx) const;

  SpanRecorder& spans_;
};

}  // namespace perfbench
