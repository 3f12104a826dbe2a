#include "traced_layers.hpp"

#include "gen/generator.hpp"
#include "io/edge_files.hpp"
#include "sort/edge_sort.hpp"
#include "sparse/filter.hpp"
#include "sparse/pagerank.hpp"

namespace perfbench {

namespace io = prpb::io;
namespace core = prpb::core;

namespace {

class TimedReader final : public io::StageReader {
 public:
  TimedReader(std::unique_ptr<io::StageReader> inner, SpanRecorder& spans)
      : inner_(std::move(inner)), spans_(spans) {}

  std::string_view read_chunk() override {
    const SpanRecorder::Scope span(spans_, "io.store_read");
    return inner_->read_chunk();
  }
  // Forwarded so the inner store's zero-copy view survives the decorator.
  std::unique_ptr<io::ReadView> view() override {
    const SpanRecorder::Scope span(spans_, "io.store_read");
    return inner_->view();
  }
  [[nodiscard]] std::uint64_t bytes_read() const override {
    return inner_->bytes_read();
  }

 private:
  std::unique_ptr<io::StageReader> inner_;
  SpanRecorder& spans_;
};

class TimedWriter final : public io::StageWriter {
 public:
  TimedWriter(std::unique_ptr<io::StageWriter> inner, SpanRecorder& spans)
      : inner_(std::move(inner)), spans_(spans) {}

  std::string& buffer() override { return inner_->buffer(); }
  void maybe_flush() override {
    const SpanRecorder::Scope span(spans_, "io.store_write");
    inner_->maybe_flush();
  }
  void close() override {
    const SpanRecorder::Scope span(spans_, "io.store_write");
    inner_->close();
  }
  [[nodiscard]] std::uint64_t bytes_written() const override {
    return inner_->bytes_written();
  }

 private:
  std::unique_ptr<io::StageWriter> inner_;
  SpanRecorder& spans_;
};

class TimedEncoder final : public io::StageEncoder {
 public:
  TimedEncoder(std::unique_ptr<io::StageEncoder> inner, SpanRecorder& spans)
      : inner_(std::move(inner)), spans_(spans) {}

  void begin(io::StageWriter& writer) override {
    const SpanRecorder::Scope span(spans_, "io.encode");
    inner_->begin(writer);
  }
  void encode(io::StageWriter& writer, const prpb::gen::Edge* edges,
              std::size_t count) override {
    const SpanRecorder::Scope span(spans_, "io.encode");
    inner_->encode(writer, edges, count);
  }
  void finish(io::StageWriter& writer) override {
    const SpanRecorder::Scope span(spans_, "io.encode");
    inner_->finish(writer);
  }

 private:
  std::unique_ptr<io::StageEncoder> inner_;
  SpanRecorder& spans_;
};

class TimedDecoder final : public io::StageDecoder {
 public:
  TimedDecoder(std::unique_ptr<io::StageDecoder> inner, SpanRecorder& spans)
      : inner_(std::move(inner)), spans_(spans) {}

  void feed(std::string_view chunk, prpb::gen::EdgeList& out) override {
    const SpanRecorder::Scope span(spans_, "io.decode");
    inner_->feed(chunk, out);
  }
  void finish(prpb::gen::EdgeList& out, const std::string& label) override {
    const SpanRecorder::Scope span(spans_, "io.decode");
    inner_->finish(out, label);
  }
  void decode(std::string_view shard, prpb::gen::EdgeList& out,
              const std::string& label) override {
    const SpanRecorder::Scope span(spans_, "io.decode");
    inner_->decode(shard, out, label);
  }

 private:
  std::unique_ptr<io::StageDecoder> inner_;
  SpanRecorder& spans_;
};

}  // namespace

std::unique_ptr<io::StageReader> TimedStore::open_read(
    const std::string& stage, const std::string& shard) {
  const SpanRecorder::Scope span(spans_, "io.store_read");
  return std::make_unique<TimedReader>(inner_.open_read(stage, shard),
                                       spans_);
}

std::unique_ptr<io::StageWriter> TimedStore::open_write(
    const std::string& stage, const std::string& shard) {
  const SpanRecorder::Scope span(spans_, "io.store_write");
  return std::make_unique<TimedWriter>(inner_.open_write(stage, shard),
                                       spans_);
}

std::unique_ptr<io::StageEncoder> TimedCodec::make_encoder() const {
  return std::make_unique<TimedEncoder>(inner_.make_encoder(), spans_);
}

std::unique_ptr<io::StageDecoder> TimedCodec::make_decoder() const {
  return std::make_unique<TimedDecoder>(inner_.make_decoder(), spans_);
}

TimedCodec TracedBackend::codec(const core::KernelContext& ctx) const {
  return TimedCodec(ctx.codec(), spans_);
}

void TracedBackend::kernel0(const core::KernelContext& ctx) {
  const core::PipelineConfig& config = ctx.config;
  const auto generator = prpb::gen::make_generator(
      config.generator, config.scale, config.edge_factor, config.seed);
  io::write_generated_edges(ctx.store, ctx.out_stage, *generator,
                            config.num_files, ctx.codec());
}

void TracedBackend::kernel1(const core::KernelContext& ctx) {
  const SpanRecorder::Scope kernel(spans_, "core.k1");
  const TimedCodec timed = codec(ctx);
  prpb::gen::EdgeList edges;
  {
    const SpanRecorder::Scope span(spans_, "io.read");
    edges = io::read_all_edges(ctx.store, ctx.in_stage, timed);
  }
  {
    const SpanRecorder::Scope span(spans_, "sort");
    prpb::sort::radix_sort(edges, ctx.config.sort_key);
  }
  const SpanRecorder::Scope span(spans_, "io.write");
  io::write_edge_list(ctx.store, ctx.out_stage, edges, ctx.config.num_files,
                      timed);
}

prpb::sparse::CsrMatrix TracedBackend::kernel2(
    const core::KernelContext& ctx) {
  const SpanRecorder::Scope kernel(spans_, "core.k2");
  const TimedCodec timed = codec(ctx);
  prpb::gen::EdgeList edges;
  {
    const SpanRecorder::Scope span(spans_, "io.read");
    edges = io::read_all_edges(ctx.store, ctx.in_stage, timed);
  }
  const SpanRecorder::Scope span(spans_, "sparse.filter");
  return prpb::sparse::filter_edges(edges, ctx.config.num_vertices());
}

std::vector<double> TracedBackend::kernel3(
    const core::KernelContext& ctx, const prpb::sparse::CsrMatrix& matrix) {
  const SpanRecorder::Scope kernel(spans_, "core.k3");
  prpb::sparse::PageRankConfig pr;
  pr.iterations = ctx.config.iterations;
  pr.damping = ctx.config.damping;
  pr.seed = ctx.config.seed;
  const SpanRecorder::Scope span(spans_, "sparse.pagerank");
  return prpb::sparse::pagerank(matrix, pr);
}

}  // namespace perfbench
