#include "model/hardware.hpp"

#include <cstring>
#include <map>
#include <mutex>
#include <vector>

#include "gen/kronecker.hpp"
#include "io/edge_files.hpp"
#include "io/file_stream.hpp"
#include "io/tsv.hpp"
#include "util/fs.hpp"
#include "util/timer.hpp"

namespace prpb::model {

namespace {

double probe_memory_bandwidth(std::uint64_t bytes) {
  std::vector<char> src(bytes, 'x');
  std::vector<char> dst(bytes);
  // Warm both buffers, then time a round of copies.
  std::memcpy(dst.data(), src.data(), bytes);
  util::Stopwatch watch;
  constexpr int kRounds = 4;
  for (int i = 0; i < kRounds; ++i) {
    std::memcpy(dst.data(), src.data(), bytes);
    src[0] = static_cast<char>(i);  // defeat dead-copy elimination
  }
  const double seconds = watch.seconds();
  return seconds > 0 ? static_cast<double>(2 * bytes * kRounds) / seconds
                     : 0.0;
}

}  // namespace

double probe_triad_bandwidth(std::uint64_t bytes) {
  const std::size_t n =
      static_cast<std::size_t>(bytes / (3 * sizeof(double)));
  if (n == 0) return 0.0;
  std::vector<double> a(n, 0.0);
  std::vector<double> b(n, 1.0);
  std::vector<double> c(n, 2.0);
  double scalar = 3.0;
  volatile double sink = 0.0;
  // Warm pass, then timed rounds; the scalar changes per round and a[0]
  // is consumed so the loop cannot be elided.
  for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + scalar * c[i];
  util::Stopwatch watch;
  constexpr int kRounds = 4;
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + scalar * c[i];
    sink = a[0];
    scalar += 1e-9;
  }
  (void)sink;
  const double seconds = watch.seconds();
  const double moved = static_cast<double>(3 * sizeof(double)) *
                       static_cast<double>(n) * kRounds;
  return seconds > 0 ? moved / seconds : 0.0;
}

namespace {

gen::EdgeList probe_edges(std::uint64_t count) {
  gen::KroneckerParams params;
  params.scale = 16;
  params.edge_factor = 16;
  gen::KroneckerGenerator generator(params);
  gen::EdgeList edges;
  generator.generate_range(0, std::min(count, generator.num_edges()), edges);
  return edges;
}

void probe_codec(const gen::EdgeList& edges, io::Codec codec,
                 double& format_s, double& parse_s) {
  std::string text;
  {
    util::Stopwatch watch;
    io::append_edges(text, edges.data(), edges.size(), codec);
    format_s = watch.seconds() / static_cast<double>(edges.size());
  }
  {
    gen::EdgeList parsed;
    parsed.reserve(edges.size());
    util::Stopwatch watch;
    io::parse_edges(text, parsed, codec);
    parse_s = watch.seconds() / static_cast<double>(edges.size());
  }
}

void probe_io(std::uint64_t bytes, double& write_bps, double& read_bps) {
  util::TempDir dir("prpb-model");
  const auto path = dir.sub("probe.bin");
  std::string block(1 << 20, 'y');
  {
    util::Stopwatch watch;
    io::FileWriter writer(path);
    for (std::uint64_t written = 0; written < bytes;
         written += block.size()) {
      writer.write(block);
    }
    writer.close();
    const double seconds = watch.seconds();
    write_bps = seconds > 0 ? static_cast<double>(bytes) / seconds : 0.0;
  }
  {
    util::Stopwatch watch;
    io::FileReader reader(path);
    std::uint64_t total = 0;
    for (;;) {
      const auto chunk = reader.read_chunk();
      if (chunk.empty()) break;
      total += chunk.size();
    }
    const double seconds = watch.seconds();
    read_bps = seconds > 0 ? static_cast<double>(total) / seconds : 0.0;
  }
}

double probe_flops(std::uint64_t count) {
  volatile double sink = 0.0;
  double a = 1.000000001;
  double acc = 0.5;
  util::Stopwatch watch;
  for (std::uint64_t i = 0; i < count; ++i) {
    acc = acc * a + 1e-9;  // one multiply-add per iteration
  }
  sink = acc;
  (void)sink;
  const double seconds = watch.seconds();
  return seconds > 0 ? static_cast<double>(2 * count) / seconds : 0.0;
}

}  // namespace

double cached_triad_bandwidth(std::uint64_t bytes) {
  static std::mutex mutex;
  static std::map<std::uint64_t, double> cache;
  std::lock_guard<std::mutex> lock(mutex);
  const auto it = cache.find(bytes);
  if (it != cache.end()) return it->second;
  const double bps = probe_triad_bandwidth(bytes);
  cache.emplace(bytes, bps);
  return bps;
}

HardwareModel calibrate(const CalibrationOptions& options) {
  HardwareModel model;
  model.memory_bandwidth_bps = probe_memory_bandwidth(options.memory_bytes);
  model.triad_bandwidth_bps = cached_triad_bandwidth(options.memory_bytes);
  probe_io(options.io_bytes, model.io_write_bps, model.io_read_bps);
  const gen::EdgeList edges = probe_edges(options.codec_edges);
  probe_codec(edges, io::Codec::kFast, model.fast_format_s,
              model.fast_parse_s);
  probe_codec(edges, io::Codec::kGeneric, model.generic_format_s,
              model.generic_parse_s);
  model.flops = probe_flops(options.flop_count);
  return model;
}

HardwareModel paper_platform_model() {
  HardwareModel model;
  // Xeon E5-2650 (Sandy Bridge, 2 GHz): one core of a 4-channel DDR3 node,
  // Lustre over InfiniBand. Order-of-magnitude figures only.
  model.memory_bandwidth_bps = 8e9;
  model.triad_bandwidth_bps = 10e9;
  model.io_write_bps = 500e6;
  model.io_read_bps = 800e6;
  model.flops = 4e9;
  model.fast_format_s = 20e-9;
  model.fast_parse_s = 25e-9;
  model.generic_format_s = 400e-9;
  model.generic_parse_s = 600e-9;
  return model;
}

}  // namespace prpb::model
