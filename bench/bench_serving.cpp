// bench_serving — multi-threaded load generator for the rank server.
//
// Default mode runs the pipeline in-process, stands up a RankServer on an
// ephemeral loopback port, and drives it with N client threads issuing a
// weighted query mix; --connect targets an already-running prpb-serve
// instead (the CI loopback smoke does this). Each repeat reports sustained
// QPS; across repeats the document carries the QPS median + MAD plus the
// pooled client-observed p50/p99/p999 per query kind, as prpb-serving
// BenchCells (metric = "qps") that tools/bench_diff judges with the
// higher-is-better direction.
//
//   bench_serving --scale 16 --clients 8 --requests 20000 --repeats 3
//       --mix topk:45,rank:30,neighbors:20,ppr:5 --json BENCH_serving.json
//   bench_serving --connect 7070 --requests 1000 --scale 10
//       --verify-golden tests/data/golden_checksums.json
//
// --verify-golden closes the loop end to end: one full-restart ppr at the
// service's configured iteration count must reproduce the golden kernel-3
// rank digest bit for bit through the wire.
#include <cstdio>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <optional>
#include <thread>
#include <vector>

#include "core/backend.hpp"
#include "core/checksum.hpp"
#include "core/runner.hpp"
#include "io/file_stream.hpp"
#include "model/trajectory.hpp"
#include "rand/rng.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace {

using namespace prpb;

struct MixEntry {
  serve::Opcode opcode;
  double weight;
};

/// Parses "topk:45,rank:30,neighbors:20,ppr:5" into weighted entries.
std::vector<MixEntry> parse_mix(const std::string& text) {
  std::vector<MixEntry> mix;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string part = text.substr(pos, comma - pos);
    pos = comma + 1;
    const std::size_t colon = part.find(':');
    util::require(colon != std::string::npos,
                  "--mix entries must be op:weight, got '" + part + "'");
    const std::string name = part.substr(0, colon);
    const double weight = std::stod(part.substr(colon + 1));
    util::require(weight > 0, "--mix weights must be > 0");
    serve::Opcode opcode;
    if (name == "topk") {
      opcode = serve::Opcode::kTopk;
    } else if (name == "rank") {
      opcode = serve::Opcode::kRank;
    } else if (name == "neighbors") {
      opcode = serve::Opcode::kNeighbors;
    } else if (name == "ppr") {
      opcode = serve::Opcode::kPpr;
    } else if (name == "ping") {
      opcode = serve::Opcode::kPing;
    } else {
      throw util::ConfigError("--mix: unknown op '" + name + "'");
    }
    mix.push_back({opcode, weight});
  }
  util::require(!mix.empty(), "--mix must name at least one op");
  return mix;
}

/// Per-op latency samples from one client thread (milliseconds).
struct ClientSamples {
  std::vector<double> latency_ms[6];  // indexed by opcode value
  std::uint64_t completed = 0;
  std::uint64_t shed_retries = 0;
  std::string error;  // first hard failure, empty when clean
};

struct LoadOptions {
  std::uint16_t port = 0;
  int clients = 8;
  std::uint64_t requests = 20000;
  std::vector<MixEntry> mix;
  std::uint32_t topk = 10;
  std::uint32_t ppr_iters = 3;
  std::uint32_t ppr_restart = 8;
  std::uint64_t vertices = 0;
  std::uint64_t seed = 1;
};

/// One load repeat: `clients` threads race through a shared request
/// budget; returns wall seconds and every thread's samples.
double run_load(const LoadOptions& options,
                std::vector<ClientSamples>& samples) {
  // Signed on purpose: the budget overshoots by up to `clients` at the
  // end, and a signed counter just goes negative instead of wrapping.
  std::atomic<std::int64_t> remaining{
      static_cast<std::int64_t>(options.requests)};
  samples.assign(static_cast<std::size_t>(options.clients), {});

  double total_weight = 0;
  for (const MixEntry& entry : options.mix) total_weight += entry.weight;

  const auto started = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(options.clients));
  for (int t = 0; t < options.clients; ++t) {
    threads.emplace_back([&, t] {
      ClientSamples& mine = samples[static_cast<std::size_t>(t)];
      try {
        serve::RankClient client(options.port);
        rnd::Xoshiro256 rng(options.seed +
                            static_cast<std::uint64_t>(t) * 0x9e3779b9ULL);
        while (remaining.fetch_sub(1, std::memory_order_relaxed) > 0) {
          // Pick the op by weight.
          double pick = static_cast<double>(rng.next() >> 11) *
                        (1.0 / 9007199254740992.0) * total_weight;
          serve::Opcode opcode = options.mix.back().opcode;
          for (const MixEntry& entry : options.mix) {
            if (pick < entry.weight) {
              opcode = entry.opcode;
              break;
            }
            pick -= entry.weight;
          }
          serve::Request request;
          request.opcode = opcode;
          switch (opcode) {
            case serve::Opcode::kTopk:
              request.topk_k = options.topk;
              break;
            case serve::Opcode::kRank:
            case serve::Opcode::kNeighbors:
              request.vertex = rng.next() % options.vertices;
              break;
            case serve::Opcode::kPpr:
              request.ppr.iterations = options.ppr_iters;
              request.ppr.topk = options.topk;
              request.ppr.restart.reserve(options.ppr_restart);
              for (std::uint32_t i = 0; i < options.ppr_restart; ++i) {
                request.ppr.restart.push_back(rng.next() %
                                              options.vertices);
              }
              break;
            default:
              break;
          }
          for (;;) {
            const auto before = std::chrono::steady_clock::now();
            const serve::Response response = client.request(request);
            const auto after = std::chrono::steady_clock::now();
            if (response.ok()) {
              mine.latency_ms[static_cast<int>(opcode)].push_back(
                  std::chrono::duration<double, std::milli>(after - before)
                      .count());
              ++mine.completed;
              break;
            }
            if (serve::status_retryable(response.status)) {
              ++mine.shed_retries;
              continue;  // overloaded: the realistic client retries
            }
            throw util::InvariantError(
                std::string("query failed: ") +
                serve::status_name(response.status) + ": " + response.error);
          }
        }
      } catch (const std::exception& e) {
        mine.error = e.what();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const auto finished = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(finished - started).count();
}

double percentile(std::vector<double>& sorted_values, double q) {
  if (sorted_values.empty()) return 0;
  const double rank =
      q * static_cast<double>(sorted_values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted_values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("bench_serving",
                       "load-generate against the rank server, reporting "
                       "QPS and latency percentiles per query mix");
  // Pipeline flags (in-process mode; --scale also labels --connect cells).
  args.add_option("scale", "graph scale S (N = 2^S)", "16");
  args.add_option("edge-factor", "edges per vertex k", "16");
  args.add_option("backend",
                  "native|parallel|graphblas|arraylang|dataframe", "native");
  args.add_option("iterations", "PageRank iterations", "20");
  args.add_option("damping", "PageRank damping factor c", "0.85");
  args.add_option("seed", "graph generator seed", "20160205");
  args.add_option("threads", "server worker threads", "4");
  args.add_option("queue-depth", "server request queue bound", "1024");
  // Load flags.
  args.add_option("connect",
                  "target an already-running prpb-serve on this loopback "
                  "port instead of serving in-process", "0");
  args.add_option("clients", "client threads", "8");
  args.add_option("requests", "requests per repeat (shared budget)",
                  "20000");
  args.add_option("warmup", "untimed warmup requests", "2000");
  args.add_option("repeats", "timed repeats (median + MAD)", "3");
  args.add_option("mix",
                  "weighted query mix, op:weight comma-separated "
                  "(ops: topk rank neighbors ppr ping)",
                  "topk:45,rank:30,neighbors:20,ppr:5");
  args.add_option("topk", "k for topk queries", "10");
  args.add_option("ppr-iters", "power iterations per ppr query", "3");
  args.add_option("ppr-restart", "restart-set size for ppr queries", "8");
  // Output / verification.
  args.add_option("json",
                  "write the prpb-serving cell document here", "");
  args.add_option("verify-golden",
                  "golden_checksums.json path: a full-restart ppr at the "
                  "configured iteration count must reproduce scale_<scale>'s "
                  "rank_digest through the wire", "");

  try {
    if (!args.parse(argc, argv)) return 0;

    const int scale = static_cast<int>(args.get_int("scale"));
    const std::string backend_name = args.get("backend");

    LoadOptions load;
    load.clients = static_cast<int>(args.get_int("clients"));
    load.requests = static_cast<std::uint64_t>(args.get_int("requests"));
    load.mix = parse_mix(args.get("mix"));
    load.topk = static_cast<std::uint32_t>(args.get_int("topk"));
    load.ppr_iters = static_cast<std::uint32_t>(args.get_int("ppr-iters"));
    load.ppr_restart =
        static_cast<std::uint32_t>(args.get_int("ppr-restart"));
    load.seed = static_cast<std::uint64_t>(args.get_int("seed")) + 1;
    util::require(load.clients >= 1, "--clients must be >= 1");
    util::require(load.requests >= 1, "--requests must be >= 1");
    const int repeats = static_cast<int>(args.get_int("repeats"));
    util::require(repeats >= 1, "--repeats must be >= 1");

    // Stand up (or connect to) the server.
    std::optional<serve::RankService> service;
    std::optional<serve::RankServer> server;
    const auto connect_port =
        static_cast<std::uint16_t>(args.get_int("connect"));
    std::uint64_t nnz = 0;
    if (connect_port != 0) {
      load.port = connect_port;
    } else {
      core::PipelineConfig config;
      config.scale = scale;
      config.edge_factor = static_cast<int>(args.get_int("edge-factor"));
      config.iterations = static_cast<int>(args.get_int("iterations"));
      config.damping = args.get_double("damping");
      config.seed = static_cast<std::uint64_t>(args.get_int("seed"));
      config.storage = "mem";
      const auto backend = core::make_backend(backend_name);
      std::fprintf(stderr,
                   "[bench_serving] pipeline: backend=%s scale=%d\n",
                   backend_name.c_str(), scale);
      core::PipelineResult result =
          core::run_pipeline(config, *backend, core::RunOptions{});
      util::require(!result.ranks.empty(),
                    "bench_serving needs the pagerank output");
      serve::ServiceOptions service_options;
      service_options.iterations = config.iterations;
      service_options.damping = config.damping;
      service_options.seed = config.seed;
      service.emplace(std::move(result.matrix), std::move(result.ranks),
                      service_options);
      serve::ServerOptions server_options;
      server_options.threads = static_cast<int>(args.get_int("threads"));
      server_options.queue_depth =
          static_cast<std::size_t>(args.get_int("queue-depth"));
      server.emplace(*service, server_options);
      server->start();
      load.port = server->port();
      nnz = service->nnz();
    }

    // The vertex universe (and nnz label) comes over the wire, so both
    // modes agree with what the server actually holds.
    std::uint32_t server_iterations;
    {
      serve::RankClient probe(load.port);
      const serve::Response info = probe.info();
      util::require(info.ok(), "info query failed");
      load.vertices = info.info.vertices;
      server_iterations = info.info.iterations;
      if (nnz == 0) nnz = info.info.nnz;
    }
    util::require(load.vertices > 0, "server holds an empty graph");

    // End-to-end golden verification through the wire.
    if (!args.get("verify-golden").empty()) {
      const auto golden =
          util::JsonValue::parse(io::read_file(args.get("verify-golden")));
      const util::JsonValue* entry =
          golden.find("scale_" + std::to_string(scale));
      util::require(entry != nullptr,
                    "verify-golden: no scale_" + std::to_string(scale) +
                        " entry");
      const util::JsonValue* expected = entry->find("rank_digest");
      util::require(expected != nullptr && expected->is_string(),
                    "verify-golden: entry has no rank_digest");
      serve::RankClient probe(load.port);
      serve::PprRequest full;
      full.iterations = server_iterations;
      full.topk = 1;
      const serve::Response response = probe.ppr(full);
      util::require(response.ok(), "verify-golden: ppr query failed");
      const std::string got = core::digest_hex(response.ppr.digest);
      if (got != expected->string()) {
        std::fprintf(stderr,
                     "bench_serving: GOLDEN MISMATCH: full-restart ppr "
                     "digest %s != golden rank_digest %s\n",
                     got.c_str(), expected->string().c_str());
        return 1;
      }
      std::printf("golden digest verified over the wire: %s\n", got.c_str());
    }

    // Warmup (untimed), then the timed repeats.
    const std::uint64_t warmup =
        static_cast<std::uint64_t>(args.get_int("warmup"));
    if (warmup > 0) {
      LoadOptions warm = load;
      warm.requests = warmup;
      std::vector<ClientSamples> scratch;
      run_load(warm, scratch);
      for (const ClientSamples& samples : scratch) {
        util::require(samples.error.empty(),
                      "warmup client failed: " + samples.error);
      }
    }

    std::vector<double> qps_per_repeat;
    std::vector<double> pooled[6];
    std::uint64_t total_shed = 0;
    for (int repeat = 0; repeat < repeats; ++repeat) {
      std::vector<ClientSamples> samples;
      load.seed += 0x1000;  // distinct request streams per repeat
      const double wall = run_load(load, samples);
      std::uint64_t completed = 0;
      for (ClientSamples& client : samples) {
        util::require(client.error.empty(),
                      "client failed: " + client.error);
        completed += client.completed;
        total_shed += client.shed_retries;
        for (int op = 0; op < 6; ++op) {
          pooled[op].insert(pooled[op].end(),
                            client.latency_ms[op].begin(),
                            client.latency_ms[op].end());
        }
      }
      const double qps = static_cast<double>(completed) / wall;
      qps_per_repeat.push_back(qps);
      std::fprintf(stderr,
                   "[bench_serving] repeat %d: %llu requests in %.3fs "
                   "(%.0f QPS)\n",
                   repeat + 1, (unsigned long long)completed, wall, qps);
    }

    const double qps_median = util::median(qps_per_repeat);
    const double qps_mad = util::median_abs_deviation(qps_per_repeat);

    // Cells: the mixed-load headline plus one per queried op, all sharing
    // the serving identity axes (metric=qps makes the key disjoint from
    // every kernel cell).
    const auto make_cell = [&](const std::string& name) {
      model::BenchCell cell;
      cell.kernel = -1;
      cell.backend = backend_name;
      cell.scale = scale;
      cell.edges = nnz;
      cell.storage = "mem";
      cell.stage_format = "tsv";
      cell.algorithm = name;
      cell.repeats = repeats;
      cell.metric = "qps";
      return cell;
    };
    std::vector<model::BenchCell> cells;
    std::vector<double> mixed;
    for (int op = 0; op < 6; ++op) {
      mixed.insert(mixed.end(), pooled[op].begin(), pooled[op].end());
    }
    std::sort(mixed.begin(), mixed.end());
    model::BenchCell headline = make_cell("serve:mixed");
    headline.qps = qps_median;
    headline.qps_mad = qps_mad;
    headline.p50_ms = percentile(mixed, 0.50);
    headline.p99_ms = percentile(mixed, 0.99);
    headline.p999_ms = percentile(mixed, 0.999);
    headline.seconds = headline.p50_ms / 1000.0;  // informational
    cells.push_back(headline);

    util::TextTable table(
        {"query", "count", "QPS share", "p50 ms", "p99 ms", "p999 ms"});
    const double total_wall =
        static_cast<double>(load.requests) * repeats / qps_median;
    for (int op = 0; op < 6; ++op) {
      if (pooled[op].empty()) continue;
      std::sort(pooled[op].begin(), pooled[op].end());
      const char* name =
          serve::opcode_name(static_cast<serve::Opcode>(op));
      model::BenchCell cell = make_cell(std::string("serve:") + name);
      cell.qps = static_cast<double>(pooled[op].size()) / total_wall;
      cell.qps_mad = 0;  // per-op split of a shared run: no own noise model
      cell.p50_ms = percentile(pooled[op], 0.50);
      cell.p99_ms = percentile(pooled[op], 0.99);
      cell.p999_ms = percentile(pooled[op], 0.999);
      cells.push_back(cell);
      table.add_row({name, std::to_string(pooled[op].size()),
                     util::fixed(cell.qps, 0),
                     util::fixed(cell.p50_ms, 3), util::fixed(cell.p99_ms, 3),
                     util::fixed(cell.p999_ms, 3)});
    }
    std::printf("%s\n", table.str().c_str());
    std::printf(
        "bench_serving: %s QPS (mixed, median of %d, MAD %s) | "
        "p50 %.3f ms, p99 %.3f ms, p999 %.3f ms | %llu shed retries\n",
        util::fixed(qps_median, 0).c_str(), repeats,
        util::fixed(qps_mad, 0).c_str(), headline.p50_ms, headline.p99_ms,
        headline.p999_ms, (unsigned long long)total_shed);

    if (!args.get("json").empty()) {
      io::write_file(args.get("json"),
                     model::cells_json(cells, "prpb-serving") + "\n");
      std::printf("wrote %zu cells to %s\n", cells.size(),
                  args.get("json").c_str());
    }

    if (server.has_value()) {
      server->shutdown();
      const serve::ServerStats stats = server->stats();
      std::fprintf(stderr,
                   "[bench_serving] server: %llu replies, %llu shed, "
                   "%llu malformed\n",
                   (unsigned long long)stats.replies_sent,
                   (unsigned long long)stats.requests_shed,
                   (unsigned long long)stats.malformed_frames);
    }
  } catch (const util::Error& e) {
    std::fprintf(stderr, "bench_serving: error: %s\n", e.what());
    return 1;
  }
  return 0;
}
