// The serve layer of the traced run: a RankService and a RankServer over
// the traced pipeline's matrix and ranks. A fixed request list generated
// from the seed is timed in process and then over loopback in one
// closed-loop pass of two clients, which claim requests by index, so every
// run with the same seed issues the same requests. Before the pass, a
// full-restart ppr over the wire must reproduce the K3 rank digest; during
// it, every 97th reply is compared with the in-process answer.
#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <thread>

#include "core/checksum.hpp"
#include "pipeline.hpp"
#include "rand/rng.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace core = prpb::core;
namespace serve = prpb::serve;
using prpb::util::Stopwatch;

namespace {

// Two clients and two workers keep the busy threads (client, worker; the
// reader threads only frame) within the host's four cores.
constexpr int kClients = 2;
constexpr int kWorkers = 2;
constexpr std::uint32_t kTopk = 10;
constexpr std::uint32_t kPprIterations = 3;
constexpr std::uint32_t kPprRestart = 8;
constexpr std::size_t kLightRequests = 20000;
// Every k-th request's reply is compared with the in-process answer.
constexpr std::size_t kCheckStride = 97;
constexpr int kOpcodes = 6;

/// Requests of one mix, drawn from the seed: "light" is topk:45, rank:30,
/// neighbors:25; "ppr" is ppr only (8-vertex restart set, 3 iterations).
std::vector<serve::Request> make_requests(const std::string& mix,
                                          std::size_t count,
                                          std::uint64_t vertices,
                                          std::uint64_t seed) {
  prpb::rnd::Xoshiro256 rng(seed ^ (mix == "ppr" ? 0x9e3779b97f4a7c15ULL
                                                 : 0xc2b2ae3d27d4eb4fULL));
  std::vector<serve::Request> requests(count);
  for (serve::Request& request : requests) {
    if (mix == "ppr") {
      request.opcode = serve::Opcode::kPpr;
      request.ppr.iterations = kPprIterations;
      request.ppr.topk = kTopk;
      for (std::uint32_t i = 0; i < kPprRestart; ++i) {
        request.ppr.restart.push_back(rng.next_below(vertices));
      }
      continue;
    }
    const std::uint64_t pick = rng.next_below(100);
    if (pick < 45) {
      request.opcode = serve::Opcode::kTopk;
      request.topk_k = kTopk;
    } else {
      request.opcode =
          pick < 75 ? serve::Opcode::kRank : serve::Opcode::kNeighbors;
      request.vertex = rng.next_below(vertices);
    }
  }
  return requests;
}

bool same_entries(const std::vector<serve::RankEntry>& a,
                  const std::vector<serve::RankEntry>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const serve::RankEntry& x, const serve::RankEntry& y) {
                      return x.vertex == y.vertex && x.rank == y.rank;
                    });
}

/// Whether a wire reply carries the in-process answer (ids aside).
bool same_answer(const serve::Response& got, const serve::Response& want) {
  if (got.status != want.status || got.opcode != want.opcode) return false;
  switch (want.opcode) {
    case serve::Opcode::kTopk:
    case serve::Opcode::kNeighbors:
      return same_entries(got.entries, want.entries);
    case serve::Opcode::kRank:
      return got.rank == want.rank;
    case serve::Opcode::kPpr:
      return got.ppr.digest == want.ppr.digest &&
             same_entries(got.ppr.top, want.ppr.top);
    default:
      return true;
  }
}

/// In-process answers to every `stride`-th request, keyed by index.
std::vector<std::optional<serve::Response>> sample_answers(
    const serve::RankService& service,
    const std::vector<serve::Request>& requests, std::size_t stride) {
  std::vector<std::optional<serve::Response>> answers(requests.size());
  for (std::size_t i = 0; i < requests.size(); i += stride) {
    answers[i] = serve::decode_response(service.handle(requests[i]));
  }
  return answers;
}

/// Failures and per-opcode latencies of completed requests.
struct PassStats {
  std::uint64_t failed = 0;
  std::uint64_t mismatched = 0;
  std::vector<double> latency_ms[kOpcodes];

  void merge(PassStats&& other) {
    failed += other.failed;
    mismatched += other.mismatched;
    for (int op = 0; op < kOpcodes; ++op) {
      latency_ms[op].insert(latency_ms[op].end(), other.latency_ms[op].begin(),
                            other.latency_ms[op].end());
    }
  }
};

/// One closed-loop pass over `requests`: each client opens a connection
/// and claims the next request by index, re-connecting after a transport
/// failure. A non-OK reply (a kOverloaded shed included), a transport
/// failure or a reply that differs from its sampled in-process answer
/// counts as failed. With `drop` set, the server is shut down a quarter of
/// the way through, so the replies of the requests after that are lost.
PassStats wire_pass(std::uint16_t port,
                    const std::vector<serve::Request>& requests,
                    const std::vector<std::optional<serve::Response>>& answers,
                    serve::RankServer* drop) {
  std::atomic<std::size_t> next{0};
  std::vector<PassStats> per_client(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      PassStats& mine = per_client[static_cast<std::size_t>(c)];
      std::unique_ptr<serve::RankClient> client;
      for (std::size_t i = next.fetch_add(1); i < requests.size();
           i = next.fetch_add(1)) {
        if (drop != nullptr && i == requests.size() / 4) drop->shutdown();
        try {
          if (client == nullptr) {
            client = std::make_unique<serve::RankClient>(port);
          }
          const Stopwatch latency;
          const serve::Response reply = client->request(requests[i]);
          const double ms = latency.millis();
          if (!reply.ok() ||
              (answers[i].has_value() && !same_answer(reply, *answers[i]))) {
            ++mine.failed;
            if (reply.ok()) ++mine.mismatched;
            continue;
          }
          mine.latency_ms[static_cast<int>(requests[i].opcode)].push_back(ms);
        } catch (const std::exception&) {
          ++mine.failed;
          client.reset();
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  PassStats total;
  for (PassStats& stats : per_client) total.merge(std::move(stats));
  return total;
}

serve::ServiceOptions service_options(const core::PipelineConfig& config) {
  serve::ServiceOptions options;
  options.iterations = config.iterations;
  options.damping = config.damping;
  options.seed = config.seed;
  return options;
}

serve::ServerOptions server_options() {
  serve::ServerOptions options;
  options.threads = kWorkers;
  return options;
}

/// Starts a server and waits for its first info reply.
std::unique_ptr<serve::RankServer> start_server(
    const serve::RankService& service) {
  auto server = std::make_unique<serve::RankServer>(service, server_options());
  server->start();
  serve::RankClient probe(server->port());
  if (!probe.info().ok()) {
    throw prpb::util::IoError("rank server: info query failed");
  }
  return server;
}

/// Full-restart ppr over the wire must reproduce `digest`.
void check_wire_digest(std::uint16_t port, const core::PipelineConfig& config,
                       const std::string& digest, Result& result) {
  serve::RankClient client(port);
  serve::PprRequest full;
  full.iterations = static_cast<std::uint32_t>(config.iterations);
  full.topk = 1;
  const serve::Response reply = client.ppr(full);
  ++result.attempted;
  const std::string got =
      reply.ok() ? core::digest_hex(reply.ppr.digest) : "no reply";
  if (got != digest) {
    ++result.failed;
    result.wrong("full-restart ppr digest over the wire " + got +
                 " != K3 rank digest " + digest);
  } else {
    note("full-restart ppr over the wire reproduces K3 digest %s",
         got.c_str());
  }
}

double median_us(std::vector<double> values_ms) {
  return values_ms.empty() ? 0.0 : median(std::move(values_ms)) * 1e3;
}

}  // namespace

void trace_serve_layers(core::PipelineResult pipeline,
                        const Workload& workload, const Options& options,
                        Result& result) {
  const core::PipelineConfig config = pipeline_config(workload, options);
  const std::string digest = rank_digest_hex(pipeline);
  const Stopwatch build;
  const serve::RankService service(std::move(pipeline.matrix),
                                   std::move(pipeline.ranks),
                                   service_options(config));
  const double build_s = build.seconds();

  // The light list plus eight ppr requests, so every service operation is
  // timed; the same list runs in process and over the wire.
  std::vector<serve::Request> requests = make_requests(
      "light", kLightRequests, service.vertices(), options.seed);
  const std::vector<serve::Request> ppr =
      make_requests("ppr", 8, service.vertices(), options.seed);
  requests.insert(requests.end(), ppr.begin(), ppr.end());
  const auto answers = sample_answers(service, requests, kCheckStride);

  PassStats local;
  for (const serve::Request& request : requests) {
    const Stopwatch latency;
    const std::string reply = service.handle(request);
    local.latency_ms[static_cast<int>(request.opcode)].push_back(
        latency.millis());
  }

  const Stopwatch start;
  std::unique_ptr<serve::RankServer> server = start_server(service);
  const double start_s = start.seconds();
  check_wire_digest(server->port(), config, digest, result);

  const PassStats wire =
      wire_pass(server->port(), requests, answers,
                options.fault == "drop-reply" ? server.get() : nullptr);
  result.attempted += requests.size();
  result.failed += wire.failed;
  if (wire.mismatched > 0) {
    result.wrong(std::to_string(wire.mismatched) +
                 " replies differ from the in-process answers");
  }
  server->shutdown();
  const serve::ServerStats stats = server->stats();

  // Client p50 minus in-process p50, per operation the wire pass issued.
  std::vector<double> overhead_us;
  for (int op = 0; op < kOpcodes; ++op) {
    if (wire.latency_ms[op].empty()) continue;
    overhead_us.push_back(median_us(wire.latency_ms[op]) -
                          median_us(local.latency_ms[op]));
  }

  const auto op_us = [&](serve::Opcode op) {
    return median_us(local.latency_ms[static_cast<int>(op)]);
  };
  result.add("serve.service_build_s", build_s, "s");
  result.add("serve.service_topk_us", op_us(serve::Opcode::kTopk), "us");
  result.add("serve.service_rank_us", op_us(serve::Opcode::kRank), "us");
  result.add("serve.service_neighbors_us", op_us(serve::Opcode::kNeighbors),
             "us");
  result.add("serve.service_ppr_ms", op_us(serve::Opcode::kPpr) / 1e3, "ms");
  result.add("serve.server_start_s", start_s, "s");
  result.add("serve.wire_overhead_us",
             overhead_us.empty() ? 0.0 : median(overhead_us), "us");
  result.add("serve.replies", static_cast<double>(stats.replies_sent),
             "count");
  result.add("serve.shed", static_cast<double>(stats.requests_shed), "count");
  result.add("serve.malformed", static_cast<double>(stats.malformed_frames),
             "count");
}

}  // namespace perfbench
