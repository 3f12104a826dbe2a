// Concurrency stress for the rank server (runs under the TSan CI lane).
//
// Many client threads race mixed queries against one server: every
// request must get exactly one reply with its own id and a correct
// payload (no lost, duplicated, or cross-wired replies; every worker
// steps the service's one shared PageRank operator), a bounded queue
// must shed — not block, not drop — when the worker pool is saturated,
// and shutdown mid-load must drain every accepted request cleanly.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/backend.hpp"
#include "core/checksum.hpp"
#include "core/runner.hpp"
#include "io/file_stream.hpp"
#include "rand/rng.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

#ifndef PRPB_TEST_DATA_DIR
#error "PRPB_TEST_DATA_DIR must point at tests/data"
#endif

namespace prpb::serve {
namespace {

std::string golden_rank_digest(int scale) {
  const util::JsonValue doc = util::JsonValue::parse(
      io::read_file(PRPB_TEST_DATA_DIR "/golden_checksums.json"));
  return doc.at("scale_" + std::to_string(scale)).at("rank_digest").string();
}

std::unique_ptr<RankService> make_service(int scale) {
  core::PipelineConfig config;
  config.scale = scale;
  config.storage = "mem";
  const auto backend = core::make_backend("native");
  core::PipelineResult result =
      core::run_pipeline(config, *backend, core::RunOptions{});
  ServiceOptions options;
  options.iterations = config.iterations;
  options.damping = config.damping;
  options.seed = config.seed;
  return std::make_unique<RankService>(std::move(result.matrix),
                                       std::move(result.ranks), options);
}

TEST(ServingStressTest, MixedLoadEveryRequestGetsItsOwnReply) {
  const auto service = make_service(8);
  const std::string golden = golden_rank_digest(8);
  ServerOptions options;
  options.threads = 4;
  RankServer server(*service, options);
  server.start();

  constexpr int kClients = 8;
  constexpr std::uint32_t kPerClient = 300;
  const std::uint64_t n = service->vertices();
  std::atomic<std::uint64_t> completed{0};
  std::vector<std::string> failures(kClients);

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      try {
        RankClient client(server.port());
        rnd::Xoshiro256 rng(static_cast<std::uint64_t>(t) + 1);
        for (std::uint32_t i = 0; i < kPerClient; ++i) {
          Request request;
          // Globally unique id per request: the reply must echo it.
          request.id = static_cast<std::uint32_t>(t) * 1000000u + i + 1;
          switch (rng.next() % 5) {
            case 0:
              request.opcode = Opcode::kTopk;
              request.topk_k = 5;
              break;
            case 1:
              request.opcode = Opcode::kRank;
              request.vertex = rng.next() % n;
              break;
            case 2:
              request.opcode = Opcode::kNeighbors;
              request.vertex = rng.next() % n;
              break;
            case 3:
              request.opcode = Opcode::kPpr;
              request.ppr.iterations = 2;
              request.ppr.restart = {rng.next() % n};
              break;
            default:
              // Full restart at the configured count: kernel 3's ranks.
              request.opcode = Opcode::kPpr;
              request.ppr.iterations =
                  static_cast<std::uint32_t>(service->options().iterations);
              break;
          }
          const Response response = client.request(request);
          if (response.id != request.id) {
            throw util::InvariantError("reply id mismatch");
          }
          if (!response.ok()) {
            throw util::InvariantError(std::string("query failed: ") +
                                       status_name(response.status));
          }
          // Payload spot-check: a rank reply must carry the exact value.
          if (request.opcode == Opcode::kRank &&
              response.rank != service->rank(request.vertex)) {
            throw util::InvariantError("rank value mismatch");
          }
          if (request.opcode == Opcode::kPpr && request.ppr.restart.empty() &&
              core::digest_hex(response.ppr.digest) != golden) {
            throw util::InvariantError("full-restart ppr digest mismatch");
          }
          completed.fetch_add(1, std::memory_order_relaxed);
        }
      } catch (const std::exception& e) {
        failures[static_cast<std::size_t>(t)] = e.what();
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  for (int t = 0; t < kClients; ++t) {
    EXPECT_TRUE(failures[static_cast<std::size_t>(t)].empty())
        << "client " << t << ": " << failures[static_cast<std::size_t>(t)];
  }
  EXPECT_EQ(completed.load(), kClients * kPerClient);

  server.shutdown();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.connections_accepted,
            static_cast<std::uint64_t>(kClients));
  // Every completed request produced exactly one reply; nothing was shed
  // (queue depth far exceeds the in-flight count) and nothing malformed.
  EXPECT_EQ(stats.replies_sent, kClients * kPerClient);
  EXPECT_EQ(stats.requests_shed, 0u);
  EXPECT_EQ(stats.malformed_frames, 0u);
}

TEST(ServingStressTest, SaturatedQueueShedsWithRetryableStatusNoReplyLost) {
  const auto service = make_service(8);
  ServerOptions options;
  options.threads = 1;
  options.queue_depth = 1;
  RankServer server(*service, options);
  server.start();

  // Pipeline a burst on one connection without reading replies: the
  // single worker is busy with slow ppr queries, the one-slot queue fills,
  // and the reader must shed the overflow immediately with kOverloaded.
  constexpr std::uint32_t kBurst = 40;
  RankClient client(server.port());
  for (std::uint32_t i = 0; i < kBurst; ++i) {
    Request request;
    request.id = i + 1;
    request.opcode = Opcode::kPpr;
    request.ppr.iterations = 200;  // slow on purpose
    client.send_raw_frame(encode_request(request));
  }

  std::set<std::uint32_t> ids;
  std::uint32_t ok = 0;
  std::uint32_t shed = 0;
  for (std::uint32_t i = 0; i < kBurst; ++i) {
    const auto payload = client.read_raw_frame();
    ASSERT_TRUE(payload.has_value()) << "connection closed after " << i;
    const Response response = decode_response(*payload);
    EXPECT_TRUE(ids.insert(response.id).second)
        << "duplicate reply id " << response.id;
    if (response.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(response.status, Status::kOverloaded);
      EXPECT_TRUE(status_retryable(response.status));
      ++shed;
    }
  }
  EXPECT_EQ(ids.size(), kBurst);  // one reply per request, none lost
  EXPECT_EQ(ok + shed, kBurst);
  EXPECT_GE(ok, 1u);  // the in-flight and queued requests still complete
  EXPECT_GE(shed, 1u) << "burst never saturated the one-slot queue";

  server.shutdown();
  EXPECT_EQ(server.stats().requests_shed, shed);
}

TEST(ServingStressTest, ShutdownMidLoadDrainsAcceptedRequestsCleanly) {
  const auto service = make_service(8);
  ServerOptions options;
  options.threads = 2;
  RankServer server(*service, options);
  server.start();

  constexpr int kClients = 4;
  std::atomic<std::uint64_t> completed{0};
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      try {
        RankClient client(server.port());
        const std::uint64_t n = service->vertices();
        rnd::Xoshiro256 rng(static_cast<std::uint64_t>(t) + 99);
        for (;;) {
          const Response response = client.rank(rng.next() % n);
          // A reply that arrives must be correct even while shutting down.
          if (!response.ok()) {
            throw util::InvariantError(std::string("bad status: ") +
                                       status_name(response.status));
          }
          completed.fetch_add(1, std::memory_order_relaxed);
        }
      } catch (const util::IoError&) {
        // Expected: the connection ends when the server shuts down.
      } catch (const std::exception& e) {
        failures[static_cast<std::size_t>(t)] = e.what();
      }
    });
  }

  // Let the load ramp, then pull the plug mid-flight.
  while (completed.load(std::memory_order_relaxed) < 200) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.shutdown();
  for (std::thread& thread : clients) thread.join();

  for (int t = 0; t < kClients; ++t) {
    EXPECT_TRUE(failures[static_cast<std::size_t>(t)].empty())
        << "client " << t << ": " << failures[static_cast<std::size_t>(t)];
  }
  EXPECT_FALSE(server.running());
  // Shutdown is idempotent and the server can be replaced by a new one on
  // the freed state without issue.
  server.shutdown();
  const ServerStats stats = server.stats();
  // Clients may not have read every drained reply before EOF, but the
  // server must have sent at least as many replies as clients consumed.
  EXPECT_GE(stats.replies_sent, completed.load());
}

}  // namespace
}  // namespace prpb::serve
