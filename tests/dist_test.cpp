// Tests for the simulated distributed pipeline (src/dist): the collective
// layer, block ownership, and bit-for-bit equality of distributed vs
// serial results.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <numeric>

#include "core/backend_native.hpp"
#include "core/runner.hpp"
#include "dist/comm.hpp"
#include "dist/pipeline.hpp"
#include "fault/inject.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"

namespace prpb::dist {
namespace {

// Runs `body` under a watchdog. A cluster whose ranks deadlock can never
// be joined, so on timeout the test fails and the process exits instead
// of hanging the suite.
template <typename Body>
void within_deadline(Body body) {
  constexpr auto kDeadline = std::chrono::seconds(30);
  std::future<void> done = std::async(std::launch::async, std::move(body));
  if (done.wait_for(kDeadline) != std::future_status::ready) {
    ADD_FAILURE() << "cluster still running after 30 s: deadlock";
    std::fflush(stdout);
    std::_Exit(EXIT_FAILURE);
  }
  done.get();
}

// ---- collectives ---------------------------------------------------------------

TEST(CommTest, BarrierSynchronizesAllRanks) {
  Cluster cluster(4);
  std::atomic<int> phase_one{0};
  std::atomic<bool> violated{false};
  cluster.run([&](Communicator& comm) {
    ++phase_one;
    comm.barrier();
    if (phase_one.load() != 4) violated = true;
  });
  EXPECT_FALSE(violated.load());
}

TEST(CommTest, AllreduceSumsVectors) {
  Cluster cluster(3);
  std::atomic<bool> wrong{false};
  cluster.run([&wrong](Communicator& comm) {
    std::vector<double> data = {static_cast<double>(comm.rank()), 1.0};
    comm.allreduce_sum(data);
    if (data[0] != 3.0 || data[1] != 3.0) wrong = true;  // 0+1+2, 1+1+1
  });
  EXPECT_FALSE(wrong.load());
}

TEST(CommTest, RepeatedCollectivesStayConsistent) {
  Cluster cluster(2);
  std::atomic<bool> wrong{false};
  cluster.run([&wrong](Communicator& comm) {
    for (int round = 1; round <= 20; ++round) {
      std::vector<double> data = {static_cast<double>(round)};
      comm.allreduce_sum(data);
      if (data[0] != 2.0 * round) wrong = true;
    }
  });
  EXPECT_FALSE(wrong.load());
}

TEST(CommTest, AlltoallvRoutesByDestination) {
  Cluster cluster(3);
  std::atomic<bool> wrong{false};
  cluster.run([&wrong](Communicator& comm) {
    // rank r sends edge {r, dst} to every rank dst
    std::vector<gen::EdgeList> outboxes(comm.size());
    for (std::size_t dst = 0; dst < comm.size(); ++dst) {
      outboxes[dst].push_back({comm.rank(), dst});
    }
    const gen::EdgeList inbox = comm.alltoallv(std::move(outboxes));
    if (inbox.size() != 3) wrong = true;
    for (std::size_t src = 0; src < inbox.size(); ++src) {
      // inbox ordered by source rank; every edge addressed to me
      if (inbox[src].u != src || inbox[src].v != comm.rank()) wrong = true;
    }
  });
  EXPECT_FALSE(wrong.load());
}

TEST(CommTest, ByteAccountingCountsRemoteTrafficOnly) {
  Cluster cluster(2);
  cluster.run([](Communicator& comm) {
    std::vector<gen::EdgeList> outboxes(2);
    outboxes[comm.rank()].push_back({1, 1});      // local: free
    outboxes[1 - comm.rank()].push_back({2, 2});  // remote: 16 bytes
    (void)comm.alltoallv(std::move(outboxes));
  });
  for (const auto& stats : cluster.last_stats()) {
    EXPECT_EQ(stats.bytes_sent, sizeof(gen::Edge));
    EXPECT_GE(stats.collective_calls, 1u);
  }
  EXPECT_EQ(cluster.total_bytes(), 2 * sizeof(gen::Edge));
}

TEST(CommTest, SingleRankClusterWorks) {
  Cluster cluster(1);
  std::atomic<bool> wrong{false};
  cluster.run([&wrong](Communicator& comm) {
    std::vector<double> data = {5.0};
    comm.allreduce_sum(data);
    if (data[0] != 5.0) wrong = true;
    comm.barrier();
  });
  EXPECT_FALSE(wrong.load());
  EXPECT_EQ(cluster.total_bytes(), 8u);  // own contribution counted once
}

TEST(CommTest, ExceptionsPropagateFromRanks) {
  Cluster cluster(2);
  EXPECT_THROW(cluster.run([](Communicator& comm) {
                 (void)comm;
                 throw util::InvariantError("rank failure");
               }),
               util::InvariantError);
}

TEST(CommTest, OneRankThrowingBeforeACollectiveAbortsTheOthers) {
  within_deadline([] {
    Cluster cluster(4);
    // Rank 2 fails before the exchange the other ranks wait in; they must
    // be released, and run() must report rank 2's error, not the aborts.
    EXPECT_THROW(cluster.run([](Communicator& comm) {
                   if (comm.rank() == 2) {
                     throw util::TransientIoError("rank 2 failed");
                   }
                   (void)comm.alltoallv(
                       std::vector<gen::EdgeList>(comm.size()));
                   comm.barrier();
                 }),
                 util::TransientIoError);
    // The next run starts clean.
    std::atomic<int> finished{0};
    cluster.run([&finished](Communicator& comm) {
      comm.barrier();
      ++finished;
    });
    EXPECT_EQ(finished.load(), 4);
  });
}

TEST(CommTest, ZeroRanksRejected) {
  EXPECT_THROW(Cluster{0}, util::ConfigError);
}

// ---- block ownership --------------------------------------------------------------

TEST(OwnershipTest, BlocksPartitionVertexSpace) {
  const std::uint64_t n = 1000;
  for (const std::size_t p : {1u, 2u, 3u, 7u, 16u}) {
    std::uint64_t covered = 0;
    for (std::size_t r = 0; r < p; ++r) {
      const std::uint64_t lo = block_begin(r, n, p);
      const std::uint64_t hi = block_begin(r + 1, n, p);
      EXPECT_LE(lo, hi);
      covered += hi - lo;
      for (std::uint64_t v = lo; v < hi; ++v) {
        ASSERT_EQ(owner_of(v, n, p), r) << "v=" << v << " p=" << p;
      }
    }
    EXPECT_EQ(covered, n);
  }
}

TEST(OwnershipTest, OutOfRangeVertexThrows) {
  EXPECT_THROW(owner_of(8, 8, 2), util::ConfigError);
}

// ---- distributed pipeline ----------------------------------------------------------

DistConfig small_config(int scale = 8) {
  DistConfig config;
  config.scale = scale;
  return config;
}

std::vector<double> serial_reference(const DistConfig& config) {
  util::TempDir work("prpb-dist");
  core::PipelineConfig serial;
  serial.scale = config.scale;
  serial.edge_factor = config.edge_factor;
  serial.seed = config.seed;
  serial.generator = config.generator;
  serial.iterations = config.iterations;
  serial.damping = config.damping;
  serial.work_dir = work.path();
  core::NativeBackend backend;
  return core::run_pipeline(serial, backend).ranks;
}

class DistPipelineTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DistPipelineTest, MatchesSerialPipeline) {
  const DistConfig config = small_config();
  const DistResult dist = run_distributed(config, GetParam());
  const auto serial = serial_reference(config);
  EXPECT_EQ(dist.ranks, serial) << "P = " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(RankCounts, DistPipelineTest,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(DistPipelineTest, RejectsInvalidPageRankConfig) {
  // The serial path rejects these; the cluster must too, before any rank
  // runs, rather than returning negative ranks or running zero iterations.
  DistConfig bad_damping = small_config();
  bad_damping.damping = 1.5;
  EXPECT_THROW(run_distributed(bad_damping, 2), util::ConfigError);
  DistConfig bad_iterations = small_config();
  bad_iterations.iterations = -3;
  EXPECT_THROW(run_distributed(bad_iterations, 2), util::ConfigError);
}

TEST(DistPipelineTest, SingleRankSendsNoExchangeTraffic) {
  const DistResult result = run_distributed(small_config(), 1);
  EXPECT_EQ(result.k1_exchange_bytes, 0u);
}

TEST(DistPipelineTest, ExchangeTrafficGrowsWithRanks) {
  const DistResult p2 = run_distributed(small_config(), 2);
  const DistResult p8 = run_distributed(small_config(), 8);
  EXPECT_GT(p8.k1_exchange_bytes, p2.k1_exchange_bytes);
}

TEST(DistPipelineTest, Kernel3TrafficMatchesModel) {
  // allreduce ships one N-vector per rank per iteration (plus the scalar
  // reduce embedded in the update is local here): iterations * P * N * 8.
  const DistConfig config = small_config();
  const std::size_t p = 4;
  const DistResult result = run_distributed(config, p);
  const std::uint64_t expected = static_cast<std::uint64_t>(
      config.iterations) * p * config.num_vertices() * sizeof(double);
  EXPECT_EQ(result.k3_allreduce_bytes, expected);
}

TEST(DistPipelineTest, PerRankStatsReported) {
  const DistResult result = run_distributed(small_config(), 3);
  ASSERT_EQ(result.per_rank.size(), 3u);
  for (const auto& stats : result.per_rank) {
    EXPECT_GT(stats.collective_calls, 0u);
  }
  EXPECT_GT(result.total_bytes, 0u);
}

TEST(DistPipelineTest, MoreRanksThanVerticesStillCorrect) {
  DistConfig config = small_config(4);  // 16 vertices
  const DistResult dist = run_distributed(config, 8);
  const auto serial = serial_reference(config);
  EXPECT_EQ(dist.ranks, serial);
}

TEST(DistPipelineTest, StageBarrierDoesNotChangeResults) {
  // With a stage store, K0 materializes per-rank shards and K1 reads them
  // back; the ranks must be unchanged and the traffic fully accounted.
  const DistConfig plain = small_config();
  const DistResult in_memory = run_distributed(plain, 4);

  for (const char* kind : {"mem", "dir"}) {
    util::TempDir work("prpb-dist-stage");
    io::MemStageStore mem;
    io::DirStageStore dir(work.path());
    DistConfig staged = small_config();
    staged.stage_store =
        std::string(kind) == "mem" ? static_cast<io::StageStore*>(&mem)
                                   : static_cast<io::StageStore*>(&dir);
    const DistResult result = run_distributed(staged, 4);
    EXPECT_EQ(result.ranks, in_memory.ranks) << kind;
    EXPECT_GT(result.stage_bytes_written, 0u) << kind;
    EXPECT_EQ(result.stage_bytes_read, result.stage_bytes_written) << kind;
    EXPECT_EQ(staged.stage_store->list(staged.stage).size(), 4u) << kind;
  }
}

TEST(DistPipelineTest, StageReadFaultOnOneRankFailsTheRun) {
  within_deadline([] {
    io::MemStageStore mem;
    fault::FaultInjectingStageStore faulty(
        mem, fault::FaultPlan::parse("read_error@k0_edges#1", 1));
    DistConfig config = small_config();
    config.stage_store = &faulty;
    EXPECT_THROW(run_distributed(config, 4), util::TransientIoError);
  });
}

TEST(DistPipelineTest, NoStageStoreMeansNoStageTraffic) {
  const DistResult result = run_distributed(small_config(), 2);
  EXPECT_EQ(result.stage_bytes_written, 0u);
  EXPECT_EQ(result.stage_bytes_read, 0u);
}

TEST(DistPipelineTest, WorksForAllGenerators) {
  for (const char* name : {"kronecker", "bter", "ppl"}) {
    DistConfig config = small_config();
    config.generator = name;
    const DistResult dist = run_distributed(config, 4);
    const auto serial = serial_reference(config);
    EXPECT_EQ(dist.ranks, serial) << name;
  }
}

}  // namespace
}  // namespace prpb::dist
