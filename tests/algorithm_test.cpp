// Algorithm-stage tests (ctest label: algo) — exact BFS/CC outputs on
// hand-built graphs, algorithm-list parsing and config validation error
// shapes (fail-fast with valid values), and cross-backend identity of
// every algorithm over both a Kronecker graph and the real-graph fixture.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/algorithm.hpp"
#include "core/backend.hpp"
#include "core/checksum.hpp"
#include "core/runner.hpp"
#include "grb/algorithms.hpp"
#include "grb/matrix.hpp"
#include "io/stage_store.hpp"
#include "sparse/algorithms.hpp"
#include "sparse/csr.hpp"
#include "util/error.hpp"

#ifndef PRPB_TEST_DATA_DIR
#error "PRPB_TEST_DATA_DIR must point at tests/data"
#endif

namespace prpb::core {
namespace {

constexpr const char* kFixturePath = PRPB_TEST_DATA_DIR "/snap_sample.txt";

// 0 -> 1 -> 2 -> 3, 0 -> 2; vertex 4 isolated; 5 <-> 6 separate component.
sparse::CsrMatrix sample_graph() {
  const gen::EdgeList edges{{0, 1}, {1, 2}, {2, 3}, {0, 2}, {5, 6}, {6, 5}};
  return sparse::CsrMatrix::from_edges(edges, 7, 7);
}

TEST(SparseAlgorithms, BfsLevelsExact) {
  const auto a = sample_graph();
  EXPECT_EQ(sparse::bfs_default_source(a), 0u);
  const auto levels = sparse::bfs_levels(a, 0);
  EXPECT_EQ(levels,
            (std::vector<std::int64_t>{0, 1, 1, 2, -1, -1, -1}));
}

TEST(SparseAlgorithms, BfsFromSecondaryComponent) {
  const auto levels = sparse::bfs_levels(sample_graph(), 5);
  EXPECT_EQ(levels,
            (std::vector<std::int64_t>{-1, -1, -1, -1, -1, 0, 1}));
}

TEST(SparseAlgorithms, ConnectedComponentsMinIdLabels) {
  const auto labels = sparse::connected_components(sample_graph());
  EXPECT_EQ(labels, (std::vector<std::uint64_t>{0, 0, 0, 0, 4, 5, 5}));
}

TEST(SparseAlgorithms, GraphBlasBfsAndCcAgreeExactly) {
  const auto a = sample_graph();
  const grb::Matrix ga(a);
  EXPECT_EQ(grb::bfs_levels(ga, 0), sparse::bfs_levels(a, 0));
  EXPECT_EQ(grb::connected_components(ga),
            sparse::connected_components(a));
}

// ---- algorithm-list parsing and fail-fast validation -----------------------

TEST(AlgorithmList, NamesAndParsing) {
  EXPECT_EQ(algorithm_names(),
            (std::vector<std::string>{"pagerank", "bfs", "cc"}));
  EXPECT_EQ(parse_algorithm_list("pagerank,bfs,cc"),
            (std::vector<std::string>{"pagerank", "bfs", "cc"}));
  // Whitespace trimmed, duplicates dropped keeping first occurrence.
  EXPECT_EQ(parse_algorithm_list(" bfs , pagerank ,bfs"),
            (std::vector<std::string>{"bfs", "pagerank"}));
}

TEST(AlgorithmList, UnknownNameListsValidValues) {
  try {
    parse_algorithm_list("pagerank,sssp");
    FAIL() << "expected ConfigError";
  } catch (const util::ConfigError& e) {
    EXPECT_STREQ(e.what(),
                 "unknown algorithm 'sssp' (valid values: pagerank, bfs, "
                 "cc)");
  }
  EXPECT_THROW(parse_algorithm_list("bfs,,cc"), util::ConfigError);
  EXPECT_THROW(parse_algorithm_list(""), util::ConfigError);
}

TEST(AlgorithmConfig, ValidateFailsFastWithValidValues) {
  PipelineConfig config;
  config.source = "csv";
  try {
    config.validate();
    FAIL() << "expected ConfigError";
  } catch (const util::ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown source 'csv'"), std::string::npos) << what;
    EXPECT_NE(what.find("(valid values: generator, external)"),
              std::string::npos)
        << what;
  }

  config.source = "external";
  EXPECT_THROW(config.validate(), util::ConfigError);  // needs --input

  config = PipelineConfig{};
  config.input_path = "some.txt";  // generator + input is contradictory
  EXPECT_THROW(config.validate(), util::ConfigError);

  config = PipelineConfig{};
  config.algorithms = {"pagerank", "bogus"};
  try {
    config.validate();
    FAIL() << "expected ConfigError";
  } catch (const util::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown algorithm 'bogus'"),
              std::string::npos);
  }
}

TEST(AlgorithmStage, UnknownAlgorithmRejectedByBackend) {
  PipelineConfig config;
  io::MemStageStore store;
  const KernelContext ctx{config, store, "", "", ""};
  const auto backend = make_backend("native");
  const auto matrix = sample_graph();
  try {
    backend->run_algorithm(ctx, matrix, "sssp");
    FAIL() << "expected ConfigError";
  } catch (const util::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "(valid values: pagerank, bfs, cc)"),
              std::string::npos);
  }
}

TEST(AlgorithmStage, ResultShapesAndChecksums) {
  PipelineConfig config;
  io::MemStageStore store;
  const KernelContext ctx{config, store, "", "", ""};
  const auto backend = make_backend("native");
  const auto matrix = sample_graph();

  const auto bfs = backend->run_algorithm(ctx, matrix, "bfs");
  EXPECT_EQ(bfs.algorithm, "bfs");
  EXPECT_EQ(bfs.levels.size(), matrix.rows());
  EXPECT_EQ(bfs.bfs_source, 0u);
  EXPECT_EQ(bfs.iterations, 2);  // deepest reachable level
  EXPECT_EQ(bfs.work_edges, matrix.nnz());
  // The runner digests each output outside the timed K3 interval, so a
  // direct run_algorithm() result carries no checksum.
  EXPECT_TRUE(bfs.checksum.empty());
  EXPECT_FALSE(algorithm_checksum(bfs).empty());

  const auto cc = backend->run_algorithm(ctx, matrix, "cc");
  EXPECT_EQ(cc.labels.size(), matrix.rows());
  EXPECT_NE(algorithm_checksum(cc), algorithm_checksum(bfs));

  // pagerank routes through kernel3(), which wants N = 2^scale rows.
  PipelineConfig pr_config;
  pr_config.scale = 3;
  const KernelContext pr_ctx{pr_config, store, "", "", ""};
  const auto square = sparse::CsrMatrix::from_edges(
      {{0, 1}, {1, 2}, {2, 3}, {0, 2}, {5, 6}, {6, 5}}, 8, 8);
  const auto pagerank = backend->run_algorithm(pr_ctx, square, "pagerank");
  EXPECT_EQ(pagerank.implementation, "native-kernel3");
  EXPECT_EQ(pagerank.ranks.size(), square.rows());
  EXPECT_TRUE(pagerank.has_ranks());
  EXPECT_EQ(pagerank.iterations, pr_config.iterations);
  EXPECT_TRUE(pagerank.checksum.empty());
  EXPECT_FALSE(algorithm_checksum(pagerank).empty());
}

// ---- cross-backend identity ------------------------------------------------

const std::vector<std::string> kBackends{"native", "parallel", "graphblas",
                                         "arraylang", "dataframe"};

/// Runs the pipeline for one backend and returns algorithm -> checksum.
std::map<std::string, std::string> run_checksums(
    const PipelineConfig& config, const std::string& backend_name) {
  const auto backend = make_backend(backend_name);
  io::MemStageStore store;
  RunOptions options;
  options.store = &store;
  const PipelineResult result = run_pipeline(config, *backend, options);
  std::map<std::string, std::string> checksums;
  for (const AlgorithmRun& run : result.algorithms) {
    EXPECT_FALSE(run.output.checksum.empty());
    checksums[run.output.algorithm] = run.output.checksum;
  }
  return checksums;
}

TEST(CrossBackend, AllAlgorithmsIdenticalOnKroneckerGraph) {
  PipelineConfig config;
  config.scale = 7;
  config.num_files = 2;
  config.storage = "mem";
  config.algorithms = algorithm_names();
  const auto reference = run_checksums(config, kBackends.front());
  ASSERT_EQ(reference.size(), config.algorithms.size());
  for (std::size_t i = 1; i < kBackends.size(); ++i) {
    EXPECT_EQ(run_checksums(config, kBackends[i]), reference)
        << kBackends[i];
  }
}

TEST(CrossBackend, AllAlgorithmsIdenticalOnRealGraphFixture) {
  PipelineConfig config;
  config.source = "external";
  config.input_path = kFixturePath;
  config.num_files = 2;
  config.storage = "mem";
  config.algorithms = algorithm_names();
  const auto reference = run_checksums(config, kBackends.front());
  ASSERT_EQ(reference.size(), config.algorithms.size());
  for (std::size_t i = 1; i < kBackends.size(); ++i) {
    EXPECT_EQ(run_checksums(config, kBackends[i]), reference)
        << kBackends[i];
  }
}

TEST(CrossBackend, ExternalGraphSummaryExposesDegreeSkew) {
  PipelineConfig config;
  config.source = "external";
  config.input_path = kFixturePath;
  config.num_files = 2;
  config.storage = "mem";
  const auto backend = make_backend("native");
  io::MemStageStore store;
  RunOptions options;
  options.store = &store;
  const PipelineResult result = run_pipeline(config, *backend, options);
  EXPECT_EQ(result.graph.source, "external");
  EXPECT_EQ(result.graph.vertices, 240u);
  EXPECT_EQ(result.graph.edges, 405u);
  EXPECT_EQ(result.num_vertices, 240u);
  EXPECT_EQ(result.num_edges, 405u);
  EXPECT_FALSE(result.graph.identity_remap);
  ASSERT_TRUE(result.graph.has_degree_skew);
  EXPECT_GT(result.graph.out_degree_skew.max_degree, 0u);
  EXPECT_GT(result.graph.out_degree_skew.mean_degree, 0.0);
  EXPECT_GE(result.graph.out_degree_skew.gini, 0.0);
  EXPECT_LE(result.graph.out_degree_skew.gini, 1.0);
}

}  // namespace
}  // namespace prpb::core
