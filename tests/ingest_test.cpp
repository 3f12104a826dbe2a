// External edge-list ingestion tests (ctest label: ingest) — the
// auto-detector (delimiters, comments, headers, CRLF, extra columns),
// MatrixMarket routing, the vertex remap dictionary, the committed
// SNAP-style fixture, and seeded property tests that round-trip randomly
// formatted edge lists through parse + remap.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "gen/edge.hpp"
#include "io/edge_list.hpp"
#include "io/file_stream.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"

#ifndef PRPB_TEST_DATA_DIR
#error "PRPB_TEST_DATA_DIR must point at tests/data"
#endif

namespace prpb::io {
namespace {

constexpr const char* kFixturePath = PRPB_TEST_DATA_DIR "/snap_sample.txt";

gen::EdgeList edges_of(const ExternalEdgeList& parsed) { return parsed.edges; }

TEST(EdgeListParse, TabDelimited) {
  const auto parsed = parse_edge_list_text("0\t1\n1\t2\n2\t0\n", "test");
  EXPECT_EQ(edges_of(parsed),
            (gen::EdgeList{{0, 1}, {1, 2}, {2, 0}}));
  EXPECT_EQ(parsed.format.delimiter, '\t');
  EXPECT_EQ(parsed.format.delimiter_name(), "tab");
  EXPECT_EQ(parsed.format.data_lines, 3u);
  EXPECT_FALSE(parsed.format.has_header);
  EXPECT_FALSE(parsed.format.crlf);
}

TEST(EdgeListParse, CommaDelimited) {
  const auto parsed = parse_edge_list_text("5,7\n7,5\n", "test");
  EXPECT_EQ(edges_of(parsed), (gen::EdgeList{{5, 7}, {7, 5}}));
  EXPECT_EQ(parsed.format.delimiter, ',');
  EXPECT_EQ(parsed.format.delimiter_name(), "comma");
}

TEST(EdgeListParse, SemicolonReportsAsComma) {
  const auto parsed = parse_edge_list_text("1;2\n2;3\n", "test");
  EXPECT_EQ(edges_of(parsed), (gen::EdgeList{{1, 2}, {2, 3}}));
  EXPECT_EQ(parsed.format.delimiter, ',');
}

TEST(EdgeListParse, SpaceDelimitedWithRuns) {
  const auto parsed = parse_edge_list_text("3   4\n4 5\n", "test");
  EXPECT_EQ(edges_of(parsed), (gen::EdgeList{{3, 4}, {4, 5}}));
  EXPECT_EQ(parsed.format.delimiter, ' ');
  EXPECT_EQ(parsed.format.delimiter_name(), "space");
}

TEST(EdgeListParse, HashAndPercentCommentsSkipped) {
  const auto parsed = parse_edge_list_text(
      "# SNAP-style comment\n% KONECT-style comment\n  # indented\n"
      "0\t1\n\n1\t0\n",
      "test");
  EXPECT_EQ(edges_of(parsed), (gen::EdgeList{{0, 1}, {1, 0}}));
  EXPECT_EQ(parsed.format.comment_lines, 3u);
  EXPECT_EQ(parsed.format.data_lines, 2u);
}

TEST(EdgeListParse, HeaderLineDetectedInFirstDataPosition) {
  const auto parsed = parse_edge_list_text(
      "# graph\nFromNodeId\tToNodeId\n10\t20\n", "test");
  EXPECT_TRUE(parsed.format.has_header);
  EXPECT_EQ(edges_of(parsed), (gen::EdgeList{{10, 20}}));
}

TEST(EdgeListParse, NonNumericLineAfterDataThrows) {
  try {
    parse_edge_list_text("0\t1\nFromNodeId\tToNodeId\n", "'bad.txt'");
    FAIL() << "expected IoError";
  } catch (const util::IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("edge list 'bad.txt' line 2:"), std::string::npos)
        << what;
    EXPECT_NE(what.find("expected two unsigned integer vertex ids"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("'FromNodeId"), std::string::npos) << what;
  }
}

TEST(EdgeListParse, MissingSecondFieldThrows) {
  EXPECT_THROW(parse_edge_list_text("0\t1\n42\n", "test"), util::IoError);
}

TEST(EdgeListParse, CrlfLineEndingsDetectedAndStripped) {
  const auto parsed =
      parse_edge_list_text("# hdr\r\n0\t7\r\n7\t0\r\n", "test");
  EXPECT_TRUE(parsed.format.crlf);
  EXPECT_EQ(edges_of(parsed), (gen::EdgeList{{0, 7}, {7, 0}}));
}

TEST(EdgeListParse, ExtraColumnsIgnored) {
  const auto parsed = parse_edge_list_text(
      "0\t1\t0.5\t1456789\n1\t2\t0.25\textra\n", "test");
  EXPECT_EQ(edges_of(parsed), (gen::EdgeList{{0, 1}, {1, 2}}));
}

TEST(EdgeListParse, DuplicateEdgesPreserved) {
  const auto parsed = parse_edge_list_text("3\t4\n3\t4\n3\t4\n", "test");
  EXPECT_EQ(parsed.edges.size(), 3u);
}

TEST(EdgeListRead, MatrixMarketOneBasedConvertedToZeroBased) {
  util::TempDir dir("prpb-ingest");
  const auto path = dir.path() / "tiny.mtx";
  write_file(path,
             "%%MatrixMarket matrix coordinate pattern general\n"
             "4 4 3\n"
             "1 2\n"
             "2 3\n"
             "4 1\n");
  const auto parsed = read_edge_list(path);
  EXPECT_EQ(edges_of(parsed), (gen::EdgeList{{0, 1}, {1, 2}, {3, 0}}));
  EXPECT_EQ(parsed.format.data_lines, 3u);
}

TEST(EdgeListRead, MissingFileThrows) {
  EXPECT_THROW(read_edge_list("/nonexistent/graph.txt"), util::IoError);
}

TEST(EdgeListRead, FileWithoutEdgesThrows) {
  util::TempDir dir("prpb-ingest");
  const auto path = dir.path() / "empty.txt";
  write_file(path, "# only comments here\n% nothing else\n");
  try {
    read_edge_list(path);
    FAIL() << "expected IoError";
  } catch (const util::IoError& e) {
    EXPECT_NE(std::string(e.what()).find("holds no edges"),
              std::string::npos);
  }
}

TEST(EdgeListRead, SnapFixtureParsesWithExpectedShape) {
  const auto parsed = read_edge_list(kFixturePath);
  EXPECT_EQ(parsed.edges.size(), 405u);
  EXPECT_EQ(parsed.format.delimiter, '\t');
  EXPECT_GE(parsed.format.comment_lines, 5u);

  const VertexRemap remap = build_vertex_remap(parsed.edges);
  EXPECT_EQ(remap.vertices(), 240u);
  EXPECT_FALSE(remap.identity());

  gen::EdgeList remapped = parsed.edges;
  apply_vertex_remap(remap, remapped);
  for (const auto& edge : remapped) {
    EXPECT_LT(edge.u, remap.vertices());
    EXPECT_LT(edge.v, remap.vertices());
  }
}

TEST(VertexRemap, NonContiguousIdsRoundTrip) {
  gen::EdgeList edges{{13, 1000003}, {999999937, 13}, {20, 13}};
  const VertexRemap remap = build_vertex_remap(edges);
  EXPECT_EQ(remap.vertices(), 4u);
  EXPECT_FALSE(remap.identity());
  // dense_to_original is sorted, so dense ids preserve original-id order.
  EXPECT_EQ(remap.dense_to_original,
            (std::vector<std::uint64_t>{13, 20, 1000003, 999999937}));

  gen::EdgeList remapped = edges;
  apply_vertex_remap(remap, remapped);
  EXPECT_EQ(remapped, (gen::EdgeList{{0, 2}, {3, 0}, {1, 0}}));
  // Round trip: dense -> original recovers the input exactly.
  for (std::size_t i = 0; i < edges.size(); ++i) {
    EXPECT_EQ(remap.dense_to_original[remapped[i].u], edges[i].u);
    EXPECT_EQ(remap.dense_to_original[remapped[i].v], edges[i].v);
  }
}

TEST(VertexRemap, DenseZeroBasedIdsAreIdentity) {
  const gen::EdgeList edges{{0, 1}, {1, 2}, {2, 0}};
  const VertexRemap remap = build_vertex_remap(edges);
  EXPECT_TRUE(remap.identity());
  EXPECT_EQ(remap.vertices(), 3u);
  EXPECT_EQ(remap.to_dense(2), 2u);
}

TEST(VertexRemap, UnknownIdThrows) {
  const VertexRemap remap = build_vertex_remap({{5, 9}});
  EXPECT_THROW((void)remap.to_dense(6), util::Error);
}

// ---- seeded property tests -------------------------------------------------
//
// Render a known edge multiset under randomized file conventions, then
// check the parser recovers it exactly and the remap round-trips.

struct RenderStyle {
  char delimiter = '\t';
  bool crlf = false;
  bool header = false;
  bool extra_column = false;
};

std::string render(const gen::EdgeList& edges, const RenderStyle& style,
                   std::mt19937_64& rng) {
  const std::string eol = style.crlf ? "\r\n" : "\n";
  std::ostringstream text;
  text << "# generated property-test graph" << eol;
  if (style.header) {
    text << "FromNodeId" << style.delimiter << "ToNodeId" << eol;
  }
  std::uniform_int_distribution<int> comment_roll(0, 9);
  for (const auto& edge : edges) {
    if (comment_roll(rng) == 0) text << "% interleaved comment" << eol;
    text << edge.u << style.delimiter << edge.v;
    if (style.extra_column) text << style.delimiter << "0.5";
    text << eol;
  }
  return text.str();
}

TEST(EdgeListProperty, RandomizedFormatsRoundTrip) {
  std::mt19937_64 rng(20160205);
  const char delimiters[] = {'\t', ',', ' ', ';'};
  for (int round = 0; round < 40; ++round) {
    RenderStyle style;
    style.delimiter = delimiters[round % 4];
    style.crlf = (round / 4) % 2 == 1;
    style.header = (round / 8) % 2 == 1;
    style.extra_column = (round / 16) % 2 == 1;

    // Sparse, non-contiguous ids: stride + offset, plus duplicates.
    std::uniform_int_distribution<std::uint64_t> stride(1, 1000);
    std::uniform_int_distribution<std::uint64_t> offset(0, 1u << 20);
    std::uniform_int_distribution<std::uint64_t> vertex(0, 63);
    std::uniform_int_distribution<int> count(1, 120);
    const std::uint64_t a = stride(rng);
    const std::uint64_t b = offset(rng);
    gen::EdgeList edges;
    const int n = count(rng);
    for (int i = 0; i < n; ++i) {
      edges.push_back(gen::Edge{a * vertex(rng) + b, a * vertex(rng) + b});
    }
    edges.push_back(edges.front());  // guaranteed duplicate

    const std::string text = render(edges, style, rng);
    const auto parsed =
        parse_edge_list_text(text, "round " + std::to_string(round));
    ASSERT_EQ(parsed.edges, edges) << "round " << round;
    EXPECT_EQ(parsed.format.has_header, style.header) << "round " << round;
    EXPECT_EQ(parsed.format.crlf, style.crlf) << "round " << round;

    const VertexRemap remap = build_vertex_remap(parsed.edges);
    gen::EdgeList remapped = parsed.edges;
    apply_vertex_remap(remap, remapped);
    ASSERT_EQ(remapped.size(), edges.size());
    for (std::size_t i = 0; i < remapped.size(); ++i) {
      ASSERT_LT(remapped[i].u, remap.vertices());
      ASSERT_LT(remapped[i].v, remap.vertices());
      ASSERT_EQ(remap.dense_to_original[remapped[i].u], edges[i].u)
          << "round " << round;
      ASSERT_EQ(remap.dense_to_original[remapped[i].v], edges[i].v)
          << "round " << round;
    }
  }
}

}  // namespace
}  // namespace prpb::io
