// Tests for src/io: TSV codecs, buffered streams, sharded edge stages,
// spill runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <utility>
#include <vector>

#include "fault/checkpoint.hpp"
#include "gen/kronecker.hpp"
#include "io/edge_batch.hpp"
#include "io/edge_files.hpp"
#include "io/file_stream.hpp"
#include "io/stage_codec.hpp"
#include "io/stage_store.hpp"
#include "io/tsv.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"

namespace prpb::io {
namespace {

namespace fs = std::filesystem;
using gen::Edge;
using gen::EdgeList;

// ---- tsv codecs -------------------------------------------------------------

class CodecTest : public ::testing::TestWithParam<Codec> {};

TEST_P(CodecTest, RoundTripsEdges) {
  const EdgeList edges = {{0, 0}, {1, 2}, {12345, 67890},
                          {~0ULL >> 1, 42}};
  std::string text;
  for (const auto& edge : edges) append_edges(text, &edge, 1, GetParam());
  EdgeList parsed;
  const std::size_t consumed = parse_edges(text, parsed, GetParam());
  EXPECT_EQ(consumed, text.size());
  EXPECT_EQ(parsed, edges);
}

TEST_P(CodecTest, LeavesPartialLineUnconsumed) {
  std::string text = "1\t2\n34\t5";  // second record unterminated
  EdgeList parsed;
  const std::size_t consumed = parse_edges(text, parsed, GetParam());
  EXPECT_EQ(consumed, 4u);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0], (Edge{1, 2}));
}

TEST_P(CodecTest, SkipsEmptyLines) {
  EdgeList parsed;
  parse_edges("1\t2\n\n3\t4\n", parsed, GetParam());
  EXPECT_EQ(parsed.size(), 2u);
}

TEST_P(CodecTest, HandlesCrLf) {
  EdgeList parsed;
  parse_edges("1\t2\r\n3\t4\r\n", parsed, GetParam());
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[1], (Edge{3, 4}));
}

TEST_P(CodecTest, MalformedLineThrows) {
  EdgeList parsed;
  EXPECT_THROW(parse_edges("1 2\n", parsed, GetParam()), util::IoError);
  EXPECT_THROW(parse_edges("a\tb\n", parsed, GetParam()), util::IoError);
}

TEST_P(CodecTest, ParseEdgeLineSingle) {
  EXPECT_EQ(parse_edge_line("7\t9", GetParam()), (Edge{7, 9}));
  EXPECT_THROW(parse_edge_line("7", GetParam()), util::IoError);
}

INSTANTIATE_TEST_SUITE_P(BothCodecs, CodecTest,
                         ::testing::Values(Codec::kFast, Codec::kGeneric),
                         [](const auto& param_info) {
                           return param_info.param == Codec::kFast
                                      ? "Fast"
                                      : "Generic";
                         });

TEST(CodecTest, FastRejectsTrailingGarbage) {
  EdgeList parsed;
  EXPECT_THROW(parse_edges_scalar("1\t2x\n", parsed), util::IoError);
  EXPECT_THROW(parse_edges_scalar("1\t2\t3\n", parsed), util::IoError);
}

TEST(CodecTest, CodecsProduceIdenticalText) {
  const EdgeList edges = {{3, 14}, {159, 2653}};
  std::string fast;
  std::string generic;
  for (const auto& edge : edges) {
    append_edges(fast, &edge, 1, Codec::kFast);
    append_edges(generic, &edge, 1, Codec::kGeneric);
  }
  EXPECT_EQ(fast, generic);
}

// ---- structural parser conformance ------------------------------------------
// parse_edges_structural must be byte-identical to the scalar reference
// (parse_edges_scalar): same edges, same consumed count, same error text.

struct ParseOutcome {
  EdgeList edges;
  std::size_t consumed = 0;
  std::string error;  // what() of the IoError, empty when none was thrown
};

template <typename Parser>
ParseOutcome run_parser(Parser parser, const std::string& text) {
  ParseOutcome outcome;
  try {
    outcome.consumed = parser(text, outcome.edges);
  } catch (const util::IoError& e) {
    outcome.error = e.what();
  }
  return outcome;
}

void expect_structural_matches_scalar(const std::string& text) {
  const ParseOutcome scalar = run_parser(parse_edges_scalar, text);
  const ParseOutcome structural = run_parser(parse_edges_structural, text);
  EXPECT_EQ(structural.error, scalar.error) << "input: '" << text << "'";
  EXPECT_EQ(structural.consumed, scalar.consumed) << "input: '" << text << "'";
  EXPECT_EQ(structural.edges, scalar.edges) << "input: '" << text << "'";
}

/// xorshift64: the fuzz tests' seeded, reproducible byte source.
struct XorShift64 {
  std::uint64_t state;
  std::uint64_t operator()() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
};

TEST(StructuralParserTest, DigitWidthSweep) {
  // Every (u digits, v digits) combination from 1..20 exercises the
  // 1..8-digit conversion, the 9..16 two-word conversion, the second
  // 16-byte classify, the >16 scalar lane and the 20-digit overflow
  // rejection.
  for (std::size_t du = 1; du <= 20; ++du) {
    for (std::size_t dv = 1; dv <= 20; ++dv) {
      std::string u(du, '7');
      std::string v(dv, '3');
      u.front() = '1';
      v.front() = '9';
      expect_structural_matches_scalar(u + "\t" + v + "\n");
      // Padded with 42 bytes of lines so the first line is in reach of
      // the structural lane and the scalar lane covers the last.
      expect_structural_matches_scalar(u + "\t" + v +
                                       "\n123456\t654321\n123456\t654321"
                                       "\n123456\t654321\n");
    }
  }
}

TEST(StructuralParserTest, EdgeCasesMatchScalar) {
  const char* cases[] = {
      "",                        // empty input
      "\n",                      // empty line
      "1\t2\n\n3\t4\n",          // interior empty line
      "1\t2\r\n3\t4\r\n",        // CRLF
      "\r\n",                    // CR-only line
      "1\t2\n34\t5",             // trailing partial line
      "0\t0\n",                  // zeros
      "01\t002\n",               // leading zeros
      "18446744073709551615\t1\n",    // u64 max
      "18446744073709551616\t1\n",    // overflow
      "99999999999999999999\t1\n",    // 20 digits, overflow
      "1 2\n",                   // wrong separator
      "a\tb\n",                  // non-numeric
      "1\t\n",                   // empty v field
      "\t2\n",                   // empty u field
      "1\t2\t3\n",               // extra field
      "1\t2x\n",                 // trailing garbage
      "-1\t2\n",                 // sign not accepted
      "1\t2",                    // unterminated single record
  };
  for (const char* text : cases) expect_structural_matches_scalar(text);
}

TEST(StructuralParserTest, FuzzAgainstScalar) {
  // Pseudo-random inputs mixing digits, separators and junk; both parsers
  // must agree on every one of them.
  XorShift64 next{0x243f6a8885a308d3ULL};
  const char alphabet[] = "0123456789\t\n\r x";
  for (int round = 0; round < 500; ++round) {
    std::string text;
    const std::size_t len = next() % 64;
    for (std::size_t i = 0; i < len; ++i) {
      text.push_back(alphabet[next() % (sizeof(alphabet) - 1)]);
    }
    expect_structural_matches_scalar(text);
  }
  // Well-formed fuzz: random ids at every width, all lines must parse.
  for (int round = 0; round < 200; ++round) {
    std::string text;
    EdgeList expected;
    const std::size_t lines = next() % 20;
    for (std::size_t i = 0; i < lines; ++i) {
      const std::uint64_t u = next() >> (next() % 64);
      const std::uint64_t v = next() >> (next() % 64);
      expected.push_back({u, v});
      append_edges(text, &expected.back(), 1, Codec::kFast);
    }
    EdgeList structural;
    EXPECT_EQ(parse_edges_structural(text, structural), text.size());
    EXPECT_EQ(structural, expected);
  }
}

TEST(StructuralParserTest, LongTextFuzzAgainstScalar) {
  // Multi-line well-formed texts with ids of 1..20 digits (some lines
  // CRLF), 0..2 bytes replaced by structural or junk bytes, then cut at a
  // random length: the structural lane takes the lines it can and hands
  // every other line (and the last 40 bytes) to the scalar lane mid-text.
  XorShift64 next{0x9e3779b97f4a7c15ULL};
  const auto random_id = [&next] {
    std::string id(1 + next() % 20, '0');
    for (char& c : id) c = static_cast<char>('0' + next() % 10);
    return id;
  };
  const char replacements[] = "0123456789\t\n\rx-";
  for (int round = 0; round < 100000; ++round) {
    std::string text;
    const std::size_t lines = 1 + next() % 8;
    for (std::size_t i = 0; i < lines; ++i) {
      text += random_id();
      text += '\t';
      text += random_id();
      text += next() % 8 == 0 ? "\r\n" : "\n";  // CRLF is well formed too
    }
    for (std::uint64_t edits = next() % 3; edits > 0; --edits) {
      text[next() % text.size()] =
          replacements[next() % (sizeof(replacements) - 1)];
    }
    text.resize(next() % (text.size() + 1));
    expect_structural_matches_scalar(text);
    if (::testing::Test::HasFailure()) break;  // one report, not thousands
  }
}

TEST(StructuralParserTest, ChunkBoundarySplits) {
  // Every split point of a multi-line text must decode identically when
  // fed as two chunks — the decoder's carry must never duplicate or drop
  // a record (regression for the no-copy carry rework).
  const std::string text = "1\t2\n345\t6789\n18446744073709551615\t0\n42\t7\n";
  EdgeList whole;
  parse_edges_scalar(text, whole);
  for (std::size_t split = 0; split <= text.size(); ++split) {
    const auto decoder = tsv_codec(Codec::kFast).make_decoder();
    EdgeList out;
    decoder->feed(text.substr(0, split), out);
    decoder->feed(text.substr(split), out);
    decoder->finish(out, "split");
    EXPECT_EQ(out, whole) << "split at " << split;
  }
  // Byte-at-a-time: the degenerate chunking.
  const auto decoder = tsv_codec(Codec::kFast).make_decoder();
  EdgeList out;
  for (const char c : text) decoder->feed(std::string_view(&c, 1), out);
  decoder->finish(out, "bytes");
  EXPECT_EQ(out, whole);
}

TEST(StructuralParserTest, DecodeOneShotMatchesStreaming) {
  const std::string body = "5\t6\n7\t8";  // missing final newline
  for (const auto* codec : {&tsv_codec(Codec::kFast),
                            &tsv_codec(Codec::kGeneric)}) {
    EdgeList streamed;
    {
      const auto decoder = codec->make_decoder();
      decoder->feed(body, streamed);
      decoder->finish(streamed, "s");
    }
    EdgeList oneshot;
    codec->make_decoder()->decode(body, oneshot, "s");
    EXPECT_EQ(oneshot, streamed);
  }
}

TEST(BinaryCodecTest, ChunkBoundarySplits) {
  // The binary decoder stashes only boundary-spanning records; every
  // split of a two-block shard must still decode exactly.
  MemStageStore store;
  EdgeList edges;
  for (std::uint64_t i = 0; i < 300; ++i) edges.push_back({i, i * 257});
  {
    ShardWriter writer(store, "s", "edges_00000.bin", binary_codec());
    writer.append(edges.data(), 128);                  // block 1
    writer.append(edges.data() + 128, edges.size() - 128);  // block 2
    writer.close();
  }
  std::string bytes;
  {
    const auto reader = store.open_read("s", "edges_00000.bin");
    bytes.assign(reader->view()->chars());
  }
  for (std::size_t split = 0; split <= bytes.size(); split += 7) {
    const auto decoder = binary_codec().make_decoder();
    EdgeList out;
    decoder->feed(std::string_view(bytes).substr(0, split), out);
    decoder->feed(std::string_view(bytes).substr(split), out);
    decoder->finish(out, "split");
    EXPECT_EQ(out, edges) << "split at " << split;
  }
  const auto decoder = binary_codec().make_decoder();
  EdgeList oneshot;
  decoder->decode(bytes, oneshot, "s");
  EXPECT_EQ(oneshot, edges);
}

// ---- file streams -----------------------------------------------------------

TEST(FileStreamTest, WriteThenReadBack) {
  util::TempDir dir("prpb-io");
  const auto path = dir.sub("f.txt");
  {
    FileWriter writer(path);
    writer.write("hello ");
    writer.write("world");
    writer.close();
    EXPECT_EQ(writer.bytes_written(), 11u);
  }
  EXPECT_EQ(read_file(path), "hello world");
}

TEST(FileStreamTest, ReadChunksCoverFile) {
  util::TempDir dir("prpb-io");
  const auto path = dir.sub("big.txt");
  std::string data(100000, 'a');
  write_file(path, data);
  FileReader reader(path, /*buffer_bytes=*/4096);
  std::string got;
  for (;;) {
    const auto chunk = reader.read_chunk();
    if (chunk.empty()) break;
    got.append(chunk);
  }
  EXPECT_EQ(got, data);
  EXPECT_EQ(reader.bytes_read(), data.size());
  EXPECT_TRUE(reader.eof());
}

TEST(FileStreamTest, MissingFileThrows) {
  EXPECT_THROW(FileReader("/nonexistent/prpb-file"), util::IoError);
  EXPECT_THROW(FileWriter("/nonexistent-dir/prpb-file"), util::IoError);
}

TEST(FileStreamTest, EmptyFile) {
  util::TempDir dir("prpb-io");
  const auto path = dir.sub("empty");
  write_file(path, "");
  FileReader reader(path);
  EXPECT_TRUE(reader.read_chunk().empty());
}

TEST(FileStreamTest, BufferedWritesFlushAtLimit) {
  util::TempDir dir("prpb-io");
  const auto path = dir.sub("buffered");
  FileWriter writer(path, /*buffer_bytes=*/64);
  for (int i = 0; i < 100; ++i) writer.write("0123456789");
  writer.close();
  EXPECT_EQ(fs::file_size(path), 1000u);
}

// ---- sharded edge stages ----------------------------------------------------

TEST(ShardTest, BoundariesPartitionExactly) {
  const auto bounds = shard_boundaries(100, 7);
  ASSERT_EQ(bounds.size(), 8u);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), 100u);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LE(bounds[i - 1], bounds[i]);
  }
}

TEST(ShardTest, MoreShardsThanItems) {
  const auto bounds = shard_boundaries(3, 8);
  EXPECT_EQ(bounds.back(), 3u);  // trailing shards are empty, never lost
}

TEST(ShardTest, ShardPathsAreSortedLexicographically) {
  EXPECT_LT(shard_name(2), shard_name(10));
}

/// Stage "s" of a DirStageStore rooted in a fresh temp directory: the
/// on-disk layout of the pipeline's dir storage.
struct DiskStage {
  util::TempDir dir{"prpb-io"};
  DirStageStore store{dir.path()};

  [[nodiscard]] fs::path path() const { return store.resolve("s"); }
  /// Path of raw shard `index`, with the stage directory created.
  [[nodiscard]] fs::path shard(std::size_t index) const {
    fs::create_directories(path());
    return path() / shard_name(index);
  }
  [[nodiscard]] EdgeList read(Codec flavor = Codec::kFast) {
    return read_all_edges(store, "s", tsv_codec(flavor));
  }
};

class StageTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StageTest, GeneratedStageRoundTrips) {
  const std::size_t shards = GetParam();
  gen::KroneckerParams params;
  params.scale = 8;
  const gen::KroneckerGenerator generator(params);
  DiskStage stage;
  const StageCodec& codec = tsv_codec(Codec::kFast);

  const std::uint64_t bytes =
      write_generated_edges(stage.store, "s", generator, shards, codec);
  EXPECT_GT(bytes, 0u);
  EXPECT_EQ(util::list_files_sorted(stage.path()).size(), shards);
  EXPECT_EQ(count_edges(stage.store, "s", codec), generator.num_edges());
  EXPECT_EQ(stage.read(), generator.generate_all());
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, StageTest,
                         ::testing::Values(1, 2, 7, 16));

TEST(StageTest, EdgeListRoundTrip) {
  const EdgeList edges = {{5, 6}, {1, 2}, {3, 3}};
  DiskStage stage;
  write_edge_list(stage.store, "s", edges, 2, tsv_codec(Codec::kFast));
  EXPECT_EQ(stage.read(), edges);
}

TEST(StageTest, RewriteClearsStaleShards) {
  const EdgeList many = {{1, 1}, {2, 2}, {3, 3}, {4, 4}};
  const EdgeList few = {{9, 9}};
  DiskStage stage;
  write_edge_list(stage.store, "s", many, 4, tsv_codec(Codec::kFast));
  write_edge_list(stage.store, "s", few, 1, tsv_codec(Codec::kFast));
  EXPECT_EQ(util::list_files_sorted(stage.path()).size(), 1u);
  EXPECT_EQ(stage.read(), few);
}

TEST(StageTest, BatchReaderSeesEverything) {
  gen::KroneckerParams params;
  params.scale = 8;
  const gen::KroneckerGenerator generator(params);
  DiskStage stage;
  const StageCodec& codec = tsv_codec(Codec::kFast);
  write_generated_edges(stage.store, "s", generator, 3, codec);

  EdgeBatchReader reader(stage.store, "s", codec);
  EdgeList batch;
  EdgeList streamed;
  while (reader.next(batch)) {
    streamed.insert(streamed.end(), batch.begin(), batch.end());
  }
  EXPECT_EQ(streamed, generator.generate_all());
}

TEST(StageTest, BatchReaderReadsNamedShardsInOrder) {
  MemStageStore store;
  EdgeList edges;
  for (std::uint64_t i = 0; i < 40; ++i) edges.push_back({i, i + 100});
  write_edge_list(store, "s", edges, 4, binary_codec());  // 10 per shard

  EdgeBatchReader reader(store, "s",
                         {shard_name(2, binary_codec()),
                          shard_name(0, binary_codec())},
                         binary_codec());
  EdgeList batch;
  EdgeList got;
  while (reader.next(batch)) got.insert(got.end(), batch.begin(), batch.end());
  EdgeList expected(edges.begin() + 20, edges.begin() + 30);
  expected.insert(expected.end(), edges.begin(), edges.begin() + 10);
  EXPECT_EQ(got, expected);
  EXPECT_EQ(reader.edges_read(), 20u);
}

TEST(StageTest, MissingFinalNewlineTolerated) {
  // A complete final record without its trailing newline decodes; cutting
  // the record itself still throws.
  DiskStage stage;
  write_file(stage.shard(0), "1\t2\n3\t4");  // no trailing \n
  EXPECT_EQ(stage.read(),
            (EdgeList{{1, 2}, {3, 4}}));
}

TEST(StageTest, MidRecordTruncationDetected) {
  DiskStage stage;
  write_file(stage.shard(0), "1\t2\n3\t");  // end field lost
  EXPECT_THROW(stage.read(), util::IoError);
}

TEST(StageTest, CrLfFinalRecordTolerated) {
  DiskStage stage;
  write_file(stage.shard(0), "1\t2\r\n3\t4\r");  // CRLF, no \n
  EXPECT_EQ(stage.read(),
            (EdgeList{{1, 2}, {3, 4}}));
}

TEST(StageTest, OverflowingVertexIdRejected) {
  DiskStage stage;
  // 2^64 overflows; 2^64 - 1 is the largest representable id.
  write_file(stage.shard(0), "18446744073709551616\t1\n");
  EXPECT_THROW(stage.read(), util::IoError);
  EXPECT_THROW(stage.read(Codec::kGeneric), util::IoError);
  write_file(stage.shard(0), "18446744073709551615\t1\n");
  EXPECT_EQ(stage.read(),
            (EdgeList{{~0ULL, 1}}));
}

TEST(StageTest, CrossCodecCompatibility) {
  // A stage written by the generic codec parses with the fast codec and
  // vice versa — the file format is codec-independent.
  const EdgeList edges = {{10, 20}, {30, 40}};
  DiskStage stage;
  write_edge_list(stage.store, "s", edges, 1, tsv_codec(Codec::kGeneric));
  EXPECT_EQ(stage.read(Codec::kFast), edges);
}

// ---- drained views ----------------------------------------------------------

TEST(ViewTest, ViewAfterPartialReadDrainsRemainder) {
  util::TempDir dir("prpb-io");
  const auto path = dir.sub("v.txt");
  write_file(path, "abcdefgh");
  FileReader reader(path, /*buffer_bytes=*/4);
  EXPECT_EQ(reader.read_chunk(), "abcd");
  // The drain serves exactly what is left, and exhausts the reader.
  const auto view = reader.view();
  EXPECT_EQ(view->chars(), "efgh");
  EXPECT_EQ(reader.bytes_read(), 8u);
  EXPECT_TRUE(reader.read_chunk().empty());
}

TEST(ViewTest, EmptyFileView) {
  util::TempDir dir("prpb-io");
  const auto path = dir.sub("empty");
  write_file(path, "");
  FileReader reader(path);
  const auto view = reader.view();
  EXPECT_EQ(view->size(), 0u);
  EXPECT_TRUE(view->bytes().empty());
}

TEST(ViewTest, MappedViewOutlivesReaderStoreAndFile) {
  util::TempDir dir("prpb-io");
  std::unique_ptr<ReadView> view;
  {
    DirStageStore store(dir.path());
    util::ensure_dir(dir.path() / "s");
    write_file(dir.path() / "s" / "shard", "outlives everything");
    auto reader = store.open_read("s", "shard");
    view = reader->view();
    // reader and store destroyed here; the file itself is unlinked next.
  }
  fs::remove(dir.path() / "s" / "shard");
  EXPECT_EQ(view->chars(), "outlives everything");
}

TEST(ViewTest, MemViewOutlivesShardRemoval) {
  MemStageStore store;
  {
    const auto writer = store.open_write("s", "shard");
    writer->write("kept alive by the view");
    writer->close();
  }
  auto view = store.open_read("s", "shard")->view();
  store.remove("s");  // the view owns its drained bytes
  EXPECT_EQ(view->chars(), "kept alive by the view");
}

TEST(ViewTest, MemViewServesRemainderAfterPartialRead) {
  MemStageStore store;
  std::string payload(kDefaultBufferBytes + 7, 'z');
  {
    const auto writer = store.open_write("s", "shard");
    writer->write(payload);
    writer->close();
  }
  const auto reader = store.open_read("s", "shard");
  EXPECT_EQ(reader->read_chunk().size(), kDefaultBufferBytes);
  const auto view = reader->view();
  EXPECT_EQ(view->chars(), std::string(7, 'z'));
}

TEST(ViewTest, CountingStoreCountsViewBytes) {
  MemStageStore inner;
  {
    const auto writer = inner.open_write("s", "shard");
    writer->write("12345");
    writer->close();
  }
  CountingStageStore store(inner);
  const auto view = store.open_read("s", "shard")->view();
  EXPECT_EQ(view->chars(), "12345");
  EXPECT_EQ(store.snapshot().bytes_read, 5u);
}

// The tests below pin behaviour the streamed dir read keeps from the
// memory-mapped lane it replaced; their names are historical.

TEST(MmapTest, EdgeStageMatchesBufferedReader) {
  // The streamed read equals decoding each shard's drained view in one
  // piece, so chunk boundaries never drop or duplicate a record. Each
  // shard spans more than one store chunk.
  gen::KroneckerParams params;
  params.scale = 15;
  const gen::KroneckerGenerator generator(params);
  DiskStage stage;
  const StageCodec& codec = tsv_codec(Codec::kFast);
  write_generated_edges(stage.store, "s", generator, 3, codec);
  ASSERT_GT(stage.store.stage_bytes("s"), 3 * kReadBufferBytes);
  EdgeList buffered;
  for (const auto& shard : stage.store.list("s")) {
    const auto view = stage.store.open_read("s", shard)->view();
    codec.make_decoder()->decode(view->chars(), buffered, shard);
  }
  EXPECT_EQ(buffered, generator.generate_all());
  EXPECT_EQ(stage.read(), buffered);
}

TEST(MmapTest, MissingFinalNewlineTolerated) {
  DiskStage stage;
  write_file(stage.shard(0), "1\t2\n3\t4");
  EXPECT_EQ(stage.read(),
            (EdgeList{{1, 2}, {3, 4}}));
}

TEST(MmapTest, MidRecordTruncationDetected) {
  DiskStage stage;
  write_file(stage.shard(0), "1\t2\n3\t");
  EXPECT_THROW(stage.read(), util::IoError);
}

TEST(MmapTest, UnalignedTailBlockDecodes) {
  // Shard sizes deliberately not multiples of the 8-byte SWAR word, so
  // the tail lines fall back to the scalar lane.
  DiskStage stage;
  const std::pair<const char*, EdgeList> cases[] = {
      {"7\t9\n", {{7, 9}}},
      {"1\t2\n34\t567\n", {{1, 2}, {34, 567}}},
      {"1\t2\n3\t4", {{1, 2}, {3, 4}}},
  };
  for (const auto& [text, expected] : cases) {
    write_file(stage.shard(0), text);
    EXPECT_EQ(stage.read(), expected) << text;
  }
}

TEST(MmapTest, BinaryShardDecodesOverMapping) {
  // Binary blocks with 1/2-byte widths make most column loads unaligned;
  // the pointer walk must stay within the chunk it is fed.
  util::TempDir dir("prpb-io");
  DirStageStore store(dir.path());
  EdgeList edges;
  for (std::uint64_t i = 0; i < 1001; ++i) {
    edges.push_back({i % 251, (i * 7) % 65521});
  }
  write_edge_shard(store, "s", "edges_00000.bin", edges, binary_codec());
  EXPECT_EQ(read_edge_shard(store, "s", "edges_00000.bin", binary_codec()),
            edges);
}

// ---- one read protocol ------------------------------------------------------

/// Test-only decorator: its readers count the bytes read_chunk() hands
/// out, and a view() call fails the test.
class ChunkOnlyStore final : public StageStore {
 public:
  explicit ChunkOnlyStore(StageStore& inner) : inner_(inner) {}

  /// Bytes handed out by read_chunk() since the last call.
  std::uint64_t take_chunk_bytes() { return std::exchange(chunk_bytes_, 0); }

  [[nodiscard]] std::string kind() const override { return inner_.kind(); }
  std::unique_ptr<StageReader> open_read(const std::string& stage,
                                         const std::string& shard) override {
    return std::make_unique<Reader>(inner_.open_read(stage, shard),
                                    chunk_bytes_);
  }
  std::unique_ptr<StageWriter> open_write(const std::string& stage,
                                          const std::string& shard) override {
    return inner_.open_write(stage, shard);
  }
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

 private:
  class Reader final : public StageReader {
   public:
    Reader(std::unique_ptr<StageReader> inner, std::uint64_t& chunk_bytes)
        : inner_(std::move(inner)), chunk_bytes_(chunk_bytes) {}
    std::string_view read_chunk() override {
      const std::string_view chunk = inner_->read_chunk();
      chunk_bytes_ += chunk.size();
      return chunk;
    }
    std::unique_ptr<ReadView> view() override {
      ADD_FAILURE() << "a stage read asked for a whole-shard view()";
      return StageReader::view();
    }
    [[nodiscard]] std::uint64_t bytes_read() const override {
      return inner_->bytes_read();
    }

   private:
    std::unique_ptr<StageReader> inner_;
    std::uint64_t& chunk_bytes_;
  };

  StageStore& inner_;
  std::uint64_t chunk_bytes_ = 0;
};

TEST(ReadProtocolTest, EveryStageReadStreamsThroughReadChunk) {
  // read_all_edges, read_edge_shard and the checkpoint read-back each
  // pass every shard byte through read_chunk() and never ask for view().
  gen::KroneckerParams params;
  params.scale = 9;
  const EdgeList edges = gen::KroneckerGenerator(params).generate_all();
  util::TempDir dir("prpb-io");
  DirStageStore disk(dir.path());
  MemStageStore mem;
  for (StageStore* base : {static_cast<StageStore*>(&disk),
                           static_cast<StageStore*>(&mem)}) {
    for (const StageCodec* codec :
         {&tsv_codec(Codec::kFast), &binary_codec()}) {
      SCOPED_TRACE(base->kind() + " " + codec->name());
      fault::ShardDigestStore digests(*base);
      write_edge_list(digests, "s", edges, 3, *codec);
      const std::uint64_t stage_bytes = base->stage_bytes("s");
      ChunkOnlyStore store(*base);

      EXPECT_EQ(read_all_edges(store, "s", *codec), edges);
      EXPECT_EQ(store.take_chunk_bytes(), stage_bytes);

      EdgeList by_shard;
      for (const auto& shard : store.list("s")) {
        const EdgeList part = read_edge_shard(store, "s", shard, *codec);
        by_shard.insert(by_shard.end(), part.begin(), part.end());
      }
      EXPECT_EQ(by_shard, edges);
      EXPECT_EQ(store.take_chunk_bytes(), stage_bytes);

      fault::CheckpointManager(store, digests, 0xabc, codec->name())
          .commit("s");
      EXPECT_EQ(store.take_chunk_bytes(), stage_bytes);
    }
  }
}

// ---- spill runs -------------------------------------------------------------

// The external sort spills each run as a binary-codec shard of a stage,
// written by a ShardWriter and read back by an EdgeBatchReader.
constexpr const char* kRunStage = "runs";

EdgeList read_run(StageStore& store, const std::string& name) {
  EdgeBatchReader reader(store, kRunStage, {name}, binary_codec());
  EdgeList batch;
  EdgeList got;
  while (reader.next(batch)) got.insert(got.end(), batch.begin(), batch.end());
  return got;
}

std::uint64_t write_run(StageStore& store, const std::string& name,
                        const EdgeList& edges) {
  ShardWriter writer(store, kRunStage, name, binary_codec());
  writer.append(edges);
  writer.close();
  EXPECT_EQ(writer.edges_written(), edges.size());
  return writer.bytes_written();
}

TEST(SpillRunTest, RoundTrip) {
  util::TempDir dir("prpb-io");
  DirStageStore store(dir.path());
  const EdgeList edges = {{1, 2}, {3, 4}, {~0ULL, 0}};
  write_run(store, "run.bin", edges);
  EXPECT_EQ(read_run(store, "run.bin"), edges);
}

TEST(BinaryRunTest, NextBatchLimitsCount) {
  // Per-edge appends are coalesced into blocks of binfmt::kMaxBlockEdges.
  // The reader hands over whole blocks only, and a batch holds at most the
  // one block a slice completes plus the blocks lying wholly inside it
  // (at least 2 bytes a record).
  util::TempDir dir("prpb-io");
  DirStageStore store(dir.path());
  const std::uint64_t count = 2 * binfmt::kMaxBlockEdges + 100;
  EdgeList edges;
  {
    ShardWriter writer(store, kRunStage, "run.bin", binary_codec());
    for (std::uint64_t i = 0; i < count; ++i) {
      edges.push_back({i, i + 1});
      writer.append(edges.back());
    }
    writer.close();
    EXPECT_EQ(writer.edges_written(), count);
  }
  EdgeBatchReader reader(store, kRunStage, {"run.bin"}, binary_codec());
  EdgeList batch;
  EdgeList got;
  std::vector<std::size_t> sizes;
  while (reader.next(batch)) {
    EXPECT_LE(batch.size(), binfmt::kMaxBlockEdges + kDecodeSliceBytes / 2);
    got.insert(got.end(), batch.begin(), batch.end());
    EXPECT_TRUE(got.size() % binfmt::kMaxBlockEdges == 0 ||
                got.size() == count);
    sizes.push_back(batch.size());
  }
  EXPECT_TRUE(batch.empty());
  ASSERT_GE(sizes.size(), 2u);
  EXPECT_EQ(sizes.front(), binfmt::kMaxBlockEdges);
  EXPECT_EQ(got, edges);
  EXPECT_EQ(reader.edges_read(), count);
}

TEST(SpillRunTest, EmptyRun) {
  util::TempDir dir("prpb-io");
  DirStageStore store(dir.path());
  write_run(store, "empty.bin", {});
  EdgeBatchReader reader(store, kRunStage, {"empty.bin"}, binary_codec());
  EdgeList batch;
  EXPECT_FALSE(reader.next(batch));
  EXPECT_TRUE(batch.empty());
}

TEST(SpillRunTest, TruncatedRunDetected) {
  util::TempDir dir("prpb-io");
  DirStageStore store(dir.path());
  EdgeList edges;
  for (std::uint64_t i = 0; i < 100; ++i) edges.push_back({i, i + 1});
  write_run(store, "run.bin", edges);
  std::string bytes;
  {
    const auto reader = store.open_read(kRunStage, "run.bin");
    bytes.assign(reader->view()->chars());
  }
  {
    const auto raw = store.open_write(kRunStage, "cut.bin");
    raw->write(std::string_view(bytes).substr(0, bytes.size() - 3));
    raw->close();
  }
  EXPECT_THROW(read_run(store, "cut.bin"), util::IoError);
}

TEST(SpillRunTest, LargeRunSurvivesChunkBoundaries) {
  util::TempDir dir("prpb-io");
  DirStageStore store(dir.path());
  EdgeList edges;
  for (std::uint64_t i = 0; i < 200000; ++i) edges.push_back({i, i * 2});
  // Over one store chunk, so blocks straddle read_chunk() boundaries.
  EXPECT_GT(write_run(store, "large.bin", edges), kDefaultBufferBytes);
  EXPECT_EQ(read_run(store, "large.bin"), edges);
}

// ---- stage codecs & edge batches --------------------------------------------

const StageCodec* codec_for(const std::string& name) {
  if (name == "TsvFast") return &tsv_codec(Codec::kFast);
  if (name == "TsvGeneric") return &tsv_codec(Codec::kGeneric);
  return &binary_codec();
}

class StageCodecTest : public ::testing::TestWithParam<std::string> {
 protected:
  const StageCodec& codec() { return *codec_for(GetParam()); }
};

TEST_P(StageCodecTest, ShardNameCarriesExtension) {
  const std::string name = shard_name(7, codec());
  EXPECT_EQ(name, "edges_00007" + codec().shard_extension());
}

TEST_P(StageCodecTest, RoundTripsThroughMemStore) {
  MemStageStore store;
  const EdgeList edges = {{0, 0}, {1, 2}, {65535, 65536}, {~0ULL, 3}};
  write_edge_shard(store, "s", shard_name(0, codec()), edges, codec());
  EXPECT_EQ(read_edge_shard(store, "s", shard_name(0, codec()), codec()),
            edges);
}

TEST_P(StageCodecTest, EmptyShardDecodesToNothing) {
  MemStageStore store;
  write_edge_shard(store, "s", shard_name(0, codec()), {}, codec());
  EXPECT_TRUE(read_edge_shard(store, "s", shard_name(0, codec()), codec())
                  .empty());
}

TEST_P(StageCodecTest, BatchWriterSplitsLikeShardBoundaries) {
  MemStageStore store;
  EdgeList edges;
  for (std::uint64_t i = 0; i < 1000; ++i) edges.push_back({i, i + 1});
  EdgeBatchWriter writer(store, "s", codec(), 7, edges.size());
  writer.append(edges);
  writer.close();
  EXPECT_EQ(store.list("s").size(), 7u);
  EXPECT_EQ(read_all_edges(store, "s", codec()), edges);
  EXPECT_EQ(count_edges(store, "s", codec()), edges.size());
}

TEST_P(StageCodecTest, BatchWriterPadsTrailingEmptyShards) {
  MemStageStore store;
  const EdgeList edges = {{1, 2}, {3, 4}};
  EdgeBatchWriter writer(store, "s", codec(), 5, edges.size());
  for (const auto& edge : edges) writer.append(edge);
  writer.close();
  EXPECT_EQ(store.list("s").size(), 5u);  // 3 of them empty
  EXPECT_EQ(read_all_edges(store, "s", codec()), edges);
}

TEST_P(StageCodecTest, BatchWriterPerEdgeMatchesBulk) {
  EdgeList edges;
  for (std::uint64_t i = 0; i < 200000; ++i) edges.push_back({i, i % 977});
  MemStageStore bulk_store;
  EdgeBatchWriter bulk(bulk_store, "s", codec(), 3, edges.size());
  bulk.append(edges);
  bulk.close();
  MemStageStore edge_store;
  EdgeBatchWriter per_edge(edge_store, "s", codec(), 3, edges.size());
  for (const auto& edge : edges) per_edge.append(edge);
  per_edge.close();

  EXPECT_EQ(edge_store.list("s"), bulk_store.list("s"));
  EXPECT_EQ(per_edge.bytes_written(), bulk.bytes_written());
  EXPECT_EQ(read_all_edges(edge_store, "s", codec()), edges);
  EXPECT_EQ(read_all_edges(bulk_store, "s", codec()), edges);
}

TEST_P(StageCodecTest, BatchReaderHonorsCapacity) {
  // A batch is bounded by one decode slice or binary block and never
  // spans a shard boundary.
  MemStageStore store;
  EdgeList edges;
  for (std::uint64_t i = 0; i < 257; ++i) edges.push_back({i, i});
  EdgeBatchWriter writer(store, "s", codec(), 3, edges.size());
  writer.append(edges);
  writer.close();
  const auto bounds = shard_boundaries(edges.size(), 3);
  const auto shard_of = [&bounds](std::uint64_t index) {
    return std::upper_bound(bounds.begin(), bounds.end(), index) -
           bounds.begin();
  };
  EdgeBatchReader reader(store, "s", codec());
  EdgeList batch;
  EdgeList got;
  while (reader.next(batch)) {
    EXPECT_LE(batch.size(), binfmt::kMaxBlockEdges);
    EXPECT_EQ(shard_of(got.size()), shard_of(got.size() + batch.size() - 1));
    got.insert(got.end(), batch.begin(), batch.end());
  }
  EXPECT_EQ(got, edges);
  EXPECT_EQ(reader.edges_read(), edges.size());
}

TEST_P(StageCodecTest, BatchReaderStreamsChunkByChunk) {
  // One shard of over 2 MiB: the reader hands it over in bounded batches
  // (one decode slice, or one binary block) and loses no edge.
  MemStageStore store;
  EdgeList edges;
  for (std::uint64_t i = 0; i < 150000; ++i) {
    edges.push_back({(std::uint64_t{1} << 40) + i,
                     (std::uint64_t{1} << 41) + 3 * i});
  }
  write_edge_list(store, "s", edges, 1, codec());
  EXPECT_GT(store.stage_bytes("s"), 2u << 20);

  EdgeBatchReader reader(store, "s", codec());
  EdgeList batch;
  EdgeList got;
  std::size_t batches = 0;
  while (reader.next(batch)) {
    EXPECT_LE(batch.size(), binfmt::kMaxBlockEdges);
    got.insert(got.end(), batch.begin(), batch.end());
    ++batches;
  }
  EXPECT_GT(batches, 2u);
  EXPECT_EQ(got, edges);
  EXPECT_EQ(reader.edges_read(), edges.size());
}

TEST_P(StageCodecTest, FuzzRoundTrip) {
  // Seeded pseudo-random edge lists with adversarial id distributions:
  // every codec must reproduce the exact sequence through any store.
  std::uint64_t state = 0x9e3779b97f4a7c15ULL + GetParam().size();
  const auto next_u64 = [&state] {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  MemStageStore store;
  for (int round = 0; round < 8; ++round) {
    const std::size_t count = next_u64() % 2000;
    EdgeList edges;
    edges.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      // Mix widths: shift by 0..63 to exercise every narrowing bucket.
      const std::uint64_t u = next_u64() >> (next_u64() % 64);
      const std::uint64_t v = next_u64() >> (next_u64() % 64);
      edges.push_back({u, v});
    }
    const std::size_t shards = 1 + next_u64() % 5;
    EdgeBatchWriter writer(store, "fuzz", codec(), shards, edges.size());
    writer.append(edges);
    writer.close();
    EXPECT_EQ(read_all_edges(store, "fuzz", codec()), edges)
        << "round " << round << " codec " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, StageCodecTest,
                         ::testing::Values("TsvFast", "TsvGeneric", "Binary"),
                         [](const auto& param_info) {
                           return param_info.param;
                         });

TEST(StageFormatTest, ParsesKnownNames) {
  EXPECT_EQ(parse_stage_format("tsv"), StageFormat::kTsv);
  EXPECT_EQ(parse_stage_format("binary"), StageFormat::kBinary);
  EXPECT_EQ(stage_format_name(StageFormat::kTsv), "tsv");
  EXPECT_EQ(stage_format_name(StageFormat::kBinary), "binary");
  EXPECT_EQ(&stage_codec(StageFormat::kTsv), &tsv_codec(Codec::kFast));
  EXPECT_EQ(&stage_codec(StageFormat::kBinary), &binary_codec());
}

TEST(StageFormatTest, UnknownNameListsValidValues) {
  try {
    parse_stage_format("parquet");
    FAIL() << "expected ConfigError";
  } catch (const util::ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("parquet"), std::string::npos);
    EXPECT_NE(what.find("tsv"), std::string::npos);
    EXPECT_NE(what.find("binary"), std::string::npos);
  }
}

TEST(BinaryCodecTest, WrittenShardStreamsInBoundedBlocks) {
  // A whole shard passed to one encode() call is split into bounded
  // blocks, so a streaming decoder emits records long before the shard
  // ends instead of stashing it whole.
  MemStageStore store;
  EdgeList edges;
  for (std::uint64_t i = 0; i < 200000; ++i) edges.push_back({i, i * 7});
  write_edge_list(store, "s", edges, 1, binary_codec());
  std::string bytes;
  {
    const auto reader = store.open_read("s", shard_name(0, binary_codec()));
    bytes.assign(reader->view()->chars());
  }
  ASSERT_GT(bytes.size(), 2 * kDecodeSliceBytes);

  const auto decoder = binary_codec().make_decoder();
  EdgeList out;
  std::size_t before_last_slice = 0;
  for (std::size_t pos = 0; pos < bytes.size(); pos += kDecodeSliceBytes) {
    if (pos + kDecodeSliceBytes >= bytes.size()) {
      before_last_slice = out.size();
    }
    decoder->feed(std::string_view(bytes).substr(pos, kDecodeSliceBytes),
                  out);
  }
  decoder->finish(out, "s");
  EXPECT_GT(before_last_slice, 0u);
  EXPECT_EQ(out, edges);
}

TEST(BinaryCodecTest, TsvWritesIdenticalBytesViaCodecSeam) {
  // The codec seam must not perturb the paper-faithful TSV layout: bytes
  // written through EdgeBatchWriter match a hand-formatted stream.
  MemStageStore store;
  const EdgeList edges = {{1, 2}, {30, 40}, {500, 600}};
  write_edge_shard(store, "s", "edges_00000.tsv", edges,
                   tsv_codec(Codec::kFast));
  std::string expected;
  for (const auto& edge : edges) append_edges(expected, &edge, 1, Codec::kFast);
  const auto reader = store.open_read("s", "edges_00000.tsv");
  std::string bytes;
  for (;;) {
    const auto chunk = reader->read_chunk();
    if (chunk.empty()) break;
    bytes.append(chunk);
  }
  EXPECT_EQ(bytes, expected);
}

// ---- TSV fast encoder -------------------------------------------------------
// The sliced SWAR encoder must write exactly the generic formatter's bytes.

std::string generic_text(const EdgeList& edges) {
  std::string text;
  for (const auto& edge : edges) append_edges(text, &edge, 1, Codec::kGeneric);
  return text;
}

std::string shard_bytes(StageStore& store, const std::string& stage,
                        const std::string& shard) {
  return std::string(store.open_read(stage, shard)->view()->chars());
}

std::string encoded_shard(const EdgeList& edges) {
  MemStageStore store;
  write_edge_shard(store, "s", "edges_00000.tsv", edges,
                   tsv_codec(Codec::kFast));
  return shard_bytes(store, "s", "edges_00000.tsv");
}

TEST(TsvEncoderTest, DigitBoundariesMatchGeneric) {
  std::vector<std::uint64_t> ids = {0, 1ULL << 32, ~0ULL};
  for (std::uint64_t p = 10; p != 0; p = p <= ~0ULL / 10 ? p * 10 : 0) {
    ids.push_back(p - 1);
    ids.push_back(p);
  }
  // Every (u, v) pair, u-major (runs of equal u) and v-major.
  EdgeList by_u;
  EdgeList by_v;
  for (const std::uint64_t a : ids) {
    for (const std::uint64_t b : ids) {
      by_u.push_back({a, b});
      by_v.push_back({b, a});
    }
  }
  EXPECT_EQ(encoded_shard(by_u), generic_text(by_u));
  EXPECT_EQ(encoded_shard(by_v), generic_text(by_v));
  for (const auto& edge : by_u) {
    std::string fast;
    append_edges(fast, &edge, 1, Codec::kFast);
    EXPECT_EQ(fast, generic_text({edge}));
  }
}

TEST(TsvEncoderTest, EqualStartRunsStraddleSlices) {
  // Runs of 1000 equal u (crossing the 10^5 digit boundary) never align
  // with the 2^16-record slices or the staging buffer's flushes.
  EdgeList edges;
  for (std::uint64_t i = 0; i < 3 * binfmt::kMaxBlockEdges + 17; ++i) {
    edges.push_back({99900 + i / 1000, (i * 7919) % 1000003});
  }
  const std::string expected = generic_text(edges);
  EXPECT_EQ(encoded_shard(edges), expected);

  // Per-edge appends, bulk appends and odd-sized appends give one text.
  MemStageStore store;
  ShardWriter per_edge(store, "s", "per_edge.tsv", tsv_codec(Codec::kFast));
  for (const auto& edge : edges) per_edge.append(edge);
  per_edge.close();
  ShardWriter pieces(store, "s", "pieces.tsv", tsv_codec(Codec::kFast));
  for (std::size_t lo = 0; lo < edges.size(); lo += 999) {
    pieces.append(edges.data() + lo,
                  std::min<std::size_t>(999, edges.size() - lo));
  }
  pieces.close();
  EXPECT_EQ(shard_bytes(store, "s", "per_edge.tsv"), expected);
  EXPECT_EQ(shard_bytes(store, "s", "pieces.tsv"), expected);
  EXPECT_EQ(read_edge_shard(store, "s", "pieces.tsv", tsv_codec()), edges);
}

TEST(TsvEncoderTest, FlushesAtLeastOncePerBlock) {
  // The encoder offers the writer a flush at least once per 2^16 records,
  // so a staging buffer never holds more than one block of text.
  class RecordingWriter final : public StageWriter {
   public:
    std::string& buffer() override { return buffer_; }
    void maybe_flush() override {
      max_held = std::max(max_held, buffer_.size());
      bytes_ += buffer_.size();
      buffer_.clear();
    }
    void close() override {}
    [[nodiscard]] std::uint64_t bytes_written() const override {
      return bytes_;
    }
    std::size_t max_held = 0;

   private:
    std::string buffer_;
    std::uint64_t bytes_ = 0;
  };
  EdgeList edges;
  for (std::uint64_t i = 0; i < 5 * binfmt::kMaxBlockEdges; ++i) {
    edges.push_back({i, i});
  }
  RecordingWriter writer;
  const auto encoder = tsv_codec(Codec::kFast).make_encoder();
  encoder->begin(writer);
  encoder->encode(writer, edges.data(), edges.size());
  encoder->finish(writer);
  // 2^16 records of at most "327679\t327679\n" (14 bytes).
  EXPECT_LE(writer.max_held, binfmt::kMaxBlockEdges * 14);
  EXPECT_EQ(writer.bytes_written(), generic_text(edges).size());
}

TEST(BinaryCodecTest, BadMagicMentionsTsv) {
  MemStageStore store;
  {
    const auto writer = store.open_write("s", "edges_00000.bin");
    writer->write("1\t2\n3\t4\n");  // TSV bytes under a binary codec
    writer->close();
  }
  try {
    read_edge_shard(store, "s", "edges_00000.bin", binary_codec());
    FAIL() << "expected IoError";
  } catch (const util::IoError& e) {
    EXPECT_NE(std::string(e.what()).find("TSV"), std::string::npos);
  }
}

TEST(BinaryCodecTest, TruncationsDetected) {
  MemStageStore store;
  const EdgeList edges = {{1, 2}, {3, 4}};
  write_edge_shard(store, "s", "edges_00000.bin", edges, binary_codec());
  std::string bytes;
  {
    const auto reader = store.open_read("s", "edges_00000.bin");
    for (;;) {
      const auto chunk = reader->read_chunk();
      if (chunk.empty()) break;
      bytes.append(chunk);
    }
  }
  // Partial header, partial block header, and mid-column cuts all throw;
  // a cut at the header boundary (valid empty shard) does not.
  for (const std::size_t cut : {std::size_t{3}, binfmt::kHeaderBytes + 4,
                                bytes.size() - 1}) {
    const auto writer = store.open_write("s", "edges_00000.bin");
    writer->write(std::string_view(bytes).substr(0, cut));
    writer->close();
    EXPECT_THROW(
        read_edge_shard(store, "s", "edges_00000.bin", binary_codec()),
        util::IoError)
        << "cut at " << cut;
  }
  {
    const auto writer = store.open_write("s", "edges_00000.bin");
    writer->write(std::string_view(bytes).substr(0, binfmt::kHeaderBytes));
    writer->close();
  }
  EXPECT_TRUE(
      read_edge_shard(store, "s", "edges_00000.bin", binary_codec()).empty());
}

TEST(BinaryCodecTest, NarrowsSmallIds) {
  // Scale-16-sized ids fit in two bytes per column: the shard must be far
  // smaller than the 16 bytes/edge a naive u64 dump would need.
  MemStageStore store;
  EdgeList edges;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    edges.push_back({i % 65536, (i * 7) % 65536});
  }
  const std::uint64_t bytes = write_edge_shard(
      store, "s", "edges_00000.bin", edges, binary_codec());
  EXPECT_LT(bytes, edges.size() * 6);
  EXPECT_EQ(read_edge_shard(store, "s", "edges_00000.bin", binary_codec()),
            edges);
}

}  // namespace
}  // namespace prpb::io
