// Tests for the dataframe engine (src/df): typed columns, relational
// operations, and edge-stage I/O.
#include <gtest/gtest.h>

#include "df/column.hpp"
#include "df/csv.hpp"
#include "df/dataframe.hpp"
#include "io/stage_codec.hpp"
#include "io/stage_store.hpp"
#include "util/error.hpp"

namespace prpb::df {
namespace {

DataFrame sample_frame() {
  DataFrame frame;
  frame.add_column("u", Column(std::vector<std::int64_t>{3, 1, 3, 2, 1}));
  frame.add_column("v", Column(std::vector<std::int64_t>{9, 5, 2, 7, 5}));
  frame.add_column("w", Column(std::vector<double>{.1, .2, .3, .4, .5}));
  return frame;
}

// ---- columns ----------------------------------------------------------------

TEST(ColumnTest, DtypeAndSize) {
  EXPECT_EQ(Column(std::vector<std::int64_t>{1}).dtype(), DType::kInt64);
  EXPECT_EQ(Column(std::vector<double>{1.0}).dtype(), DType::kFloat64);
  EXPECT_EQ(Column(std::vector<std::string>{"a"}).dtype(), DType::kString);
  EXPECT_EQ(Column(std::vector<double>{1, 2, 3}).size(), 3u);
}

TEST(ColumnTest, TypedAccessorsThrowOnMismatch) {
  const Column c(std::vector<std::int64_t>{1});
  EXPECT_NO_THROW((void)c.i64());
  EXPECT_THROW((void)c.f64(), util::Error);
  EXPECT_THROW((void)c.str(), util::Error);
}

TEST(ColumnTest, TakeGathersRows) {
  const Column c(std::vector<std::int64_t>{10, 20, 30});
  const Column t = c.take({2, 0, 2});
  EXPECT_EQ(t.i64(), (std::vector<std::int64_t>{30, 10, 30}));
}

TEST(ColumnTest, CellStrRendersEveryType) {
  EXPECT_EQ(Column(std::vector<std::int64_t>{42}).cell_str(0), "42");
  EXPECT_EQ(Column(std::vector<std::string>{"hi"}).cell_str(0), "hi");
}

TEST(ColumnTest, CompareOrdersCells) {
  const Column c(std::vector<std::int64_t>{5, 3, 5});
  EXPECT_GT(c.compare(0, 1), 0);
  EXPECT_LT(c.compare(1, 0), 0);
  EXPECT_EQ(c.compare(0, 2), 0);
  const Column s(std::vector<std::string>{"a", "b"});
  EXPECT_LT(s.compare(0, 1), 0);
}

// ---- dataframe ----------------------------------------------------------------

TEST(DataFrameTest, AddColumnEnforcesLengthAndUniqueness) {
  DataFrame frame;
  frame.add_column("a", Column(std::vector<std::int64_t>{1, 2}));
  EXPECT_THROW(
      frame.add_column("b", Column(std::vector<std::int64_t>{1})),
      util::ConfigError);
  EXPECT_THROW(
      frame.add_column("a", Column(std::vector<std::int64_t>{3, 4})),
      util::ConfigError);
  EXPECT_EQ(frame.num_rows(), 2u);
  EXPECT_EQ(frame.num_columns(), 1u);
}

TEST(DataFrameTest, ColLookup) {
  const DataFrame frame = sample_frame();
  EXPECT_TRUE(frame.has_column("u"));
  EXPECT_FALSE(frame.has_column("x"));
  EXPECT_THROW((void)frame.col("x"), util::ConfigError);
  EXPECT_EQ(frame.col("v").i64()[0], 9);
}

TEST(DataFrameTest, SortValuesSingleKeyStable) {
  const DataFrame sorted = sample_frame().sort_values({"u"});
  EXPECT_EQ(sorted.col("u").i64(),
            (std::vector<std::int64_t>{1, 1, 2, 3, 3}));
  // stability: the two u==1 rows keep input order (v 5 then 5; w .2 then .5)
  EXPECT_DOUBLE_EQ(sorted.col("w").f64()[0], 0.2);
  EXPECT_DOUBLE_EQ(sorted.col("w").f64()[1], 0.5);
  // the two u==3 rows keep input order (v 9 then 2)
  EXPECT_EQ(sorted.col("v").i64()[3], 9);
  EXPECT_EQ(sorted.col("v").i64()[4], 2);
}

TEST(DataFrameTest, SortValuesMultiKey) {
  const DataFrame sorted = sample_frame().sort_values({"u", "v"});
  EXPECT_EQ(sorted.col("v").i64(),
            (std::vector<std::int64_t>{5, 5, 7, 2, 9}));
}

TEST(DataFrameTest, SortValuesNeedsKey) {
  EXPECT_THROW(sample_frame().sort_values({}), util::ConfigError);
}

TEST(DataFrameTest, GroupbyCountSingleKey) {
  const DataFrame counts = sample_frame().groupby_count({"u"}, "n");
  EXPECT_EQ(counts.num_rows(), 3u);
  EXPECT_EQ(counts.col("u").i64(), (std::vector<std::int64_t>{1, 2, 3}));
  EXPECT_EQ(counts.col("n").i64(), (std::vector<std::int64_t>{2, 1, 2}));
}

TEST(DataFrameTest, GroupbyCountCompositeKey) {
  DataFrame frame;
  frame.add_column("u", Column(std::vector<std::int64_t>{1, 1, 1, 2}));
  frame.add_column("v", Column(std::vector<std::int64_t>{5, 5, 6, 5}));
  const DataFrame counts = frame.groupby_count({"u", "v"}, "n");
  EXPECT_EQ(counts.num_rows(), 3u);
  EXPECT_EQ(counts.col("n").i64(), (std::vector<std::int64_t>{2, 1, 1}));
}

TEST(DataFrameTest, GroupbyOnEmptyFrame) {
  DataFrame frame;
  frame.add_column("u", Column(std::vector<std::int64_t>{}));
  const DataFrame counts = frame.groupby_count({"u"}, "n");
  EXPECT_EQ(counts.num_rows(), 0u);
}

// ---- edge-stage csv ---------------------------------------------------------

// The dataframe backend's TSV stages, read and written cell by cell.
const io::StageCodec& tsv() { return io::tsv_codec(io::Codec::kGeneric); }

DataFrame edge_frame(std::vector<std::int64_t> u, std::vector<std::int64_t> v) {
  DataFrame frame;
  frame.add_column("u", Column(std::move(u)));
  frame.add_column("v", Column(std::move(v)));
  return frame;
}

/// One-shard TSV stage "s" holding `text`.
void write_stage(io::MemStageStore& store, const std::string& text) {
  const auto writer = store.open_write("s", io::shard_name(0));
  writer->write(text);
  writer->close();
}

TEST(CsvTest, WriteReadRoundTrip) {
  io::MemStageStore store;
  const DataFrame frame = edge_frame({1, 2, 3}, {4, 5, 6});
  write_edge_stage(frame, store, "s", 1, tsv());
  const DataFrame back = read_edge_stage(store, "s", tsv());
  EXPECT_EQ(back.names(), (std::vector<std::string>{"u", "v"}));
  EXPECT_EQ(back.col("u").i64(), frame.col("u").i64());
  EXPECT_EQ(back.col("v").i64(), frame.col("v").i64());
}

TEST(CsvTest, DirShardingRoundTrip) {
  io::MemStageStore store;
  std::vector<std::int64_t> u(100), v(100);
  for (int i = 0; i < 100; ++i) {
    u[i] = i;
    v[i] = 2 * i;
  }
  const auto bytes =
      write_edge_stage(edge_frame(std::move(u), std::move(v)), store, "s", 7,
                       tsv());
  EXPECT_EQ(bytes, store.stage_bytes("s"));
  EXPECT_EQ(store.list("s").size(), 7u);
  const DataFrame back = read_edge_stage(store, "s", tsv());
  ASSERT_EQ(back.num_rows(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(back.col("u").i64()[i], i);
    EXPECT_EQ(back.col("v").i64()[i], 2 * i);
  }
}

TEST(CsvTest, MalformedFieldThrows) {
  io::MemStageStore store;
  write_stage(store, "1\tnotanumber\n");
  EXPECT_THROW(read_edge_stage(store, "s", tsv()), util::IoError);
}

TEST(CsvTest, FieldCountMismatchThrows) {
  io::MemStageStore store;
  write_stage(store, "1\n");
  EXPECT_THROW(read_edge_stage(store, "s", tsv()), util::IoError);
  write_stage(store, "1\t2\t3\n");
  EXPECT_THROW(read_edge_stage(store, "s", tsv()), util::IoError);
}

TEST(CsvTest, BadSchemaThrows) {
  // Edge stages hold exactly two int64 columns, whatever the codec.
  io::MemStageStore store;
  for (const io::StageCodec* codec : {&tsv(), &io::binary_codec()}) {
    EXPECT_THROW(write_edge_stage(sample_frame(), store, "s", 1, *codec),
                 util::ConfigError);
    DataFrame floats;
    floats.add_column("u", Column(std::vector<std::int64_t>{1}));
    floats.add_column("v", Column(std::vector<double>{2.0}));
    EXPECT_THROW(write_edge_stage(floats, store, "s", 1, *codec),
                 util::ConfigError);
  }
}

}  // namespace
}  // namespace prpb::df
