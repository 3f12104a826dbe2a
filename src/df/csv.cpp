#include "df/csv.hpp"

#include <array>

#include "io/edge_batch.hpp"
#include "io/edge_files.hpp"
#include "util/error.hpp"
#include "util/parse.hpp"

namespace prpb::df {

namespace {

using EdgeColumns = std::array<std::vector<std::int64_t>, 2>;  // u, v

DataFrame edge_frame(EdgeColumns columns) {
  DataFrame frame;
  frame.add_column("u", Column(std::move(columns[0])));
  frame.add_column("v", Column(std::move(columns[1])));
  return frame;
}

void parse_line(std::string_view line, EdgeColumns& columns) {
  std::size_t field = 0;
  std::size_t pos = 0;
  while (field < columns.size()) {
    const std::size_t next = line.find('\t', pos);
    std::string_view raw = next == std::string_view::npos
                               ? line.substr(pos)
                               : line.substr(pos, next - pos);
    // Materialize the field as a string first — the generic path.
    const std::string cell(raw);
    const auto v = util::parse_i64_full(cell);
    util::io_require(v.has_value(), "csv: bad int64 field '" + cell + "'");
    columns[field].push_back(*v);
    ++field;
    if (next == std::string_view::npos) {
      util::io_require(field == columns.size(),
                       "csv: too few fields in line");
      return;
    }
    pos = next + 1;
  }
  util::io_require(pos >= line.size(), "csv: too many fields in line");
}

/// Reads and concatenates every TSV shard of `stage` (sorted shard order).
DataFrame read_csv_stage(io::StageStore& store, const std::string& stage) {
  EdgeColumns columns;
  for (const auto& shard : store.list(stage)) {
    // Whole-shard view: lines are sliced in place, no chunk-boundary carry
    // buffer. A final record without a trailing newline is tolerated,
    // matching the edge decoders; malformed lines still throw.
    const auto reader = store.open_read(stage, shard);
    const auto view = reader->view();
    const std::string_view text = view->chars();
    std::size_t pos = 0;
    while (pos < text.size()) {
      std::size_t eol = text.find('\n', pos);
      if (eol == std::string_view::npos) eol = text.size();
      const std::string_view line =
          util::strip_cr(text.substr(pos, eol - pos));
      if (!line.empty()) parse_line(line, columns);
      pos = eol + 1;
    }
  }
  return edge_frame(std::move(columns));
}

void write_rows(const DataFrame& frame, io::StageWriter& writer,
                std::size_t row_begin, std::size_t row_end) {
  for (std::size_t r = row_begin; r < row_end; ++r) {
    std::string line;
    for (std::size_t c = 0; c < frame.num_columns(); ++c) {
      if (c != 0) line.push_back('\t');
      line += frame.col_at(c).cell_str(r);  // generic formatting
    }
    line.push_back('\n');
    writer.write(line);
  }
}

/// Writes the frame row-partitioned into `shards` TSV shards of `stage`
/// (cleared first). Returns total bytes written.
std::uint64_t write_csv_stage(const DataFrame& frame, io::StageStore& store,
                              const std::string& stage, std::size_t shards) {
  store.clear_stage(stage);
  const auto bounds = io::shard_boundaries(frame.num_rows(), shards);
  std::uint64_t bytes = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    const auto writer = store.open_write(stage, io::shard_name(s));
    write_rows(frame, *writer, bounds[s], bounds[s + 1]);
    writer->close();
    bytes += writer->bytes_written();
  }
  return bytes;
}

}  // namespace

DataFrame read_edge_stage(io::StageStore& store, const std::string& stage,
                          const io::StageCodec& codec) {
  if (codec.name() == "tsv") return read_csv_stage(store, stage);
  EdgeColumns columns;
  io::EdgeBatchReader reader(store, stage, codec);
  gen::EdgeList batch;
  while (reader.next(batch)) {
    for (const auto& edge : batch) {
      columns[0].push_back(static_cast<std::int64_t>(edge.u));
      columns[1].push_back(static_cast<std::int64_t>(edge.v));
    }
  }
  return edge_frame(std::move(columns));
}

std::uint64_t write_edge_stage(const DataFrame& frame, io::StageStore& store,
                               const std::string& stage, std::size_t shards,
                               const io::StageCodec& codec) {
  util::require(frame.num_columns() == 2 &&
                    frame.col_at(0).dtype() == DType::kInt64 &&
                    frame.col_at(1).dtype() == DType::kInt64,
                "edge stage: frame must be two int64 columns");
  if (codec.name() == "tsv") {
    return write_csv_stage(frame, store, stage, shards);
  }
  const auto& u = frame.col_at(0).i64();
  const auto& v = frame.col_at(1).i64();
  io::EdgeBatchWriter writer(store, stage, codec, shards, frame.num_rows());
  for (std::size_t r = 0; r < frame.num_rows(); ++r) {
    util::ensure(u[r] >= 0 && v[r] >= 0, "edge stage: negative vertex id");
    writer.append(gen::Edge{static_cast<std::uint64_t>(u[r]),
                            static_cast<std::uint64_t>(v[r])});
  }
  writer.close();
  return writer.bytes_written();
}

}  // namespace prpb::df
