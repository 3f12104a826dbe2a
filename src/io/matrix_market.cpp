#include "io/matrix_market.hpp"

#include <charconv>
#include <cstdio>
#include <string>
#include <vector>

#include "io/file_stream.hpp"
#include "util/error.hpp"
#include "util/parse.hpp"

namespace prpb::io {

namespace {

enum class MtxField { kReal, kInteger, kPattern };

struct MtxHeader {
  MtxField field = MtxField::kReal;
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  std::uint64_t entries = 0;
};

[[noreturn]] void bad(const std::string& what) {
  throw util::IoError("matrix market: " + what);
}

std::vector<std::string_view> split_ws(std::string_view line) {
  std::vector<std::string_view> fields;
  std::size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t'))
      ++pos;
    const std::size_t start = pos;
    while (pos < line.size() && line[pos] != ' ' && line[pos] != '\t') ++pos;
    if (pos > start) fields.push_back(line.substr(start, pos - start));
  }
  return fields;
}

/// Line-by-line reader over the buffered stream.
class LineReader {
 public:
  explicit LineReader(const std::filesystem::path& path) : reader_(path) {}

  /// Returns false at EOF. CR is stripped.
  bool next(std::string& line) {
    for (;;) {
      const std::size_t eol = carry_.find('\n');
      if (eol != std::string::npos) {
        line.assign(carry_, 0, eol);
        carry_.erase(0, eol + 1);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        return true;
      }
      const auto chunk = reader_.read_chunk();
      if (chunk.empty()) {
        if (carry_.empty()) return false;
        line = std::move(carry_);
        carry_.clear();
        if (!line.empty() && line.back() == '\r') line.pop_back();
        return true;
      }
      carry_.append(chunk);
    }
  }

 private:
  FileReader reader_;
  std::string carry_;
};

MtxHeader parse_header(LineReader& lines) {
  std::string line;
  util::io_require(lines.next(line), "empty file");
  const auto banner = split_ws(line);
  if (banner.size() < 5 || banner[0] != "%%MatrixMarket" ||
      banner[1] != "matrix" || banner[2] != "coordinate") {
    bad("unsupported banner: '" + line + "'");
  }
  MtxHeader header;
  if (banner[3] == "real") {
    header.field = MtxField::kReal;
  } else if (banner[3] == "integer") {
    header.field = MtxField::kInteger;
  } else if (banner[3] == "pattern") {
    header.field = MtxField::kPattern;
  } else {
    bad("unsupported field type '" + std::string(banner[3]) + "'");
  }
  if (banner[4] != "general") {
    bad("unsupported symmetry '" + std::string(banner[4]) +
        "' (only general)");
  }
  // skip comments, read the size line
  for (;;) {
    util::io_require(lines.next(line), "missing size line");
    if (line.empty() || line[0] == '%') continue;
    const auto fields = split_ws(line);
    if (fields.size() != 3) bad("bad size line: '" + line + "'");
    const auto rows = util::parse_u64_full(fields[0]);
    const auto cols = util::parse_u64_full(fields[1]);
    const auto entries = util::parse_u64_full(fields[2]);
    if (!rows || !cols || !entries) bad("bad size line: '" + line + "'");
    header.rows = *rows;
    header.cols = *cols;
    header.entries = *entries;
    return header;
  }
}

double parse_value(std::string_view text) {
  const auto v = util::parse_f64_full(text);
  if (!v) bad("bad numeric value '" + std::string(text) + "'");
  return *v;
}

template <typename Sink>
void read_entries(const std::filesystem::path& path, MtxHeader& header,
                  Sink&& sink) {
  LineReader lines(path);
  header = parse_header(lines);
  std::string line;
  std::uint64_t seen = 0;
  while (lines.next(line)) {
    if (line.empty() || line[0] == '%') continue;
    const auto fields = split_ws(line);
    const std::size_t expected =
        header.field == MtxField::kPattern ? 2 : 3;
    if (fields.size() != expected) bad("bad entry line: '" + line + "'");
    const auto row = util::parse_u64_full(fields[0]);
    const auto col = util::parse_u64_full(fields[1]);
    if (!row || !col || *row < 1 || *col < 1 || *row > header.rows ||
        *col > header.cols) {
      bad("entry out of bounds: '" + line + "'");
    }
    const double value =
        header.field == MtxField::kPattern ? 1.0 : parse_value(fields[2]);
    sink(*row - 1, *col - 1, value);
    ++seen;
  }
  if (seen != header.entries) {
    bad("entry count mismatch: header says " +
        std::to_string(header.entries) + ", file has " +
        std::to_string(seen));
  }
}

}  // namespace

void write_matrix_market(const sparse::CsrMatrix& a,
                         const std::filesystem::path& path) {
  FileWriter writer(path);
  writer.write("%%MatrixMarket matrix coordinate real general\n");
  writer.write("% written by PRPB\n");
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%llu %llu %llu\n",
                (unsigned long long)a.rows(), (unsigned long long)a.cols(),
                (unsigned long long)a.nnz());
  writer.write(buf);
  for (std::uint64_t r = 0; r < a.rows(); ++r) {
    for (std::uint64_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
      std::snprintf(buf, sizeof(buf), "%llu %llu %.17g\n",
                    (unsigned long long)(r + 1),
                    (unsigned long long)a.col_idx()[k] + 1,
                    a.values()[k]);
      writer.write(buf);
    }
  }
  writer.close();
}

sparse::CsrMatrix read_matrix_market(const std::filesystem::path& path) {
  MtxHeader header;
  std::vector<std::uint64_t> rows;
  std::vector<std::uint64_t> cols;
  std::vector<double> vals;
  read_entries(path, header,
               [&](std::uint64_t r, std::uint64_t c, double v) {
                 rows.push_back(r);
                 cols.push_back(c);
                 vals.push_back(v);
               });
  return sparse::CsrMatrix::from_triplets(rows, cols, vals, header.rows,
                                          header.cols);
}

void write_matrix_market_edges(const gen::EdgeList& edges, std::uint64_t n,
                               const std::filesystem::path& path) {
  FileWriter writer(path);
  writer.write("%%MatrixMarket matrix coordinate pattern general\n");
  writer.write("% PRPB edge list\n");
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%llu %llu %llu\n", (unsigned long long)n,
                (unsigned long long)n, (unsigned long long)edges.size());
  writer.write(buf);
  for (const auto& edge : edges) {
    util::require(edge.u < n && edge.v < n,
                  "write_matrix_market_edges: endpoint out of range");
    std::snprintf(buf, sizeof(buf), "%llu %llu\n",
                  (unsigned long long)(edge.u + 1),
                  (unsigned long long)(edge.v + 1));
    writer.write(buf);
  }
  writer.close();
}

gen::EdgeList read_matrix_market_edges(const std::filesystem::path& path,
                                       std::uint64_t* rows,
                                       std::uint64_t* cols) {
  MtxHeader header;
  gen::EdgeList edges;
  read_entries(path, header,
               [&edges](std::uint64_t r, std::uint64_t c, double) {
                 edges.push_back(gen::Edge{r, c});
               });
  if (rows != nullptr) *rows = header.rows;
  if (cols != nullptr) *cols = header.cols;
  return edges;
}

}  // namespace prpb::io
