#include "io/edge_list.hpp"

#include <algorithm>
#include <cctype>

#include "io/file_stream.hpp"
#include "io/matrix_market.hpp"
#include "util/error.hpp"
#include "util/parse.hpp"

namespace prpb::io {

namespace {

constexpr std::string_view kDelimiters = "\t, ;";

bool is_delimiter(char c) {
  return kDelimiters.find(c) != std::string_view::npos;
}

bool is_comment_line(std::string_view line) {
  for (const char c : line) {
    if (c == ' ' || c == '\t') continue;
    return c == '#' || c == '%';
  }
  return false;  // all-blank lines are handled as empty, not comments
}

bool is_blank_line(std::string_view line) {
  return line.find_first_not_of(" \t") == std::string_view::npos;
}

/// Splits a line into fields on any run of delimiter characters.
std::vector<std::string_view> split_fields(std::string_view line) {
  std::vector<std::string_view> fields;
  std::size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && is_delimiter(line[pos])) ++pos;
    const std::size_t start = pos;
    while (pos < line.size() && !is_delimiter(line[pos])) ++pos;
    if (pos > start) fields.push_back(line.substr(start, pos - start));
  }
  return fields;
}

/// The file's representative delimiter: the first delimiter character that
/// appears between fields of `line` (tab beats comma beats space only by
/// position in the line, which is what "the file uses tabs" means).
char representative_delimiter(std::string_view line) {
  for (const char c : line) {
    if (is_delimiter(c)) return c == ';' ? ',' : c;
  }
  return '\t';
}

[[noreturn]] void bad_line(const std::string& label, std::uint64_t line_no,
                           std::string_view line, const std::string& why) {
  throw util::IoError("edge list " + label + " line " +
                      std::to_string(line_no) + ": " + why + " ('" +
                      std::string(line.substr(0, 80)) + "')");
}

}  // namespace

std::string EdgeListFormat::delimiter_name() const {
  switch (delimiter) {
    case '\t':
      return "tab";
    case ',':
      return "comma";
    default:
      return "space";
  }
}

ExternalEdgeList parse_edge_list_text(std::string_view text,
                                      const std::string& label) {
  ExternalEdgeList out;
  bool saw_candidate = false;  // first data-position line may be a header
  bool delimiter_set = false;
  std::uint64_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line =
        eol == std::string_view::npos
            ? text.substr(pos)
            : text.substr(pos, eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    if (!line.empty() && line.back() == '\r') {
      line.remove_suffix(1);
      out.format.crlf = true;
    }
    if (is_blank_line(line)) continue;
    if (is_comment_line(line)) {
      ++out.format.comment_lines;
      continue;
    }
    const auto fields = split_fields(line);
    const auto u = fields.empty() ? std::nullopt
                                  : util::parse_u64_full(fields[0]);
    const auto v = fields.size() < 2 ? std::nullopt
                                     : util::parse_u64_full(fields[1]);
    if (!u || !v) {
      if (!saw_candidate) {
        // "FromNodeId  ToNodeId" and friends: one header line is allowed
        // in the first data position, nowhere else.
        saw_candidate = true;
        out.format.has_header = true;
        continue;
      }
      bad_line(label, line_no, line,
               "expected two unsigned integer vertex ids");
    }
    if (!delimiter_set) {
      out.format.delimiter = representative_delimiter(line);
      delimiter_set = true;
    }
    saw_candidate = true;
    ++out.format.data_lines;
    out.edges.push_back(gen::Edge{*u, *v});
  }
  return out;
}

ExternalEdgeList read_edge_list(const std::filesystem::path& path) {
  util::io_require(std::filesystem::exists(path),
             "edge list '" + path.string() + "' does not exist");
  ExternalEdgeList out;
  if (path.extension() == ".mtx") {
    out.edges = read_matrix_market_edges(path);
    out.format.delimiter = ' ';
    out.format.data_lines = out.edges.size();
  } else {
    const std::string text = read_file(path);
    std::string where = "'";
    where += path.string();
    where += '\'';
    out = parse_edge_list_text(text, where);
  }
  util::io_require(!out.edges.empty(),
             "edge list '" + path.string() + "' holds no edges");
  return out;
}

bool VertexRemap::identity() const {
  for (std::size_t i = 0; i < dense_to_original.size(); ++i) {
    if (dense_to_original[i] != i) return false;
  }
  return true;
}

std::uint64_t VertexRemap::to_dense(std::uint64_t original) const {
  const auto it = std::lower_bound(dense_to_original.begin(),
                                   dense_to_original.end(), original);
  util::ensure(it != dense_to_original.end() && *it == original,
               "vertex remap: id not in dictionary");
  return static_cast<std::uint64_t>(it - dense_to_original.begin());
}

VertexRemap build_vertex_remap(const gen::EdgeList& edges) {
  VertexRemap remap;
  remap.dense_to_original.reserve(edges.size() * 2);
  for (const auto& edge : edges) {
    remap.dense_to_original.push_back(edge.u);
    remap.dense_to_original.push_back(edge.v);
  }
  std::sort(remap.dense_to_original.begin(), remap.dense_to_original.end());
  remap.dense_to_original.erase(
      std::unique(remap.dense_to_original.begin(),
                  remap.dense_to_original.end()),
      remap.dense_to_original.end());
  remap.dense_to_original.shrink_to_fit();
  return remap;
}

void apply_vertex_remap(const VertexRemap& remap, gen::EdgeList& edges) {
  for (auto& edge : edges) {
    edge.u = remap.to_dense(edge.u);
    edge.v = remap.to_dense(edge.v);
  }
}

}  // namespace prpb::io
