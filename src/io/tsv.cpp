#include "io/tsv.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <sstream>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "util/error.hpp"
#include "util/parse.hpp"

namespace prpb::io {

void append_edges_fast(std::string& out, const gen::Edge* edges,
                       std::size_t count) {
  std::uint64_t max_u = 0;
  std::uint64_t max_v = 0;
  for (std::size_t i = 0; i < count; ++i) {
    max_u = std::max(max_u, edges[i].u);
    max_v = std::max(max_v, edges[i].v);
  }
  char digits[20];
  const std::size_t record = util::format_u64(digits, max_u) +
                             util::format_u64(digits, max_v) + 2;
  // format_u64 may store 8 bytes for the last id: 8 bytes of slack.
  const std::size_t at = out.size();
  out.resize(at + count * record + 8);
  char* const begin = out.data() + at;
  char* cursor = begin;
  for (std::size_t i = 0; i < count; ++i) {
    cursor += util::format_u64(cursor, edges[i].u);
    *cursor++ = '\t';
    cursor += util::format_u64(cursor, edges[i].v);
    *cursor++ = '\n';
  }
  out.resize(at + static_cast<std::size_t>(cursor - begin));
}

namespace {
/// Appends "u\tv\n" using generic stream formatting.
void append_edge_generic(std::string& out, const gen::Edge& edge) {
  // Deliberate generic path: ostringstream + locale-aware formatting.
  std::ostringstream os;
  os << edge.u << '\t' << edge.v << '\n';
  out += os.str();
}
}  // namespace

void append_edges(std::string& out, const gen::Edge* edges, std::size_t count,
                  Codec codec) {
  if (codec == Codec::kFast) {
    append_edges_fast(out, edges, count);
  } else {
    for (std::size_t i = 0; i < count; ++i) append_edge_generic(out, edges[i]);
  }
}

namespace {

[[noreturn]] void bad_line(std::string_view line) {
  std::string snippet(line.substr(0, 64));
  throw util::IoError("malformed edge line: '" + snippet + "'");
}

/// Scalar parse of one raw line (newline already removed, CR not yet).
/// Shared by the scalar reference loop and the structural lane's scalar
/// fallback so both agree byte-for-byte on edge cases and error text.
inline void parse_line_scalar(std::string_view raw, gen::EdgeList& out) {
  const std::string_view line = util::strip_cr(raw);
  if (line.empty()) return;
  std::size_t cursor = 0;
  const auto u = util::parse_u64(line, cursor);
  if (!u || cursor >= line.size() || line[cursor] != '\t') bad_line(line);
  ++cursor;
  const auto v = util::parse_u64(line, cursor);
  if (!v || cursor != line.size()) bad_line(line);
  out.push_back(gen::Edge{*u, *v});
}

}  // namespace

std::size_t parse_edges_scalar(std::string_view text, gen::EdgeList& out) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) break;  // partial line: stop
    parse_line_scalar(text.substr(pos, eol - pos), out);
    pos = eol + 1;
  }
  return pos;
}

// ---- structural lane --------------------------------------------------------

#if defined(__SSE2__)
namespace {

/// Bytes a lane line may touch from its start: two 16-byte classifies, and
/// an 8-byte digit load that can start at byte 31. Lines that start closer
/// to the buffer end take the scalar lane.
constexpr std::ptrdiff_t kLaneBytes = 40;

/// Bitmasks over a line's first 16 (or 32) bytes: bit i is set where
/// byte i is a newline, a tab or an ASCII digit.
struct ByteClasses {
  std::uint32_t newline;
  std::uint32_t tab;
  std::uint32_t digit;
};

inline ByteClasses classify16(const char* p) {
  const __m128i bytes = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  // A byte is a digit when (byte - '0') wraps to at most 9 as unsigned.
  const __m128i offset = _mm_sub_epi8(bytes, _mm_set1_epi8('0'));
  const __m128i digit =
      _mm_cmpeq_epi8(_mm_min_epu8(offset, _mm_set1_epi8(9)), offset);
  const auto mask = [](__m128i lanes) {
    return static_cast<std::uint32_t>(_mm_movemask_epi8(lanes));
  };
  return {mask(_mm_cmpeq_epi8(bytes, _mm_set1_epi8('\n'))),
          mask(_mm_cmpeq_epi8(bytes, _mm_set1_epi8('\t'))), mask(digit)};
}

/// Converts the 8 bytes at `p`, ASCII digits with the most significant
/// first (SSE2 hosts are little-endian), via three multiply-shift
/// reductions. A `shift` of 8·k bits drops the last k bytes and reads the
/// first 8 - k as the value, led by k zero digits.
inline std::uint64_t parse8(const char* p, unsigned shift = 0) {
  std::uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  word = ((word << shift) & 0x0F0F0F0F0F0F0F0Full) * 2561 >> 8;
  word = (word & 0x00FF00FF00FF00FFull) * 6553601 >> 16;
  return (word & 0x0000FFFF0000FFFFull) * 42949672960001ull >> 32;
}

/// Value of the `len` (1..16) digits at `p`; reads p[0, max(len, 8)).
inline std::uint64_t parse_digits(const char* p, unsigned len) {
  if (len <= 8) return parse8(p, 8 * (8 - len));
  return parse8(p, 8 * (16 - len)) * 100000000ull + parse8(p + len - 8);
}

/// Takes the line at `p` when it is "u\tv\n" with 1..16 digits per field
/// and its newline within 32 bytes: appends the edge and returns the byte
/// after the newline. Returns nullptr for anything else. Reads
/// [p, p + kLaneBytes).
inline const char* take_line(const char* p, gen::EdgeList& out) {
  ByteClasses classes = classify16(p);
  if (classes.newline == 0) {
    const ByteClasses high = classify16(p + 16);
    if (high.newline == 0) return nullptr;
    classes = {high.newline << 16, classes.tab | high.tab << 16,
               classes.digit | high.digit << 16};
  }
  const unsigned nl = static_cast<unsigned>(std::countr_zero(classes.newline));
  const std::uint32_t line = (1u << nl) - 1;
  const std::uint32_t tab = classes.tab & line;
  if (tab == 0 || (tab & (tab - 1)) != 0 ||
      ((classes.digit | tab) & line) != line) {
    return nullptr;
  }
  const unsigned u_len = static_cast<unsigned>(std::countr_zero(tab));
  const unsigned v_len = nl - u_len - 1;
  if (u_len - 1 >= 16 || v_len - 1 >= 16) return nullptr;  // 0 or > 16
  out.push_back(
      gen::Edge{parse_digits(p, u_len), parse_digits(p + u_len + 1, v_len)});
  return p + nl + 1;
}

}  // namespace
#endif

std::size_t parse_edges_structural(std::string_view text, gen::EdgeList& out) {
  const char* const begin = text.data();
  const char* const end = begin + text.size();
  const char* cursor = begin;
  while (cursor < end) {
#if defined(__SSE2__)
    if (end - cursor >= kLaneBytes) {
      if (const char* next = take_line(cursor, out)) {
        cursor = next;
        continue;
      }
    }
#endif
    // Scalar lane: empty lines, CRLF, malformed input, long fields, and
    // lines near the buffer end, through the reference line parser so
    // edges and error text match parse_edges_scalar exactly.
    const auto* nl = static_cast<const char*>(
        std::memchr(cursor, '\n', static_cast<std::size_t>(end - cursor)));
    if (nl == nullptr) break;  // partial line: stop
    parse_line_scalar(
        std::string_view(cursor, static_cast<std::size_t>(nl - cursor)), out);
    cursor = nl + 1;
  }
  return static_cast<std::size_t>(cursor - begin);
}

namespace {
/// Same contract as parse_edges_scalar but via generic string conversion.
std::size_t parse_edges_generic(std::string_view text, gen::EdgeList& out) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) break;
    std::string_view line = util::strip_cr(text.substr(pos, eol - pos));
    if (!line.empty()) {
      // Generic path: split on the tab, materialize field strings, and run
      // stream extraction on each.
      const auto fields = util::split_tab(line);
      if (!fields) bad_line(line);
      unsigned long long u = 0;
      unsigned long long v = 0;
      std::string rest;
      std::istringstream us{std::string(fields->first)};
      if (!(us >> u) || (us >> rest)) bad_line(line);
      std::istringstream vs{std::string(fields->second)};
      if (!(vs >> v) || (vs >> rest)) bad_line(line);
      out.push_back(gen::Edge{u, v});
    }
    pos = eol + 1;
  }
  return pos;
}
}  // namespace

std::size_t parse_edges(std::string_view text, gen::EdgeList& out,
                        Codec codec) {
  return codec == Codec::kFast ? parse_edges_structural(text, out)
                               : parse_edges_generic(text, out);
}

gen::Edge parse_edge_line(std::string_view line, Codec codec) {
  gen::EdgeList one;
  std::string with_newline(line);
  with_newline.push_back('\n');
  const std::size_t consumed = parse_edges(with_newline, one, codec);
  if (one.size() != 1 || consumed != with_newline.size()) bad_line(line);
  return one.front();
}

}  // namespace prpb::io
