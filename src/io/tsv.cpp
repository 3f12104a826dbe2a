#include "io/tsv.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <optional>
#include <sstream>

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
/// Shared by the scalar reference loop and the SWAR slow lane so both
/// agree byte-for-byte on edge cases and error text.
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

std::size_t parse_edges_fast(std::string_view text, gen::EdgeList& out) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) break;  // partial line: stop
    parse_line_scalar(text.substr(pos, eol - pos), out);
    pos = eol + 1;
  }
  return pos;
}

// ---- SWAR hot loop ----------------------------------------------------------

namespace {

constexpr std::uint64_t kLoBits = 0x0101010101010101ull;
constexpr std::uint64_t kHiBits = 0x8080808080808080ull;
constexpr std::uint64_t kAsciiZeros = 0x3030303030303030ull;

/// Unaligned little-endian word load; memcpy keeps it UBSan-clean.
inline std::uint64_t load8(const char* p) {
  std::uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  if constexpr (std::endian::native != std::endian::little) {
    std::uint64_t swapped = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      swapped |= ((word >> (56 - 8 * i)) & 0xffu) << (8 * i);
    }
    word = swapped;
  }
  return word;
}

/// High bit set in every byte of `word` equal to `c`. The zero-byte trick
/// ((x - 1) & ~x & 0x80) can smear borrows into HIGHER bytes only, so the
/// lowest set bit always marks the first match exactly.
inline std::uint64_t match_byte(std::uint64_t word, char c) {
  const std::uint64_t x = word ^ (kLoBits * static_cast<unsigned char>(c));
  return (x - kLoBits) & ~x & kHiBits;
}

/// First occurrence of `c` in [p, end), or nullptr. Word-at-a-time scan.
inline const char* swar_find(const char* p, const char* end, char c) {
  while (end - p >= 8) {
    const std::uint64_t mask = match_byte(load8(p), c);
    if (mask != 0) return p + (std::countr_zero(mask) >> 3);
    p += 8;
  }
  while (p < end && *p != c) ++p;
  return p == end ? nullptr : p;
}

/// True when all 8 bytes are ASCII digits: high nibble must be 3 and the
/// low nibble must not carry past 9 when 6 is added.
inline bool all_digits8(std::uint64_t word) {
  return ((word & 0xF0F0F0F0F0F0F0F0ull) |
          (((word + 0x0606060606060606ull) & 0xF0F0F0F0F0F0F0F0ull) >> 4)) ==
         0x3333333333333333ull;
}

/// Converts 8 ASCII digits (most significant digit in the lowest byte, as
/// loaded from text) to their value via three multiply-shift reductions.
inline std::uint64_t parse8(std::uint64_t word) {
  word = (word & 0x0F0F0F0F0F0F0F0Full) * 2561 >> 8;
  word = (word & 0x00FF00FF00FF00FFull) * 6553601 >> 16;
  return (word & 0x0000FFFF0000FFFFull) * 42949672960001ull >> 32;
}

/// Parses `len` (1..8) digits starting at `p`. Requires p+8 to be a valid
/// load (the caller guarantees the line's newline has 7 bytes after it).
/// Returns nullopt when any of the `len` bytes is not a digit.
inline std::optional<std::uint64_t> parse_digits_1to8(const char* p,
                                                      std::size_t len) {
  std::uint64_t word = load8(p);
  if (len < 8) {
    // Shift the digits toward the high bytes (later text positions) and
    // fill the vacated front with ASCII '0' pad digits.
    word = (word << (8 * (8 - len))) | (kAsciiZeros >> (8 * len));
  }
  if (!all_digits8(word)) return std::nullopt;
  return parse8(word);
}

/// Parses a whole digit field [p, p+len). Fields up to 16 digits cannot
/// overflow u64; longer ones go through the checked scalar parser.
inline std::optional<std::uint64_t> parse_field(const char* p,
                                                std::size_t len) {
  if (len == 0) return std::nullopt;
  if (len <= 8) return parse_digits_1to8(p, len);
  if (len <= 16) {
    const auto hi = parse_digits_1to8(p, len - 8);
    const auto lo = parse_digits_1to8(p + len - 8, 8);
    if (!hi || !lo) return std::nullopt;
    return *hi * 100000000ull + *lo;
  }
  const std::string_view field(p, len);
  std::size_t cursor = 0;
  const auto value = util::parse_u64(field, cursor);
  if (!value || cursor != len) return std::nullopt;
  return value;
}

}  // namespace

std::size_t parse_edges_swar(std::string_view text, gen::EdgeList& out) {
  const char* const begin = text.data();
  const char* const end = begin + text.size();
  const char* cursor = begin;
  while (cursor < end) {
    const char* nl = swar_find(cursor, end, '\n');
    if (nl == nullptr) break;  // partial line: stop
    bool taken = false;
    // Hot lane: every word load within the line stays in bounds as long
    // as 7 bytes follow the newline, i.e. nl + 8 <= end.
    if (nl > cursor && end - nl >= 8 && nl[-1] != '\r') {
      const char* tab = swar_find(cursor, nl, '\t');
      if (tab != nullptr) {
        const auto u = parse_field(cursor, static_cast<std::size_t>(tab - cursor));
        const auto v = parse_field(tab + 1, static_cast<std::size_t>(nl - tab - 1));
        if (u && v) {
          out.push_back(gen::Edge{*u, *v});
          taken = true;
        }
      }
    }
    if (!taken) {
      // Slow lane: empty lines, CRLF, malformed input, or lines too close
      // to the buffer end for whole-word loads. One line at a time through
      // the scalar reference so behavior and error text match exactly.
      parse_line_scalar(
          std::string_view(cursor, static_cast<std::size_t>(nl - cursor)),
          out);
    }
    cursor = nl + 1;
  }
  return static_cast<std::size_t>(cursor - begin);
}

namespace {
/// Same contract as parse_edges_fast but via generic string conversion.
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
  return codec == Codec::kFast ? parse_edges_swar(text, out)
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
