// Fast decimal integer/float parsing and formatting used by the edge-file
// codecs. The "fast" paths avoid locale machinery and stream dispatch; the
// arraylang/dataframe backends deliberately use slower generic conversions.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace prpb::util {

/// Parses a non-negative decimal integer from the front of `s`.
/// Returns the value and advances `pos` past the digits, or nullopt if no
/// digit is present at `pos` or the value overflows uint64.
std::optional<std::uint64_t> parse_u64(std::string_view s, std::size_t& pos);

/// Parses an entire string as a non-negative decimal integer (no leading or
/// trailing junk allowed).
std::optional<std::uint64_t> parse_u64_full(std::string_view s);

/// Parses a signed decimal integer covering the full int64 range.
std::optional<std::int64_t> parse_i64_full(std::string_view s);

/// Parses a floating point number (full string).
std::optional<double> parse_f64_full(std::string_view s);

/// Appends the decimal representation of `v` to `out`; returns digit count.
std::size_t append_u64(std::string& out, std::uint64_t v);

/// Writes decimal digits of `v` into `buf` (must hold >= 20 bytes);
/// returns the digit count. No terminator is added. Ids below 10^8 take
/// an 8-digit SWAR conversion and one 8-byte store, so up to 8 bytes
/// change: callers writing into a tight buffer leave 8 bytes of room.
std::size_t format_u64(char* buf, std::uint64_t v);

/// Splits `line` at the first tab character. Returns {before, after}
/// or nullopt if there is no tab.
std::optional<std::pair<std::string_view, std::string_view>> split_tab(
    std::string_view line);

/// Strips a trailing '\r' (for files written on CRLF platforms).
std::string_view strip_cr(std::string_view line);

}  // namespace prpb::util
