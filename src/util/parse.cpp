#include "util/parse.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstring>
#include <limits>

namespace prpb::util {

std::optional<std::uint64_t> parse_u64(std::string_view s, std::size_t& pos) {
  if (pos >= s.size() || s[pos] < '0' || s[pos] > '9') return std::nullopt;
  std::uint64_t v = 0;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::size_t i = pos;
  for (; i < s.size(); ++i) {
    const char ch = s[i];
    if (ch < '0' || ch > '9') break;
    const auto digit = static_cast<std::uint64_t>(ch - '0');
    if (v > (kMax - digit) / 10) return std::nullopt;  // overflow
    v = v * 10 + digit;
  }
  pos = i;
  return v;
}

std::optional<std::uint64_t> parse_u64_full(std::string_view s) {
  std::size_t pos = 0;
  const auto v = parse_u64(s, pos);
  if (!v || pos != s.size()) return std::nullopt;
  return v;
}

std::optional<std::int64_t> parse_i64_full(std::string_view s) {
  std::int64_t v = 0;
  const auto* first = s.data();
  const auto* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(first, last, v, 10);
  if (ec != std::errc{} || ptr != last) return std::nullopt;
  return v;
}

std::optional<double> parse_f64_full(std::string_view s) {
  double v = 0.0;
  const auto* first = s.data();
  const auto* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(first, last, v);
  if (ec != std::errc{} || ptr != last) return std::nullopt;
  return v;
}

std::size_t format_u64(char* buf, std::uint64_t v) {
  if (std::endian::native == std::endian::little && v < 100000000) {
    // SWAR: split by 10^4 into two 32-bit lanes, by 10^2 into four 16-bit
    // lanes, by 10 into eight byte lanes, most significant digit in the
    // lowest byte. The reciprocal multiplies are exact in these ranges and
    // never carry across lanes.
    const std::uint64_t merged = (v / 10000) | ((v % 10000) << 32);
    const std::uint64_t top =
        ((merged * 10486) >> 20) & ((std::uint64_t{0x7f} << 32) | 0x7f);
    const std::uint64_t hundreds = ((merged - 100 * top) << 16) + top;
    std::uint64_t digits = ((hundreds * 103) >> 10) & 0x000f000f000f000full;
    digits += (hundreds - 10 * digits) << 8;
    // Shift the leading zero digits out of the low bytes and store all
    // eight bytes at once (v == 0 keeps its one '0').
    const auto zeros = std::min(std::countr_zero(digits) / 8, 7);
    const std::uint64_t text = (digits + 0x3030303030303030ull) >> (8 * zeros);
    std::memcpy(buf, &text, sizeof(text));
    return static_cast<std::size_t>(8 - zeros);
  }
  char tmp[20];
  std::size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + (v % 10));
    v /= 10;
  } while (v != 0);
  for (std::size_t i = 0; i < n; ++i) buf[i] = tmp[n - 1 - i];
  return n;
}

std::size_t append_u64(std::string& out, std::uint64_t v) {
  char buf[20];
  const std::size_t n = format_u64(buf, v);
  out.append(buf, n);
  return n;
}

std::optional<std::pair<std::string_view, std::string_view>> split_tab(
    std::string_view line) {
  const std::size_t tab = line.find('\t');
  if (tab == std::string_view::npos) return std::nullopt;
  return std::make_pair(line.substr(0, tab), line.substr(tab + 1));
}

std::string_view strip_cr(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

}  // namespace prpb::util
