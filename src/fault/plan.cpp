#include "fault/plan.hpp"

#include <array>
#include <cstdio>

#include "util/error.hpp"
#include "util/parse.hpp"

namespace prpb::fault {

namespace {

constexpr std::array<std::pair<const char*, FaultKind>, 6> kKinds{{
    {"read_error", FaultKind::kReadError},
    {"short_read", FaultKind::kShortRead},
    {"write_error", FaultKind::kWriteError},
    {"torn_write", FaultKind::kTornWrite},
    {"truncate", FaultKind::kTruncate},
    {"bit_flip", FaultKind::kBitFlip},
}};

constexpr const char* kGrammar =
    "expected kind[@stage][#n|:p=prob][*max] with kind one of read_error, "
    "short_read, write_error, torn_write, truncate, bit_flip";

[[noreturn]] void bad_spec(const std::string& rule, const std::string& why) {
  throw util::ConfigError("fault plan: bad rule '" + rule + "': " + why +
                          " (" + kGrammar + ")");
}

std::uint64_t parse_count(const std::string& body, const std::string& rule,
                          const char* what) {
  const auto value = util::parse_u64_full(body);
  if (!value.has_value()) bad_spec(rule, std::string(what) + " must be a number");
  return *value;
}

FaultRule parse_rule(const std::string& text) {
  // Split the kind from the first filter character.
  const std::size_t kind_end = text.find_first_of("@#:*");
  const std::string kind_name = text.substr(0, kind_end);
  FaultRule rule;
  bool known = false;
  for (const auto& [name, kind] : kKinds) {
    if (kind_name == name) {
      rule.kind = kind;
      known = true;
      break;
    }
  }
  if (!known) bad_spec(text, "unknown fault kind '" + kind_name + "'");

  bool counted = false;
  bool probabilistic = false;
  bool capped = false;
  std::size_t pos = kind_end;
  while (pos != std::string::npos && pos < text.size()) {
    const char tag = text[pos];
    std::size_t end = text.find_first_of("@#:*", pos + 1);
    std::string body = text.substr(pos + 1, end == std::string::npos
                                                ? std::string::npos
                                                : end - pos - 1);
    if (tag == '@') {
      if (body.empty()) bad_spec(text, "'@' needs a stage name");
      rule.stage = body;
    } else if (tag == '#') {
      rule.nth = parse_count(body, text, "'#' op index");
      if (rule.nth == 0) bad_spec(text, "'#' op index is 1-based");
      counted = true;
    } else if (tag == ':') {
      if (body.rfind("p=", 0) != 0 || body.size() <= 2) {
        bad_spec(text, "':' filter must be ':p=<probability>'");
      }
      const auto prob = util::parse_f64_full(body.substr(2));
      if (!prob.has_value() || *prob < 0.0 || *prob > 1.0) {
        bad_spec(text, "probability must be a number in [0, 1]");
      }
      rule.probability = *prob;
      probabilistic = true;
    } else {  // '*'
      rule.max_fires = parse_count(body, text, "'*' max fires");
      if (rule.max_fires == 0) bad_spec(text, "'*' max fires must be >= 1");
      capped = true;
    }
    pos = end;
  }
  if (counted && probabilistic) {
    bad_spec(text, "'#' and ':p=' are mutually exclusive");
  }
  if (probabilistic) {
    rule.nth = 0;
    if (!capped) rule.max_fires = ~std::uint64_t{0};
  }
  return rule;
}

}  // namespace

bool is_read_kind(FaultKind kind) {
  return kind == FaultKind::kReadError || kind == FaultKind::kShortRead;
}

const char* fault_kind_name(FaultKind kind) {
  for (const auto& [name, k] : kKinds) {
    if (k == kind) return name;
  }
  return "unknown";
}

std::string FaultRule::str() const {
  std::string out = fault_kind_name(kind);
  if (!stage.empty()) {
    out += '@';
    out += stage;
  }
  if (nth == 0) {
    char prob[32];
    std::snprintf(prob, sizeof(prob), ":p=%g", probability);
    out += prob;
    if (max_fires != ~std::uint64_t{0}) {
      out += '*';
      out += std::to_string(max_fires);
    }
  } else {
    if (nth != 1) {
      out += '#';
      out += std::to_string(nth);
    }
    if (max_fires != 1) {
      out += '*';
      out += std::to_string(max_fires);
    }
  }
  return out;
}

std::string FaultPlan::str() const {
  std::string out;
  for (const auto& rule : rules) {
    if (!out.empty()) out += ";";
    out += rule.str();
  }
  return out;
}

FaultPlan FaultPlan::parse(const std::string& spec, std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t end = spec.find_first_of(";,", pos);
    if (end == std::string::npos) end = spec.size();
    // Trim surrounding whitespace so "a; b" parses.
    std::size_t first = pos;
    std::size_t last = end;
    while (first < last && spec[first] == ' ') ++first;
    while (last > first && spec[last - 1] == ' ') --last;
    if (last > first) plan.rules.push_back(parse_rule(spec.substr(first, last - first)));
    if (end == spec.size()) break;
    pos = end + 1;
  }
  return plan;
}

}  // namespace prpb::fault
