#include "core/algorithm.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"

namespace prpb::core {

std::vector<std::string> algorithm_names() {
  return {"pagerank", "bfs", "cc"};
}

std::string joined_algorithm_names() {
  std::string out;
  for (const auto& name : algorithm_names()) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

bool is_algorithm_name(const std::string& name) {
  const auto names = algorithm_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

int bfs_depth(const std::vector<std::int64_t>& levels) {
  std::int64_t depth = 0;
  for (const std::int64_t level : levels) depth = std::max(depth, level);
  return static_cast<int>(depth);
}

std::vector<std::string> parse_algorithm_list(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream stream{csv};
  std::string token;
  while (std::getline(stream, token, ',')) {
    const auto begin = token.find_first_not_of(" \t");
    if (begin == std::string::npos) {
      throw util::ConfigError{"empty algorithm name in list '" + csv +
                              "' (valid values: " + joined_algorithm_names() +
                              ")"};
    }
    const auto end = token.find_last_not_of(" \t");
    token = token.substr(begin, end - begin + 1);
    if (!is_algorithm_name(token)) {
      throw util::ConfigError{"unknown algorithm '" + token +
                              "' (valid values: " + joined_algorithm_names() +
                              ")"};
    }
    if (std::find(out.begin(), out.end(), token) == out.end()) {
      out.push_back(token);
    }
  }
  if (out.empty()) {
    throw util::ConfigError{"empty algorithm list (valid values: " +
                            joined_algorithm_names() + ")"};
  }
  return out;
}

}  // namespace prpb::core
