#include "df/dataframe.hpp"

#include <algorithm>
#include <numeric>

#include "util/error.hpp"

namespace prpb::df {

void DataFrame::add_column(const std::string& name, Column column) {
  util::require(!has_column(name), "add_column: duplicate column '" + name +
                                       "'");
  if (!columns_.empty()) {
    util::require(column.size() == rows_,
                  "add_column: length mismatch for '" + name + "'");
  } else {
    rows_ = column.size();
  }
  names_.push_back(name);
  columns_.push_back(std::move(column));
}

bool DataFrame::has_column(const std::string& name) const {
  return std::find(names_.begin(), names_.end(), name) != names_.end();
}

std::size_t DataFrame::column_index(const std::string& name) const {
  const auto it = std::find(names_.begin(), names_.end(), name);
  util::require(it != names_.end(), "no such column '" + name + "'");
  return static_cast<std::size_t>(it - names_.begin());
}

const Column& DataFrame::col(const std::string& name) const {
  return columns_[column_index(name)];
}

Column& DataFrame::col(const std::string& name) {
  return columns_[column_index(name)];
}

DataFrame DataFrame::sort_values(const std::vector<std::string>& by) const {
  util::require(!by.empty(), "sort_values: need at least one key");
  std::vector<const Column*> keys;
  keys.reserve(by.size());
  for (const auto& name : by) keys.push_back(&col(name));

  std::vector<std::size_t> order(rows_);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&keys](std::size_t a, std::size_t b) {
                     for (const Column* key : keys) {
                       const int c = key->compare(a, b);
                       if (c != 0) return c < 0;
                     }
                     return false;
                   });
  return take(order);
}

DataFrame DataFrame::take(const std::vector<std::size_t>& indices) const {
  DataFrame out;
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    out.add_column(names_[c], columns_[c].take(indices));
  }
  if (columns_.empty()) out.rows_ = 0;
  return out;
}

namespace {
/// Sorted-group scaffolding for groupby_count: returns row order
/// sorted by keys plus group boundaries in that order.
struct Groups {
  std::vector<std::size_t> order;
  std::vector<std::size_t> starts;  // group start offsets; ends with order
};

Groups group_rows(const DataFrame& frame,
                  const std::vector<std::string>& keys) {
  util::require(!keys.empty(), "groupby: need at least one key");
  std::vector<const Column*> cols;
  cols.reserve(keys.size());
  for (const auto& name : keys) cols.push_back(&frame.col(name));

  Groups g;
  g.order.resize(frame.num_rows());
  std::iota(g.order.begin(), g.order.end(), 0);
  std::stable_sort(g.order.begin(), g.order.end(),
                   [&cols](std::size_t a, std::size_t b) {
                     for (const Column* key : cols) {
                       const int c = key->compare(a, b);
                       if (c != 0) return c < 0;
                     }
                     return false;
                   });
  auto same_group = [&cols](std::size_t a, std::size_t b) {
    for (const Column* key : cols) {
      if (key->compare(a, b) != 0) return false;
    }
    return true;
  };
  for (std::size_t i = 0; i < g.order.size(); ++i) {
    if (i == 0 || !same_group(g.order[i - 1], g.order[i]))
      g.starts.push_back(i);
  }
  g.starts.push_back(g.order.size());
  return g;
}

std::vector<std::size_t> group_representatives(const Groups& g) {
  std::vector<std::size_t> reps;
  reps.reserve(g.starts.size() - 1);
  for (std::size_t gi = 0; gi + 1 < g.starts.size(); ++gi)
    reps.push_back(g.order[g.starts[gi]]);
  return reps;
}
}  // namespace

DataFrame DataFrame::groupby_count(const std::vector<std::string>& keys,
                                   const std::string& count_name) const {
  const Groups g = group_rows(*this, keys);
  const auto reps = group_representatives(g);

  DataFrame out;
  for (const auto& key : keys) out.add_column(key, col(key).take(reps));
  std::vector<std::int64_t> counts;
  counts.reserve(reps.size());
  for (std::size_t gi = 0; gi + 1 < g.starts.size(); ++gi) {
    counts.push_back(
        static_cast<std::int64_t>(g.starts[gi + 1] - g.starts[gi]));
  }
  out.add_column(count_name, Column(std::move(counts)));
  return out;
}

}  // namespace prpb::df
