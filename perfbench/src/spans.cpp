#include "spans.hpp"

#include <cstdio>

namespace perfbench {

double SpanRecorder::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int SpanRecorder::begin(const char* name) {
  Record record;
  record.name = name;
  record.parent = open_.empty() ? -1 : open_.back();
  record.start_s = now();
  records_.push_back(std::move(record));
  const int id = static_cast<int>(records_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanRecorder::end(int id) {
  records_[static_cast<std::size_t>(id)].end_s = now();
  // Scopes close in reverse order of opening, so `id` is the innermost.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void SpanRecorder::clear() {
  records_.clear();
  open_.clear();
}

bool SpanRecorder::has_ancestor(int id, const std::string& name) const {
  for (int p = records_[static_cast<std::size_t>(id)].parent; p >= 0;
       p = records_[static_cast<std::size_t>(p)].parent) {
    if (records_[static_cast<std::size_t>(p)].name == name) return true;
  }
  return false;
}

double SpanRecorder::total(const std::string& name,
                           const std::string& under) const {
  double sum = 0.0;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (records_[i].name != name) continue;
    if (!under.empty() && !has_ancestor(static_cast<int>(i), under)) continue;
    sum += records_[i].seconds();
  }
  return sum;
}

double SpanRecorder::children_total(const std::string& parent) const {
  double sum = 0.0;
  for (const Record& record : records_) {
    if (record.parent >= 0 &&
        records_[static_cast<std::size_t>(record.parent)].name == parent) {
      sum += record.seconds();
    }
  }
  return sum;
}

double SpanRecorder::self_total(const std::string& name) const {
  double self = total(name);
  for (const Record& record : records_) {
    if (record.parent >= 0 &&
        records_[static_cast<std::size_t>(record.parent)].name == name) {
      self -= record.seconds();
    }
  }
  return self;
}

std::string SpanRecorder::nesting_error() const {
  std::vector<double> child_sum(records_.size(), 0.0);
  for (const Record& record : records_) {
    if (record.end_s < record.start_s) {
      return "span '" + record.name + "' left open";
    }
    if (record.parent < 0) continue;
    const Record& parent = records_[static_cast<std::size_t>(record.parent)];
    if (record.start_s < parent.start_s || record.end_s > parent.end_s) {
      return "span '" + record.name + "' lies outside its parent '" +
             parent.name + "'";
    }
    child_sum[static_cast<std::size_t>(record.parent)] += record.seconds();
  }
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (child_sum[i] > records_[i].seconds()) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "children of span '%s' sum to %.6f s > its %.6f s",
                    records_[i].name.c_str(), child_sum[i],
                    records_[i].seconds());
      return buf;
    }
  }
  return {};
}

}  // namespace perfbench
