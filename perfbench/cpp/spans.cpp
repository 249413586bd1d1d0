#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <utility>

namespace perfbench {

double now_s() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::int64_t span_log::next_id() {
  std::lock_guard<std::mutex> lock(m_);
  return next_id_++;
}

void span_log::add(span_record r) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(m_);
  spans_.push_back(std::move(r));
}

std::vector<double> span_log::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(m_);
  std::vector<double> out;
  for (const auto& s : spans_)
    if (s.name == name) out.push_back(s.end - s.start);
  return out;
}

std::vector<span_totals> span_log::totals() const {
  std::lock_guard<std::mutex> lock(m_);
  std::map<std::int64_t, std::vector<std::pair<double, double>>> children;
  for (const auto& s : spans_)
    if (s.parent >= 0) children[s.parent].emplace_back(s.start, s.end);

  std::map<std::string, span_totals> by_name;
  for (const auto& s : spans_) {
    // Covered part of [start, end): union of the clipped child intervals.
    double covered = 0.0;
    if (auto it = children.find(s.id); it != children.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      double lo = s.start, hi = s.start;
      for (auto [a, b] : iv) {
        a = std::max(a, s.start);
        b = std::min(b, s.end);
        if (b <= a) continue;
        if (a > hi) {
          covered += hi - lo;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      covered += hi - lo;
    }
    auto& t = by_name[s.name];
    t.name = s.name;
    ++t.count;
    t.total_s += s.end - s.start;
    t.self_s += (s.end - s.start) - covered;
  }
  std::vector<span_totals> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  return out;
}

void span_log::write_jsonl(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(m_);
  os.precision(9);
  for (const auto& s : spans_)
    os << "{\"span\":\"" << s.name << "\",\"id\":" << s.id
       << ",\"parent\":" << s.parent << ",\"query\":" << s.query
       << ",\"start_s\":" << std::fixed << s.start << ",\"end_s\":" << s.end
       << std::defaultfloat << "}\n";
}

scoped_span::scoped_span(span_log& log, const char* name,
                         std::int64_t parent, std::int64_t query)
    : log_(log) {
  if (!log_.enabled()) return;
  rec_.name = name;
  rec_.id = log_.next_id();
  rec_.parent = parent;
  rec_.query = query;
  rec_.start = now_s();
}

scoped_span::~scoped_span() {
  if (!log_.enabled()) return;
  rec_.end = now_s();
  log_.add(std::move(rec_));
}

}  // namespace perfbench
