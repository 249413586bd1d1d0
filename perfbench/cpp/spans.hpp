#pragma once
// In-memory span recorder for the benchmark's traced runs. A span is one
// timed call into a library layer, recorded by the benchmark around the
// public call it makes: name, start, end, the span that caused it, and the
// id of the query it belongs to. Spans stay in memory while the run is
// measuring and are written out as JSONL once it ends.
//
// A disabled log records nothing, so the untraced runs pay one branch per
// span site.

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the process's first call.
double now_s();

struct span_record {
  std::string name;
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< -1: a root span
  std::int64_t query = -1;   ///< -1: not part of a query (setup, probes)
  double start = 0.0;
  double end = 0.0;
};

/// Per-name aggregate over recorded spans. Self time is a span's duration
/// minus the part of its interval that its child spans cover.
struct span_totals {
  std::string name;
  std::int64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

class span_log {
 public:
  explicit span_log(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Reserves an id for a span that is about to start (thread-safe).
  std::int64_t next_id();

  /// Stores a finished span (thread-safe). No-op when disabled.
  void add(span_record r);

  /// Durations of every recorded span called `name`, in record order.
  std::vector<double> durations(const std::string& name) const;

  /// Aggregates by name, ordered by name.
  std::vector<span_totals> totals() const;

  /// One JSON object per span, one per line.
  void write_jsonl(std::ostream& os) const;

 private:
  bool enabled_;
  mutable std::mutex m_;
  std::int64_t next_id_ = 0;
  std::vector<span_record> spans_;
};

/// Times one scope as a span of `log` (nothing when log is disabled).
class scoped_span {
 public:
  scoped_span(span_log& log, const char* name, std::int64_t parent = -1,
              std::int64_t query = -1);
  ~scoped_span();

  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

  std::int64_t id() const { return rec_.id; }

 private:
  span_log& log_;
  span_record rec_;
};

}  // namespace perfbench
