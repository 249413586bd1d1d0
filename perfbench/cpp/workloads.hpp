#pragma once
// The benchmark's workloads and the harness that measures them. Each run
// generates its inputs from the seed, computes solo oracle answers, times
// several cold set-up cycles, then drives a closed loop of checked queries
// for the requested number of seconds. A traced run additionally times the
// calls into each layer's public functions and reports per-layer metrics.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct run_config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  ///< traced runs write their spans here (JSONL)
};

struct run_output {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<metric> metrics;
  /// Facts about the run that are not metrics: input sizes, thread and
  /// client counts, sample counts, deterministic ledger totals.
  std::vector<metric> info;
  std::vector<std::string> errors;  ///< first few failure descriptions
};

std::vector<std::string> workload_names();

/// Runs one workload. Throws std::invalid_argument on an unknown name.
run_output run_workload(const run_config& cfg);

}  // namespace perfbench
