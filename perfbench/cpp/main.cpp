// End-to-end benchmark driver binary. Runs one workload and prints one JSON
// object on stdout: correctness counts, the metrics of the run (end-to-end
// when untraced, per-layer when traced), an info block and a stamp.
//
//   dcl_perfbench --workload congest-ring --seed 1 --seconds 10 --trace 0
//                 [--spans out.jsonl]
//
// Exit codes: 0 when every answer matched its oracle, 1 on any mismatch or
// error, 2 on bad arguments. perfbench/run.py wraps this binary.

#include <exception>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "support/simd.hpp"
#include "workloads.hpp"

namespace {

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string metric_block(const std::vector<perfbench::metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) out += ", ";
    out += quote(ms[i].name) + ": {\"value\": " + number(ms[i].value) +
           ", \"unit\": " + quote(ms[i].unit) + "}";
  }
  return out + "}";
}

int usage(const std::string& why) {
  std::cerr << "dcl_perfbench: " << why
            << "\nusage: dcl_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans FILE]\nworkloads:";
  for (const auto& w : perfbench::workload_names()) std::cerr << ' ' << w;
  std::cerr << '\n';
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::run_config cfg;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + a);
      const std::string v = argv[++i];
      if (a == "--workload") {
        cfg.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        cfg.seed = std::stoull(v);
      } else if (a == "--seconds") {
        cfg.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
        cfg.trace = v == "1";
      } else if (a == "--spans") {
        cfg.spans_path = v;
      } else {
        return usage("unknown argument " + a);
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (!have_workload) return usage("--workload is required");
  if (!(cfg.seconds > 0)) return usage("--seconds must be positive");

  perfbench::run_output out;
  try {
    out = perfbench::run_workload(cfg);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::cerr << "dcl_perfbench: " << e.what() << '\n';
    return 1;
  }

  std::string errors = "[";
  for (std::size_t i = 0; i < out.errors.size(); ++i)
    errors += (i ? ", " : "") + quote(out.errors[i]);
  errors += "]";
  std::cout << "{\"correct\": " << (out.correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed
            << ", \"metrics\": " << metric_block(out.metrics)
            << ", \"info\": " << metric_block(out.info)
            << ", \"stamp\": {\"workload\": " << quote(cfg.workload)
            << ", \"seed\": " << cfg.seed
            << ", \"seconds\": " << number(cfg.seconds)
            << ", \"trace\": " << (cfg.trace ? 1 : 0) << ", \"simd_tier\": "
            << quote(dcl::simd::simd_mode_name(dcl::simd::detected_mode()))
            << ", \"hardware_concurrency\": "
            << std::thread::hardware_concurrency() << "}"
            << ", \"errors\": " << errors << "}" << std::endl;
  return out.correct ? 0 : 1;
}
