// Thread-scaling benchmark for the cluster-parallel CONGEST simulation
// runtime. Per graph family and per sim_threads value it measures the
// wall-clock of the full simulated run (median of kTimedRuns warm queries)
// and its split into the driver's exhaustive and cluster phases and the
// collector's finalize (run minus the driver total), and records the
// simulated CONGEST cost (rounds/messages), cross-checking that cliques
// and ledger are bit-identical to the single-threaded run — the
// determinism invariant the runtime refactor must preserve (DESIGN.md §6).
//
//   ./bench_congest_parallel [--smoke] [max_threads] [out.json]
//
// --smoke shrinks every family (CI smoke runs — sanity, not timing).
//
// Emits one JSON document to stdout AND to the output file (default
// BENCH_congest_parallel.json, BENCH_congest_parallel.smoke.json under
// --smoke) so the perf trajectory is tracked across commits.
// Self-contained on purpose: no google-benchmark dependency.

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "core/api/session.hpp"
#include "graph/generators.hpp"

namespace {

// Warm queries timed per (family, sim_threads); medians are reported so a
// single slow or fast outlier on a shared machine cannot set the number.
constexpr int kTimedRuns = 7;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// A phase's seconds from a run report (0 when the phase did not run).
double phase(const dcl::listing_report& r, const char* name) {
  const auto it = r.phase_seconds.find(name);
  return it == r.phase_seconds.end() ? 0.0 : it->second;
}

struct workload {
  std::string name;
  dcl::graph g;
  int p;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace dcl;
  bool smoke = false;
  std::vector<const char*> pos;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke")
      smoke = true;
    else
      pos.push_back(argv[i]);
  }
  int max_threads = smoke ? 2 : 8;
  if (pos.size() > 0) {
    max_threads = std::atoi(pos[0]);
    if (max_threads < 1) {
      // A non-numeric first positional (e.g. a filename) atoi's to 0 and
      // would silently skip every timed run AND the determinism
      // cross-check while still exiting 0 — reject it loudly instead.
      std::cerr << "usage: bench_congest_parallel [--smoke] [max_threads]"
                   " [out.json]\n       max_threads must be a positive"
                   " integer, got '"
                << pos[0] << "'\n";
      return 2;
    }
  }
  const std::string out_path =
      pos.size() > 1 ? pos[1]
                     : bench::default_json_path("congest_parallel", smoke);

  // Multi-cluster families (ring_of_cliques, weakly linked planted
  // partitions) decompose into many clusters per level — the parallelism
  // the runtime exploits. gnp and Kneser are expanders, i.e. single-cluster
  // controls: they measure the runtime's overhead when there is nothing to
  // parallelize.
  std::vector<workload> workloads;
  if (smoke) {
    workloads.push_back({"ring_of_cliques_k3", gen::ring_of_cliques(4, 8), 3});
    workloads.push_back({"gnp_k3", gen::gnp(60, 0.12, 7), 3});
  } else {
    workloads.push_back({"ring_of_cliques_k3", gen::ring_of_cliques(16, 20),
                         3});
    workloads.push_back({"planted_partition_k3",
                         gen::planted_partition(8, 30, 0.5, 0.002, 11), 3});
    workloads.push_back({"planted_partition_k4",
                         gen::planted_partition(5, 50, 0.6, 0.003, 23), 4});
    workloads.push_back({"gnp_k3", gen::gnp(260, 0.08, 7), 3});
    workloads.push_back({"kneser_k3", gen::kneser(9, 3), 3});
  }

  std::ostringstream js;
  js << "{\n  \"benchmark\": \"congest_parallel\",\n"
     << "  " << bench::meta_json() << ",\n"
     << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
     << ",\n  \"timed_runs\": " << kTimedRuns
     << ", \"statistic\": \"median\",\n  \"families\": [\n";

  bool first_family = true;
  for (const auto& w : workloads) {
    listing_query q;
    q.p = w.p;
    listing_report ref_report;
    clique_set ref((w.p));
    {
      listing_session ref_session(w.g, {.threads = 1});
      auto res = ref_session.run(q);
      ref = std::move(res.cliques);
      ref_report = std::move(res.report);
    }

    std::int64_t clusters_listed = 0;
    for (const auto& lv : ref_report.levels) clusters_listed += lv.clusters_listed;

    if (!first_family) js << ",\n";
    first_family = false;
    js << "    {\"family\": \"" << w.name << "\", \"n\": "
       << w.g.num_vertices() << ", \"edges\": " << w.g.num_edges()
       << ", \"p\": " << w.p << ", \"cliques\": " << ref.size()
       << ", \"rounds\": " << ref_report.ledger.rounds()
       << ", \"messages\": " << ref_report.ledger.messages()
       << ", \"levels\": " << ref_report.levels.size()
       << ", \"clusters_listed\": " << clusters_listed
       << ",\n     \"results\": [";

    // One session per worker-pool size, each measuring warm per-query
    // latency (the session API's serving shape). The timed runs rotate
    // through the pool sizes, so a stretch of machine contention lands on
    // every pool size alike instead of on whichever one ran during it.
    struct arm {
      int threads;
      std::unique_ptr<listing_session> session;
      std::vector<double> run_s, exhaustive_s, clusters_s, finalize_s;
    };
    std::vector<arm> arms;
    for (int threads = 1; threads <= max_threads; threads *= 2)
      arms.push_back({threads,
                      std::make_unique<listing_session>(
                          w.g, session_options{.threads = threads}),
                      {}, {}, {}, {}});
    const auto run_checked = [&](arm& a, bool timed) {
      const double t0 = bench::now_seconds();
      const auto res = a.session->run(q);
      const double secs = bench::now_seconds() - t0;
      // Determinism cross-check: clique set, full per-phase ledger and
      // level stats must match the single-threaded reference exactly — on
      // the recording first run and on every replay of the session's
      // memoized control plane.
      if (!(res.cliques == ref) ||
          !(res.report.ledger == ref_report.ledger) ||
          res.report.levels != ref_report.levels)
        std::abort();
      if (!timed) return;
      a.run_s.push_back(secs);
      a.exhaustive_s.push_back(phase(res.report, "exhaustive"));
      a.clusters_s.push_back(phase(res.report, "clusters"));
      a.finalize_s.push_back(secs - phase(res.report, "total"));
    };
    // Untimed: a session's first query records the control plane
    // (DESIGN.md §9); warm latency is what every later query pays.
    for (auto& a : arms) run_checked(a, false);
    for (int r = 0; r < kTimedRuns; ++r)
      for (auto& a : arms) run_checked(a, true);

    const double t1 = median(arms.front().run_s);
    for (const auto& a : arms) {
      const double secs = median(a.run_s);
      js << (a.threads == 1 ? "" : ", ") << "{\"sim_threads\": " << a.threads
         << ", \"seconds\": " << secs
         << ", \"speedup\": " << (secs > 0 ? t1 / secs : 0.0)
         << ", \"exhaustive_s\": " << median(a.exhaustive_s)
         << ", \"clusters_s\": " << median(a.clusters_s)
         << ", \"finalize_s\": " << median(a.finalize_s) << "}";
    }
    js << "]}";
  }
  js << "\n  ]\n}\n";
  return dcl::bench::emit_json(out_path, js.str());
}
