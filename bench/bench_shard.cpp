// Multi-process sharded serving benchmark (DESIGN.md §14): a forked worker
// fleet behind one shard_coordinator versus a single-process
// listing_session, per (engine × shards × p) cell. Reports per-query
// latency (best of 3 on a warm fleet), bind time, and the wire footprint
// (frames/bytes/flushes from the workers' stats frames) — the aggregation
// ratio bytes_sent/frames_sent is the buffered-transport number tracked
// across commits.
//
//   ./bench_shard [--smoke] [out.json]
//
// Self-check (every mode, every cell): the sharded clique set AND — under
// congest_sim — the full ledger must be bit-identical to the solo session;
// any mismatch exits nonzero, so a clean exit IS the differential gate.
//
// Wall-clock caveat: the checked-in JSON comes from a 1-CPU container (see
// "hardware_concurrency" in meta), where coordinator and workers share one
// core — sharded latency reads as pure overhead there (serialization +
// frame round-trips + redundant control-plane replication), not as a
// speedup. The wire-footprint columns and the bit-identity gate are
// schedule-independent; treat the *_seconds columns as loopback protocol
// cost, not scaling data.

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "core/api/session.hpp"
#include "graph/generators.hpp"
#include "shard/coordinator.hpp"
#include "shard/launch.hpp"

namespace {

using namespace dcl;

constexpr int kShardCounts[] = {1, 2, 4};

struct cell {
  std::string engine;
  int shards = 0;
  int p = 0;
  double bind_seconds = 0.0;
  double query_seconds = 0.0;
  double solo_seconds = 0.0;
  std::int64_t cliques = 0;
  std::int64_t wire_frames = 0;
  std::int64_t wire_bytes = 0;
  std::int64_t wire_flushes = 0;
  bool identical = false;
};

void emit_cell(std::ostringstream& js, bool& first, const cell& c) {
  js << (first ? "" : ",") << "\n    {\"engine\": \"" << c.engine
     << "\", \"shards\": " << c.shards << ", \"p\": " << c.p
     << ", \"bind_seconds\": " << c.bind_seconds
     << ", \"query_seconds\": " << c.query_seconds
     << ", \"solo_seconds\": " << c.solo_seconds
     << ", \"cliques\": " << c.cliques
     << ", \"wire_frames\": " << c.wire_frames
     << ", \"wire_bytes\": " << c.wire_bytes
     << ", \"wire_flushes\": " << c.wire_flushes << ", \"identical\": "
     << (c.identical ? "true" : "false") << "}";
  first = false;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::vector<std::string> pos;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke")
      smoke = true;
    else
      pos.push_back(argv[i]);
  }
  const std::string out_path =
      pos.empty() ? bench::default_json_path("shard", smoke) : pos[0];

  const vertex n = smoke ? 120 : 600;
  const double prob = smoke ? 0.15 : 0.05;
  const graph g = gen::gnp(n, prob, 7);
  const std::vector<int> arities = smoke ? std::vector<int>{3}
                                         : std::vector<int>{3, 4};

  std::ostringstream js;
  js << "{\n  \"benchmark\": \"shard\",\n  " << bench::meta_json() << ",\n"
     << "  \"graph\": {\"family\": \"gnp\", \"n\": " << n
     << ", \"prob\": " << prob << "},\n  \"shards_swept\": [1, 2, 4],\n"
     << "  \"results\": [";
  bool first = true;
  bool all_identical = true;

  for (const auto engine :
       {listing_engine::congest_sim, listing_engine::local_kclist}) {
    session_options sopt;
    sopt.engine = engine;
    // Forked children must not inherit pool threads; one worker thread per
    // process is also the honest 1-CPU configuration.
    sopt.threads = 1;
    listing_session solo(g, sopt);
    for (const int p : arities) {
      listing_query q;
      q.p = p;
      const double solo_seconds =
          bench::best_seconds([&] { solo.run(q); });
      const query_result want = solo.run(q);
      for (const int shards : kShardCounts) {
        cell c;
        c.engine = engine == listing_engine::congest_sim ? "congest_sim"
                                                         : "local_kclist";
        c.shards = shards;
        c.p = p;
        c.solo_seconds = solo_seconds;

        auto workers = shard::launch_fork_workers(shards);
        shard::shard_options opt;
        opt.partitioner.scheme = shard::partition_scheme::hashed;
        opt.partitioner.seed = 17;
        opt.worker_session = sopt;
        const double t0 = bench::now_seconds();
        shard::shard_coordinator coord(g, shard::take_links(workers), opt);
        c.bind_seconds = bench::now_seconds() - t0;
        c.query_seconds = bench::best_seconds([&] { coord.run(q); });
        const query_result got = coord.run(q);
        c.cliques = got.count;
        c.identical =
            got.cliques == want.cliques && got.count == want.count &&
            (engine != listing_engine::congest_sim ||
             (got.report.ledger == want.report.ledger &&
              got.report.levels == want.report.levels &&
              got.report.emitted == want.report.emitted &&
              got.report.duplicates == want.report.duplicates));
        all_identical = all_identical && c.identical;
        for (const auto& s : coord.worker_stats()) {
          c.wire_frames += s.wire.frames_sent;
          c.wire_bytes += s.wire.bytes_sent;
          c.wire_flushes += s.wire.flushes;
        }
        coord.shutdown();
        for (auto& w : workers)
          if (shard::wait_worker(w) != 0) all_identical = false;
        emit_cell(js, first, c);
      }
    }
  }
  js << "\n  ],\n  \"all_identical\": "
     << (all_identical ? "true" : "false") << "\n}\n";

  const int rc = bench::emit_json(out_path, js.str());
  if (rc != 0) return rc;
  if (!all_identical) {
    std::cerr << "bench_shard: GATE FAILED: a sharded run diverged from "
                 "the single-process session (see \"identical\" cells)\n";
    return 3;
  }
  return 0;
}
