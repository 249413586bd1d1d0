#include "core/listing/two_hop.hpp"

#include <algorithm>
#include <vector>

#include "enumkernel/kernel.hpp"
#include "runtime/merge.hpp"
#include "runtime/scratch.hpp"
#include "runtime/thread_pool.hpp"
#include "support/check.hpp"

namespace dcl {

namespace {

/// Chunks per pool worker for the pooled sweep: enough that one heavy
/// target range cannot serialize the sweep, few enough that the per-chunk
/// fold stays negligible.
constexpr std::int64_t kChunksPerWorker = 4;

/// Recycled per-worker workspace: kernel scratch plus the learned-edge
/// staging buffers that used to be reallocated per call.
struct two_hop_scratch {
  enumkernel::enum_scratch enum_ws;
  std::vector<vertex> common;
  edge_list learned;
};

/// One contiguous run of targets: its share of the two exchange loads and
/// its tuples (stride p, each ascending, in target order).
struct sweep_part {
  std::int64_t rounds_a = 0;
  std::int64_t rounds_b = 0;
  std::int64_t messages = 0;
  std::vector<vertex> tuples;
};

/// Exchange A: each target v ships N(v) along each incident edge — the
/// load of directed edge (v -> u) is deg(v). Exchange B: u replies with
/// N(u) ∩ N(v) — the load of (u -> v) is the intersection size, and the
/// same intersection is the set of learned edges at u. Loads are exact per
/// edge; the round cost of each exchange is its max load.
///
/// Local listing at each target: p-cliques inside its learned 2-hop set,
/// enumerated on the shared kernel. To avoid emitting the same clique once
/// per contained target, a clique is emitted only by its minimum-id target
/// member.
sweep_part sweep(const graph& g, std::span<const vertex> targets,
                 const std::vector<bool>& is_target, int p,
                 std::span<const vertex> id_map, two_hop_scratch& ws,
                 enumkernel::kernel_mode kmode, simd_mode smode) {
  sweep_part part;
  edge_list& learned = ws.learned;
  for (vertex v : targets) {
    const auto nv = g.neighbors(v);
    part.rounds_a = std::max<std::int64_t>(part.rounds_a, g.degree(v));
    part.messages += std::int64_t(g.degree(v)) * g.degree(v);
    learned.clear();
    for (vertex u : nv) {
      sorted_intersection_into(g.neighbors(u), nv, ws.common, kGallopFactor,
                               smode);
      const auto common = std::int64_t(ws.common.size());
      part.rounds_b = std::max(part.rounds_b, common);
      part.messages += common;
      for (vertex w : ws.common) {
        if (w > u) learned.push_back({u, w});
      }
    }
    enumkernel::enumerate_cliques_in_edges(
        learned, p - 1, ws.enum_ws,
        [&](std::span<const vertex> c) {
          for (vertex u : c)
            if (is_target[size_t(u)] && u < v) return;
          const std::size_t at = part.tuples.size();
          part.tuples.insert(part.tuples.end(), c.begin(), c.end());
          part.tuples.push_back(v);
          const auto t = part.tuples.begin() + std::ptrdiff_t(at);
          if (!id_map.empty())
            for (auto z = t; z != part.tuples.end(); ++z)
              *z = id_map[size_t(*z)];
          std::sort(t, part.tuples.end());
        },
        kmode, smode);
  }
  return part;
}

/// Shared by both entry points: validates the targets, runs the parts via
/// `run_parts(is_target)`, then folds them in part order — one charge, then
/// the tuples.
template <class RunParts>
two_hop_stats fold_sweep(network& net, const graph& g,
                         std::span<const vertex> targets, std::int64_t alpha,
                         int p, clique_collector& out, std::string_view phase,
                         RunParts&& run_parts) {
  DCL_EXPECTS(p >= 3, "clique arity must be at least 3");
  two_hop_stats stats;
  if (targets.empty()) return stats;

  std::vector<bool> is_target(size_t(g.num_vertices()), false);
  for (vertex v : targets) {
    DCL_EXPECTS(g.degree(v) <= alpha,
                "two-hop target exceeds the degree cap alpha");
    is_target[size_t(v)] = true;
    stats.max_degree_seen = std::max<std::int64_t>(stats.max_degree_seen,
                                                   g.degree(v));
  }

  const std::vector<sweep_part> parts = run_parts(is_target);
  std::int64_t rounds_a = 0, rounds_b = 0;
  for (const auto& part : parts) {
    rounds_a = std::max(rounds_a, part.rounds_a);
    rounds_b = std::max(rounds_b, part.rounds_b);
    stats.messages += part.messages;
  }
  // A target may also receive replies over one edge from several phases of
  // its own requests; per-edge both directions are independent in CONGEST.
  stats.rounds = rounds_a + rounds_b;
  net.charge(phase, stats.rounds, stats.messages);
  for (const auto& part : parts)
    out.merge_buffer(part.tuples, /*tuples_presorted=*/true);
  return stats;
}

}  // namespace

two_hop_stats two_hop_listing(network& net, const graph& g,
                              std::span<const vertex> targets,
                              std::int64_t alpha, int p,
                              clique_collector& out, std::string_view phase,
                              std::span<const vertex> id_map,
                              runtime::scratch_arena* arena,
                              enumkernel::kernel_mode kmode,
                              simd_mode smode) {
  DCL_EXPECTS(id_map.empty() || vertex(id_map.size()) == g.num_vertices(),
              "id_map must cover all vertices");
  return fold_sweep(
      net, g, targets, alpha, p, out, phase,
      [&](const std::vector<bool>& is_target) {
        two_hop_scratch local_ws;
        two_hop_scratch& ws =
            arena != nullptr ? arena->get<two_hop_scratch>() : local_ws;
        std::vector<sweep_part> parts;
        parts.push_back(
            sweep(g, targets, is_target, p, id_map, ws, kmode, smode));
        return parts;
      });
}

two_hop_stats two_hop_listing(network& net, const graph& g,
                              std::span<const vertex> targets,
                              std::int64_t alpha, int p,
                              clique_collector& out, std::string_view phase,
                              runtime::thread_pool& pool,
                              runtime::query_scratch& scratch,
                              enumkernel::kernel_mode kmode,
                              simd_mode smode) {
  scratch.ensure_workers(pool.size());
  return fold_sweep(
      net, g, targets, alpha, p, out, phase,
      [&](const std::vector<bool>& is_target) {
        const auto n = std::int64_t(targets.size());
        const std::int64_t chunks =
            std::min(n, kChunksPerWorker * pool.size());
        return runtime::run_indexed<sweep_part>(
            pool, chunks, [&](int worker, std::int64_t c) {
              const std::int64_t begin = c * n / chunks;
              const std::int64_t end = (c + 1) * n / chunks;
              return sweep(g,
                           targets.subspan(size_t(begin), size_t(end - begin)),
                           is_target, p, {},
                           scratch.arena(worker).get<two_hop_scratch>(),
                           kmode, smode);
            });
      });
}

}  // namespace dcl
