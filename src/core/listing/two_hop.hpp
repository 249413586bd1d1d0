#pragma once
// Lemma 35 / Lemma 41: exhaustive listing around low-degree vertices.
// A vertex v with deg(v) <= alpha learns its induced 2-hop neighborhood in
// O(alpha) rounds: it ships N(v) along every incident edge and each
// neighbor u replies with N(u) ∩ N(v). Since all other vertices of a clique
// containing v lie in N(v), this lists *every* p-clique through v.

#include <span>
#include <string_view>

#include "congest/network.hpp"
#include "core/listing/collector.hpp"
#include "enumkernel/limits.hpp"

namespace dcl::runtime {
class scratch_arena;
class query_scratch;
class thread_pool;
}  // namespace dcl::runtime

namespace dcl {

struct two_hop_stats {
  std::int64_t rounds = 0;
  std::int64_t messages = 0;
  std::int64_t max_degree_seen = 0;
};

/// Lists all p-cliques of `g` containing at least one target vertex. Every
/// target must have degree at most `alpha` (checked). Costs are charged to
/// the network ledger under `phase` in one charge; all targets proceed in
/// parallel, so the round cost is the max per-directed-edge load of the two
/// exchanges. Each clique is emitted exactly once, by its minimum-id target
/// member, as an ascending tuple, in target order. If `id_map` is
/// non-empty, emitted vertex ids are translated through it (used when g is
/// a cluster-local subgraph). The per-target local listing runs on the
/// shared enumeration kernel; passing the worker's runtime `arena` keys a
/// persistent workspace (kernel scratch, learned-edge buffers) there,
/// making the per-target enumerations allocation-free across clusters — a
/// call-local workspace is used otherwise. Runs on the calling thread, so
/// it is safe inside a pool task.
two_hop_stats two_hop_listing(
    network& net, const graph& g, std::span<const vertex> targets,
    std::int64_t alpha, int p, clique_collector& out, std::string_view phase,
    std::span<const vertex> id_map = {},
    runtime::scratch_arena* arena = nullptr,
    enumkernel::kernel_mode kmode = enumkernel::kernel_mode::auto_select,
    simd_mode smode = simd_mode::auto_select);

/// The same sweep on `pool`: the targets are split into a few contiguous
/// chunks per worker, each chunk runs on its worker's arena in `scratch`,
/// and the chunk results fold in chunk order (max of each exchange's load,
/// sum of messages, tuples concatenated). The charge, the ledger, the trace
/// and the emitted tuples are identical to the inline sweep for every pool
/// size. Must not be called from inside a pool task (the pool is not
/// reentrant).
two_hop_stats two_hop_listing(
    network& net, const graph& g, std::span<const vertex> targets,
    std::int64_t alpha, int p, clique_collector& out, std::string_view phase,
    runtime::thread_pool& pool, runtime::query_scratch& scratch,
    enumkernel::kernel_mode kmode = enumkernel::kernel_mode::auto_select,
    simd_mode smode = simd_mode::auto_select);

}  // namespace dcl
