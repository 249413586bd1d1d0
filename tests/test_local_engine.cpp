// Shared-memory kClist engine (src/local/) behind listing_session:
// orientation invariants, and the engine's output cross-checked against the
// sequential enumerator and the CONGEST simulation on random, Kneser, and
// planted-clique inputs.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/api/session.hpp"
#include "graph/clique_enum.hpp"
#include "graph/generators.hpp"
#include "local/parallel.hpp"

namespace dcl {
namespace {

using enumkernel::orientation_policy;

// ---------------------------------------------------------------------------
// Orientation.

TEST(Orient, KeepsEveryEdgeExactlyOnceRankForward) {
  const auto g = gen::gnp(120, 0.1, 3);
  for (const auto policy :
       {orientation_policy::degeneracy, orientation_policy::degree}) {
    const auto d = enumkernel::orient(g, policy);
    EXPECT_EQ(d.num_arcs(), g.num_edges());
    std::int64_t arcs = 0;
    for (vertex v = 0; v < g.num_vertices(); ++v) {
      auto out = d.out_neighbors(v);
      EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
      for (const vertex w : out) {
        EXPECT_LT(d.rank[size_t(v)], d.rank[size_t(w)]);
        EXPECT_TRUE(g.has_edge(v, w));
        ++arcs;
      }
    }
    EXPECT_EQ(arcs, g.num_edges());
  }
}

TEST(Orient, DegeneracyBoundsOutDegree) {
  // K_n has degeneracy n-1; ring-of-cliques of K6 blocks has degeneracy 5.
  EXPECT_EQ(enumkernel::orient(gen::complete(9), orientation_policy::degeneracy)
                .max_out_degree,
            8);
  EXPECT_EQ(enumkernel::orient(gen::ring_of_cliques(4, 6),
                               orientation_policy::degeneracy)
                .max_out_degree,
            5);
}

TEST(Orient, SessionBindsTheSameDag) {
  // The local session orients once at bind time; its DAG carries the same
  // degeneracy bound and one arc per edge.
  const auto g = gen::ring_of_cliques(4, 6);
  listing_session s(g, {.engine = listing_engine::local_kclist});
  EXPECT_EQ(s.bound_dag().max_out_degree, 5);
  EXPECT_EQ(s.bound_dag().num_arcs(), g.num_edges());
  // Under congest_sim no DAG is built.
  listing_session c(g);
  EXPECT_EQ(c.bound_dag().num_arcs(), 0);
}

TEST(Orient, CoreNumbers) {
  // Triangle with a pendant: triangle vertices have core 2, pendant core 1.
  const graph g(4, {{0, 1}, {0, 2}, {1, 2}, {2, 3}});
  const auto core = enumkernel::core_numbers(g);
  EXPECT_EQ(core[0], 2);
  EXPECT_EQ(core[1], 2);
  EXPECT_EQ(core[2], 2);
  EXPECT_EQ(core[3], 1);
}

// ---------------------------------------------------------------------------
// Engine vs sequential ground truth.

query_result run_local(const graph& g, int p, sink_mode mode,
                       const session_options& base = {}) {
  session_options sopt = base;
  sopt.engine = listing_engine::local_kclist;
  listing_session s(g, sopt);
  listing_query q;
  q.p = p;
  q.mode = mode;
  return s.run(q);
}

void expect_matches_sequential(const graph& g, int p,
                               const session_options& base = {}) {
  const auto want = collect_cliques(g, p);
  const auto got = run_local(g, p, sink_mode::collect, base);
  EXPECT_TRUE(got.cliques == want) << "p=" << p << ": got "
                                   << got.cliques.size() << " expected "
                                   << want.size();
  EXPECT_EQ(got.report.emitted, want.size());
  EXPECT_EQ(got.report.duplicates, 0);
  EXPECT_EQ(run_local(g, p, sink_mode::count, base).count, want.size());
}

TEST(LocalEngine, MatchesSequentialOnGnp) {
  const auto g = gen::gnp(80, 0.15, 17);
  for (int p = 3; p <= 6; ++p) expect_matches_sequential(g, p);
}

TEST(LocalEngine, MatchesSequentialOnDenseGnp) {
  const auto g = gen::gnp(60, 0.35, 29);
  for (int p = 3; p <= 6; ++p) expect_matches_sequential(g, p);
}

TEST(LocalEngine, MatchesSequentialOnKneser) {
  // K(9, 3): 84 vertices; triangles exist (three disjoint 3-sets), K4 needs
  // 12 > 9 ground elements so there are exactly zero — a sharp cutoff.
  const auto g = gen::kneser(9, 3);
  for (int p = 3; p <= 5; ++p) expect_matches_sequential(g, p);
  EXPECT_GT(count_cliques(g, 3), 0);
  EXPECT_EQ(run_local(g, 4, sink_mode::count).count, 0);
}

TEST(LocalEngine, PetersenIsTriangleFree) {
  EXPECT_EQ(run_local(gen::kneser(5, 2), 3, sink_mode::count).count, 0);
}

TEST(LocalEngine, MatchesSequentialOnPlantedCliques) {
  const auto g = gen::planted_cliques(120, 0.03, 3, 9, 41);
  for (int p = 3; p <= 6; ++p) expect_matches_sequential(g, p);
}

TEST(LocalEngine, DegreeOrientationGivesSameResult) {
  const auto g = gen::power_law(150, 2.3, 10.0, 53);
  session_options sopt;
  sopt.orientation = orientation_policy::degree;
  for (int p = 3; p <= 5; ++p) expect_matches_sequential(g, p, sopt);
}

TEST(LocalEngine, ArbitraryArityBeyondCongestRange) {
  // p = 8 exceeds the CONGEST drivers' 3..6 but the local engine lists it.
  const auto g = gen::planted_cliques(60, 0.02, 1, 10, 7);
  const auto got = run_local(g, 8, sink_mode::collect);
  EXPECT_TRUE(got.cliques == collect_cliques(g, 8));
  EXPECT_GT(got.cliques.size(), 0);
}

TEST(LocalEngine, EmptyAndCliqueFreeGraphs) {
  EXPECT_EQ(run_local(graph(0, {}), 3, sink_mode::collect).cliques.size(), 0);
  EXPECT_EQ(run_local(graph(12, {}), 4, sink_mode::collect).cliques.size(),
            0);
  EXPECT_EQ(run_local(gen::complete_bipartite(6, 7), 3, sink_mode::collect)
                .cliques.size(),
            0);
}

// ---------------------------------------------------------------------------
// Parallel determinism: any thread count and grain gives byte-identical
// output, with zero duplicate emissions.

TEST(LocalEngine, ThreadCountInvariance) {
  const auto g = gen::gnp(140, 0.1, 23);
  for (int p = 3; p <= 5; ++p) {
    for (int threads : {1, 2, 3, 4, 8}) {
      session_options sopt;
      sopt.threads = threads;
      sopt.grain = 16;
      expect_matches_sequential(g, p, sopt);
    }
  }
}

TEST(LocalEngine, PerThreadRootsCoverEveryArc) {
  // The parallel driver's accounting: every DAG arc roots exactly one
  // egonet, and the per-thread clique counts sum to the result, for both
  // the listing path and its counting twin.
  const auto g = gen::gnp(140, 0.1, 23);
  const auto d = enumkernel::orient(g, orientation_policy::degeneracy);
  for (int threads : {1, 3, 8}) {
    runtime::thread_pool pool(threads);
    runtime::query_scratch scratch;
    for (int p = 3; p <= 5; ++p) {
      local::parallel_listing_stats ls, cs;
      const auto got =
          local::list_cliques_parallel(d, p, pool, scratch, 16, &ls);
      const auto cnt =
          local::count_cliques_parallel(d, p, pool, scratch, 16, &cs);
      EXPECT_EQ(cnt, got.size());
      for (const auto* st : {&ls, &cs}) {
        EXPECT_EQ(st->threads, threads);
        EXPECT_EQ(st->roots, d.num_arcs());
        std::int64_t roots = 0, cliques = 0;
        for (const auto r : st->per_thread_roots) roots += r;
        for (const auto c : st->per_thread_cliques) cliques += c;
        EXPECT_EQ(roots, d.num_arcs()) << "p=" << p << " t=" << threads;
        EXPECT_EQ(cliques, got.size()) << "p=" << p << " t=" << threads;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Backend integration: a local_kclist session must be byte-identical to the
// CONGEST simulation.

void expect_backends_agree(const graph& g, int p) {
  listing_query q;
  q.p = p;
  listing_session congest(g);
  const auto sim = congest.run(q);

  listing_session local(g, {.engine = listing_engine::local_kclist,
                            .threads = 3});
  const auto fast = local.run(q);

  EXPECT_TRUE(sim.cliques == fast.cliques)
      << "p=" << p << ": congest " << sim.cliques.size() << " vs local "
      << fast.cliques.size();
  EXPECT_EQ(fast.report.duplicates, 0);
  EXPECT_EQ(fast.report.emitted, fast.cliques.size());
}

TEST(BackendAgreement, GnpAllArities) {
  const auto g = gen::gnp(70, 0.12, 31);
  for (int p = 3; p <= 6; ++p) expect_backends_agree(g, p);
}

TEST(BackendAgreement, Kneser) {
  expect_backends_agree(gen::kneser(9, 3), 3);
  expect_backends_agree(gen::kneser(8, 2), 4);
}

TEST(BackendAgreement, PlantedCliques) {
  const auto g = gen::planted_cliques(90, 0.02, 2, 8, 61);
  for (int p = 3; p <= 6; ++p) expect_backends_agree(g, p);
}

// ---------------------------------------------------------------------------
// Generator sanity for the new family.

TEST(Kneser, PetersenShape) {
  const auto g = gen::kneser(5, 2);  // Petersen: 10 vertices, 15 edges
  EXPECT_EQ(g.num_vertices(), 10);
  EXPECT_EQ(g.num_edges(), 15);
  for (vertex v = 0; v < g.num_vertices(); ++v) EXPECT_EQ(g.degree(v), 3);
}

TEST(Kneser, CompleteWhenKIsOne) {
  const auto g = gen::kneser(6, 1);  // K(6,1) = K6
  EXPECT_EQ(g.num_vertices(), 6);
  EXPECT_EQ(g.num_edges(), 15);
}

}  // namespace
}  // namespace dcl
