#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/api/session.hpp"
#include "core/listing/two_hop.hpp"
#include "graph/generators.hpp"
#include "runtime/thread_pool.hpp"
#include "support/check.hpp"

namespace dcl {
namespace {

query_result run_congest(const graph& g, const listing_query& q) {
  return listing_session(g).run(q);
}

listing_report expect_exact(const graph& g, const listing_query& q) {
  query_result got = run_congest(g, q);
  const auto want = collect_cliques(g, 3);
  EXPECT_TRUE(got.cliques == want) << "listed " << got.cliques.size()
                                   << " triangles, expected " << want.size();
  return std::move(got.report);
}

TEST(TwoHop, ListsAllCliquesThroughTargets) {
  const auto g = gen::gnp(60, 0.25, 3);
  // All vertices as targets => all triangles listed.
  std::vector<vertex> targets;
  std::int64_t alpha = 0;
  for (vertex v = 0; v < g.num_vertices(); ++v) {
    targets.push_back(v);
    alpha = std::max<std::int64_t>(alpha, g.degree(v));
  }
  cost_ledger ledger;
  network net(g, ledger);
  clique_collector out(3);
  const auto stats =
      two_hop_listing(net, g, targets, alpha, 3, out, "th");
  EXPECT_GT(stats.rounds, 0);
  EXPECT_EQ(ledger.rounds(), stats.rounds);
  EXPECT_TRUE(out.finalize() == collect_cliques(g, 3));
}

TEST(TwoHop, RespectsAlphaPrecondition) {
  const auto g = gen::complete(10);
  cost_ledger ledger;
  network net(g, ledger);
  clique_collector out(3);
  std::vector<vertex> targets{0};
  EXPECT_THROW(two_hop_listing(net, g, targets, 3, 3, out, "th"),
               precondition_error);
}

TEST(TwoHop, K4ThroughTargets) {
  const auto g = gen::planted_cliques(50, 0.05, 2, 5, 7);
  std::vector<vertex> targets;
  std::int64_t alpha = 0;
  for (vertex v = 0; v < g.num_vertices(); ++v) {
    targets.push_back(v);
    alpha = std::max<std::int64_t>(alpha, g.degree(v));
  }
  cost_ledger ledger;
  network net(g, ledger);
  clique_collector out(3 + 1);
  two_hop_listing(net, g, targets, alpha, 4, out, "th");
  EXPECT_TRUE(out.finalize() == collect_cliques(g, 4));
}

TEST(TwoHop, EmitsEachCliqueOnceOnEveryPoolSize) {
  // Every vertex a target: each clique contains up to p targets, and the
  // min-target rule must still emit it exactly once — the K_p driver feeds
  // these tuples into the query's fold without a dedup of their own. The
  // pooled sweep must reproduce the inline one's charge and tuple stream
  // (order included) at every pool size, also with fewer targets than
  // chunks.
  const graph graphs[] = {gen::gnp(60, 0.3, 3),
                          gen::planted_cliques(50, 0.05, 2, 6, 7),
                          gen::complete(7)};
  for (const auto& g : graphs) {
    std::vector<vertex> targets;
    std::int64_t alpha = 0;
    for (vertex v = 0; v < g.num_vertices(); ++v) {
      targets.push_back(v);
      alpha = std::max<std::int64_t>(alpha, g.degree(v));
    }
    for (int p = 3; p <= 5; ++p) {
      cost_ledger want_ledger;
      network want_net(g, want_ledger);
      clique_collector want(p);
      const auto want_stats =
          two_hop_listing(want_net, g, targets, alpha, p, want, "th");
      const std::vector<vertex> want_raw(want.raw_view().begin(),
                                         want.raw_view().end());
      const std::int64_t emitted = want.emitted();
      EXPECT_TRUE(want.finalize() == collect_cliques(g, p)) << "p=" << p;
      EXPECT_EQ(want.duplicates(), 0) << "p=" << p;
      EXPECT_GT(emitted, 0) << "p=" << p;

      for (const int threads : {1, 2, 3, 8}) {
        runtime::thread_pool pool(threads);
        runtime::query_scratch scratch;
        cost_ledger ledger;
        network net(g, ledger);
        clique_collector got(p);
        const auto stats = two_hop_listing(net, g, targets, alpha, p, got,
                                           "th", pool, scratch);
        EXPECT_EQ(stats.rounds, want_stats.rounds) << threads;
        EXPECT_EQ(stats.messages, want_stats.messages) << threads;
        EXPECT_TRUE(ledger == want_ledger) << "p=" << p << " " << threads;
        EXPECT_TRUE(std::equal(got.raw_view().begin(), got.raw_view().end(),
                               want_raw.begin(), want_raw.end()))
            << "p=" << p << " threads=" << threads;
      }
    }
  }
}

TEST(K3Listing, ExactOnGnp) {
  expect_exact(gen::gnp(120, 0.10, 11), {});
  expect_exact(gen::gnp(120, 0.04, 13), {});
}

TEST(K3Listing, ExactOnDenseGnp) { expect_exact(gen::gnp(64, 0.35, 17), {}); }

TEST(K3Listing, ExactOnPlantedPartition) {
  expect_exact(gen::planted_partition(4, 30, 0.4, 0.02, 19), {});
}

TEST(K3Listing, ExactOnRingOfCliques) {
  expect_exact(gen::ring_of_cliques(10, 8), {});
}

TEST(K3Listing, ExactOnPowerLaw) {
  expect_exact(gen::power_law(150, 2.4, 10.0, 23), {});
}

TEST(K3Listing, ExactOnExpanders) {
  expect_exact(gen::hypercube(7), {});  // triangle-free: zero triangles
  expect_exact(gen::circulant(90, {1, 2, 5}), {});
}

TEST(K3Listing, ExactOnTriangleFreeBipartite) {
  expect_exact(gen::complete_bipartite(20, 25), {});
}

TEST(K3Listing, ExactOnTinyAndEmpty) {
  expect_exact(graph(5, {}), {});
  expect_exact(gen::complete(3), {});
  expect_exact(gen::complete(12), {});
}

TEST(K3Listing, RandomizedEngineExact) {
  listing_query opt;
  opt.lb = lb_engine::randomized;
  opt.seed = 99;
  expect_exact(gen::gnp(100, 0.12, 29), opt);
  expect_exact(gen::power_law(120, 2.4, 9.0, 31), opt);
}

TEST(K3Listing, UnbalancedEngineExact) {
  listing_query opt;
  opt.lb = lb_engine::unbalanced;
  expect_exact(gen::gnp(100, 0.12, 37), opt);
  expect_exact(gen::power_law(120, 2.4, 9.0, 41), opt);
}

TEST(K3Listing, ReportIspopulated) {
  const auto g = gen::gnp(150, 0.08, 43);
  const auto rep = expect_exact(g, {});
  EXPECT_GT(rep.ledger.rounds(), 0);
  EXPECT_GT(rep.model_decomposition_rounds, 0);
  EXPECT_FALSE(rep.levels.empty());
  EXPECT_GE(rep.emitted, rep.duplicates);
  // Level 0 retires a solid fraction of edges (Lemma 8 behaviour).
  EXPECT_GT(rep.levels[0].edges_removed, 0);
}

TEST(K3Listing, LogarithmicLevels) {
  const auto g = gen::gnp(200, 0.06, 47);
  const auto rep = run_congest(g, {}).report;
  EXPECT_LE(int(rep.levels.size()), 30);
  EXPECT_FALSE(rep.used_fallback);
}

TEST(K3Listing, DeterministicTranscript) {
  const auto g = gen::gnp(110, 0.09, 53);
  const auto ra = run_congest(g, {});
  const auto rb = run_congest(g, {});
  EXPECT_TRUE(ra.cliques == rb.cliques);
  const auto& a = ra.report;
  const auto& b = rb.report;
  EXPECT_EQ(a.ledger.rounds(), b.ledger.rounds());
  EXPECT_EQ(a.ledger.messages(), b.ledger.messages());
  EXPECT_EQ(a.emitted, b.emitted);
}

TEST(K3Listing, EngineRoundsDifferOnSkewedInputs) {
  // The deterministic tree must track the randomized baseline far better
  // than the unbalanced id-range split on skewed degree distributions.
  const auto g = gen::power_law(200, 2.2, 14.0, 59);
  listing_query o_det, o_unb;
  o_unb.lb = lb_engine::unbalanced;
  const auto det = run_congest(g, o_det).report;
  const auto unb = run_congest(g, o_unb).report;
  // Not a strict theorem at this scale, but the unbalanced engine should
  // not beat the balanced one by more than noise.
  EXPECT_GE(unb.ledger.rounds() * 2, det.ledger.rounds());
}

}  // namespace
}  // namespace dcl
