#include <gtest/gtest.h>

#include "core/api/session.hpp"
#include "graph/generators.hpp"
#include "support/check.hpp"

namespace dcl {
namespace {

listing_report expect_exact_kp(const graph& g, int p,
                               listing_query opt = {}) {
  opt.p = p;
  query_result got = listing_session(g).run(opt);
  const auto want = collect_cliques(g, p);
  EXPECT_TRUE(got.cliques == want) << "p=" << p << ": listed "
                                   << got.cliques.size() << ", expected "
                                   << want.size();
  return std::move(got.report);
}

TEST(KpListing, K4ExactOnGnp) {
  expect_exact_kp(gen::gnp(90, 0.15, 3), 4);
  expect_exact_kp(gen::gnp(120, 0.08, 5), 4);
}

TEST(KpListing, K4ExactOnPlantedCliques) {
  expect_exact_kp(gen::planted_cliques(100, 0.05, 3, 6, 7), 4);
}

TEST(KpListing, K4ExactOnPlantedPartition) {
  expect_exact_kp(gen::planted_partition(3, 30, 0.4, 0.03, 11), 4);
}

TEST(KpListing, K4ExactOnRingOfCliques) {
  expect_exact_kp(gen::ring_of_cliques(8, 7), 4);
}

TEST(KpListing, K4ExactOnPowerLaw) {
  expect_exact_kp(gen::power_law(110, 2.4, 10.0, 13), 4);
}

TEST(KpListing, K4ExactOnK4FreeGraphs) {
  expect_exact_kp(gen::complete_bipartite(15, 15), 4);  // zero K4s
  expect_exact_kp(gen::hypercube(6), 4);
}

TEST(KpListing, K4DenseExercisesSplitTrees) {
  // Average degree well above the V− threshold 2*sqrt(n), so clusters have
  // nonempty V−_C with outside vertices — the full §6 pipeline (delivery,
  // Theorem 31, split trees, Lemma 37) runs.
  const auto rep = expect_exact_kp(gen::gnp(120, 0.35, 97), 4);
  expect_exact_kp(gen::planted_partition(2, 45, 0.6, 0.05, 101), 4);
}

TEST(KpListing, K4DenseRandomizedEngine) {
  listing_query opt;
  opt.lb = lb_engine::randomized;
  opt.seed = 11;
  expect_exact_kp(gen::gnp(110, 0.35, 103), 4, opt);
}

TEST(KpListing, K5DenseExercisesSplitTrees) {
  expect_exact_kp(gen::gnp(90, 0.4, 107), 5);
}

TEST(KpListing, K5ExactOnGnp) {
  expect_exact_kp(gen::gnp(70, 0.2, 17), 5);
}

TEST(KpListing, K5ExactOnPlantedCliques) {
  expect_exact_kp(gen::planted_cliques(80, 0.04, 2, 7, 19), 5);
}

TEST(KpListing, K6ExactSmall) {
  expect_exact_kp(gen::gnp(50, 0.3, 23), 6);
}

TEST(KpListing, DenseCompleteGraph) {
  expect_exact_kp(gen::complete(14), 4);
  expect_exact_kp(gen::complete(12), 5);
}

TEST(KpListing, EmptyAndTiny) {
  expect_exact_kp(graph(6, {}), 4);
  expect_exact_kp(gen::complete(4), 4);
  expect_exact_kp(gen::complete(5), 5);
}

TEST(KpListing, RandomizedEngineExact) {
  listing_query opt;
  opt.lb = lb_engine::randomized;
  opt.seed = 5;
  expect_exact_kp(gen::gnp(90, 0.12, 29), 4, opt);
}

TEST(KpListing, UnbalancedEngineExact) {
  listing_query opt;
  opt.lb = lb_engine::unbalanced;
  expect_exact_kp(gen::gnp(90, 0.12, 31), 4, opt);
}

TEST(KpListing, ReportPopulated) {
  const auto rep = expect_exact_kp(gen::gnp(110, 0.1, 37), 4);
  EXPECT_GT(rep.ledger.rounds(), 0);
  EXPECT_GT(rep.model_decomposition_rounds, 0);
  EXPECT_FALSE(rep.levels.empty());
}

TEST(KpListing, DeterministicTranscript) {
  const auto g = gen::gnp(80, 0.13, 41);
  listing_query opt;
  opt.p = 4;
  listing_session session(g);
  const auto ra = session.run(opt);
  const auto rb = session.run(opt);
  EXPECT_TRUE(ra.cliques == rb.cliques);
  EXPECT_EQ(ra.report.ledger.rounds(), rb.report.ledger.rounds());
  EXPECT_EQ(ra.report.ledger.messages(), rb.report.ledger.messages());
}

TEST(SessionApi, RoutesByP) {
  const auto g = gen::gnp(60, 0.2, 43);
  listing_session session(g);
  listing_query q;
  for (int p = 3; p <= 5; ++p) {
    q.p = p;
    const auto res = session.run(q);
    EXPECT_TRUE(res.cliques == collect_cliques(g, p)) << "p=" << p;
    EXPECT_GT(res.report.ledger.rounds(), 0);
  }
  q.p = 9;
  EXPECT_THROW(session.run(q), precondition_error);
}

}  // namespace
}  // namespace dcl
