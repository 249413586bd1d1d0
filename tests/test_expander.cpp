#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>

#include "expander/anatomy.hpp"
#include "expander/cost_model.hpp"
#include "expander/decomposition.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/spectral.hpp"
#include "support/check.hpp"

namespace dcl {
namespace {

void check_decomposition_invariants(const graph& g,
                                    const expander_decomposition& d,
                                    double epsilon) {
  // Edge partition: every edge in exactly one cluster or remainder.
  std::int64_t covered = std::int64_t(d.remainder.size());
  std::set<vertex> seen;
  for (const auto& c : d.clusters) {
    covered += std::int64_t(c.edges.size());
    for (vertex v : c.vertices) EXPECT_TRUE(seen.insert(v).second);
    // Cluster edges are induced: endpoints inside the cluster.
    std::set<vertex> vs(c.vertices.begin(), c.vertices.end());
    for (const auto& e : c.edges) {
      EXPECT_TRUE(vs.count(e.u));
      EXPECT_TRUE(vs.count(e.v));
      EXPECT_TRUE(g.has_edge(e.u, e.v));
    }
    // Certificate meets the target.
    EXPECT_GE(c.certified_phi, d.phi_used);
  }
  EXPECT_EQ(covered, g.num_edges());
  EXPECT_LE(double(d.remainder.size()), epsilon * double(g.num_edges()) + 1e-9);
}

TEST(Decomposition, PlantedPartitionRecoversBlocks) {
  const auto g = gen::planted_partition(4, 24, 0.5, 0.005, 7);
  decomposition_options opt;
  opt.epsilon = 1.0 / 6.0;
  const auto d = decompose(g, opt);
  check_decomposition_invariants(g, d, opt.epsilon);
  // Expect roughly the four planted blocks to become clusters.
  EXPECT_GE(d.clusters.size(), 3u);
  EXPECT_LE(d.clusters.size(), 8u);
}

TEST(Decomposition, ExpanderStaysWhole) {
  const auto g = gen::hypercube(7);
  const auto d = decompose(g);
  check_decomposition_invariants(g, d, 1.0 / 18.0);
  EXPECT_EQ(d.clusters.size(), 1u);
  EXPECT_TRUE(d.remainder.empty());
}

TEST(Decomposition, CompleteGraphSingleCluster) {
  const auto g = gen::complete(32);
  const auto d = decompose(g);
  EXPECT_EQ(d.clusters.size(), 1u);
  EXPECT_GT(d.clusters[0].certified_phi, 0.3);
}

TEST(Decomposition, RingOfCliquesSplits) {
  const auto g = gen::ring_of_cliques(8, 8);
  decomposition_options opt;
  opt.epsilon = 0.25;
  const auto d = decompose(g, opt);
  check_decomposition_invariants(g, d, opt.epsilon);
  EXPECT_GE(d.clusters.size(), 4u);  // the K8 blocks must separate
}

TEST(Decomposition, GnpSparseRemainderBounded) {
  const auto g = gen::gnp(300, 0.03, 11);
  decomposition_options opt;
  opt.epsilon = 1.0 / 18.0;
  const auto d = decompose(g, opt);
  check_decomposition_invariants(g, d, opt.epsilon);
}

TEST(Decomposition, PowerLawRemainderBounded) {
  const auto g = gen::power_law(300, 2.5, 10.0, 13);
  decomposition_options opt;
  opt.epsilon = 1.0 / 12.0;
  const auto d = decompose(g, opt);
  check_decomposition_invariants(g, d, opt.epsilon);
}

TEST(Decomposition, EmptyAndTinyGraphs) {
  const graph empty(5, {});
  const auto d = decompose(empty);
  EXPECT_TRUE(d.clusters.empty());
  EXPECT_TRUE(d.remainder.empty());

  const graph single(2, {{0, 1}});
  const auto d2 = decompose(single);
  ASSERT_EQ(d2.clusters.size(), 1u);
  EXPECT_EQ(d2.clusters[0].edges.size(), 1u);
}

TEST(Decomposition, Deterministic) {
  const auto g = gen::gnp(200, 0.05, 99);
  const auto a = decompose(g);
  const auto b = decompose(g);
  ASSERT_EQ(a.clusters.size(), b.clusters.size());
  for (std::size_t i = 0; i < a.clusters.size(); ++i) {
    EXPECT_EQ(a.clusters[i].vertices, b.clusters[i].vertices);
    EXPECT_EQ(a.clusters[i].edges, b.clusters[i].edges);
  }
  EXPECT_EQ(a.remainder, b.remainder);
}

// FNV-1a over 64-bit words: a compact fingerprint of a decomposition.
struct fingerprint {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void add(double x) { add(std::bit_cast<std::uint64_t>(x)); }
};

struct pinned_decomposition {
  std::size_t clusters, remainder;
  std::uint64_t vertex_sets, spectra, remainder_edges, embedding;
  std::uint64_t nu2_bits;
  int iterations;
};

void expect_pinned(const graph& g, const pinned_decomposition& want) {
  const auto d = decompose(g);
  fingerprint sets, spectra, rem, emb;
  for (const auto& c : d.clusters) {
    sets.add(std::uint64_t(c.vertices.size()));
    for (const vertex v : c.vertices) sets.add(std::uint64_t(v));
    spectra.add(c.lambda2);
    spectra.add(c.mixing_time);
  }
  for (const auto& e : d.remainder) {
    rem.add(std::uint64_t(e.u));
    rem.add(std::uint64_t(e.v));
  }
  const auto s = second_eigen(g);
  for (const double x : s.embedding) emb.add(x);
  EXPECT_EQ(d.clusters.size(), want.clusters);
  EXPECT_EQ(d.remainder.size(), want.remainder);
  EXPECT_EQ(sets.h, want.vertex_sets);
  EXPECT_EQ(spectra.h, want.spectra);
  EXPECT_EQ(rem.h, want.remainder_edges);
  EXPECT_EQ(emb.h, want.embedding);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(s.nu2), want.nu2_bits);
  EXPECT_EQ(s.iterations, want.iterations);
}

TEST(Decomposition, PinnedOnBenchmarkGraphs) {
  // The benchmark's two CONGEST graphs, decomposed with the default options:
  // cluster vertex sets, the bit patterns of every cluster's lambda2 and
  // mixing time, the remainder and the whole-graph power iteration's
  // embedding, as computed before second_eigen hoisted the D^{-1/2} scaling
  // out of its arc loop. The hoist keeps every division and the summation
  // order, so these must not move. The floating-point bits are those of
  // x86-64 (SSE2, no FMA contraction) with glibc's libm.
#if !defined(__x86_64__)
  GTEST_SKIP() << "bit patterns pinned for x86-64 only";
#endif
  expect_pinned(gen::ring_of_cliques(16, 20),
                {16, 16, 0x43abd564093236fbull, 0x3ccb1dbf273fa2c3ull,
                 0xd4b06e91d3b84b83ull, 0x23068c13c8f5b66dull,
                 0x3feffb956eb2ce8cull, 2505});
  expect_pinned(gen::planted_partition(5, 50, 0.6, 0.003, 23),
                {5, 63, 0xdf4aeff1935ec470ull, 0x0d0903c1f1c0b3ccull,
                 0x134bd7f9718da9f1ull, 0x790eb940d45fd003ull,
                 0x3fef837d9fb79fc2ull, 2416});
}

TEST(Decomposition, ClustersAreConnected) {
  const auto g = gen::gnp(150, 0.04, 21);
  const auto d = decompose(g);
  for (const auto& c : d.clusters) {
    const auto sub = induce_by_edges(g, c.edges);
    EXPECT_EQ(connected_components(sub.g).count, 1);
  }
}

TEST(CostModel, MonotoneInN) {
  EXPECT_LT(cs20_decomposition_rounds(100, 0.1),
            cs20_decomposition_rounds(100000, 0.1));
  EXPECT_LT(cs20_decomposition_rounds(1000, 0.5),
            cs20_decomposition_rounds(1000, 0.05));
  EXPECT_EQ(cs20_decomposition_rounds(1, 0.1), 0);
}

TEST(CostModel, RoutingScalesWithLoad) {
  EXPECT_EQ(cs20_routing_rounds(0, 0.1, 1000), 0);
  EXPECT_LT(cs20_routing_rounds(10, 0.1, 1000),
            cs20_routing_rounds(100, 0.1, 1000));
  EXPECT_LT(cs20_routing_rounds(10, 0.5, 1000),
            cs20_routing_rounds(10, 0.05, 1000));
}

TEST(CostModel, RoutingMonotoneOverSweep) {
  // Non-decreasing in load at fixed (phi, n), non-increasing in phi at
  // fixed (load, n), non-decreasing in n at fixed (load, phi) — the three
  // partial monotonicities the replay models and the bench fit rely on.
  for (std::int64_t load = 1; load <= 1024; load *= 2)
    EXPECT_LE(cs20_routing_rounds(load, 0.2, 4096),
              cs20_routing_rounds(load * 2, 0.2, 4096))
        << "load=" << load;
  for (double phi = 1.0 / 64; phi < 1.0; phi *= 2)
    EXPECT_GE(cs20_routing_rounds(16, phi, 4096),
              cs20_routing_rounds(16, phi * 2, 4096))
        << "phi=" << phi;
  for (std::int64_t n = 4; n <= 1 << 20; n *= 4)
    EXPECT_LE(cs20_routing_rounds(16, 0.2, n),
              cs20_routing_rounds(16, 0.2, n * 4))
        << "n=" << n;
}

TEST(CostModel, RoutingBoundaryLoads) {
  // Zero load and degenerate id spaces are free; the smallest real batch
  // is not. Exact load-1 value stays >= 1/phi (the closed form's leading
  // factor survives the subpolynomial term and the ceil).
  EXPECT_EQ(cs20_routing_rounds(0, 0.5, 4096), 0);
  EXPECT_EQ(cs20_routing_rounds(5, 0.5, 0), 0);
  EXPECT_EQ(cs20_routing_rounds(5, 0.5, 1), 0);
  EXPECT_GE(cs20_routing_rounds(1, 0.5, 2), 1);
  EXPECT_GE(cs20_routing_rounds(1, 0.01, 4096), 100);
  EXPECT_THROW(cs20_routing_rounds(-1, 0.5, 100), precondition_error);
  EXPECT_THROW(cs20_routing_rounds(5, 0.5, -1), precondition_error);
}

TEST(CostModel, RoutingPhiExtremes) {
  // phi <= 0 is a contract violation, not a zero charge.
  EXPECT_THROW(cs20_routing_rounds(10, 0.0, 1000), precondition_error);
  EXPECT_THROW(cs20_routing_rounds(10, -0.5, 1000), precondition_error);
  // Perfect expander (phi = 1): the charge is exactly load * subpoly(n) —
  // still at least the load itself.
  EXPECT_GE(cs20_routing_rounds(64, 1.0, 4096), 64);
  // Near-zero phi blows up without overflowing to nonsense.
  const auto huge = cs20_routing_rounds(1, 1e-6, 4096);
  EXPECT_GT(huge, 1000000);
  EXPECT_LT(huge, std::int64_t(1) << 60);
  // phi > 1 (super-expander certificates can exceed 1 on multigraph-free
  // inputs) keeps shrinking the charge, never below zero.
  EXPECT_LE(cs20_routing_rounds(64, 2.0, 4096),
            cs20_routing_rounds(64, 1.0, 4096));
  EXPECT_GT(cs20_routing_rounds(64, 2.0, 4096), 0);
}

TEST(CostModel, DecompositionBoundaries) {
  EXPECT_EQ(cs20_decomposition_rounds(0, 0.1), 0);
  EXPECT_EQ(cs20_decomposition_rounds(1, 0.1), 0);
  EXPECT_GE(cs20_decomposition_rounds(2, 0.1), 1);
  for (std::int64_t n = 2; n <= 1 << 20; n *= 4)
    EXPECT_LE(cs20_decomposition_rounds(n, 0.1),
              cs20_decomposition_rounds(n * 4, 0.1));
  EXPECT_THROW(cs20_decomposition_rounds(100, 0.0), precondition_error);
  EXPECT_THROW(cs20_decomposition_rounds(-1, 0.1), precondition_error);
}

TEST(Anatomy, K3ClusterContainsTriangleClosure) {
  const auto g = gen::gnp(120, 0.08, 3);
  const auto d = decompose(g);
  const auto anatomy = build_anatomy(g, d, {.p = 3});
  for (const auto& a : anatomy) {
    // Every triangle with an edge in E− lies fully inside E_C (p = 3).
    std::set<edge> ec(a.e_cluster.begin(), a.e_cluster.end());
    for (const auto& e : a.e_minus) {
      const auto common =
          sorted_intersection(g.neighbors(e.u), g.neighbors(e.v));
      for (vertex w : common) {
        EXPECT_TRUE(ec.count(make_edge(e.u, w)));
        EXPECT_TRUE(ec.count(make_edge(e.v, w)));
      }
    }
  }
}

TEST(Anatomy, VMinusRespectsDelta) {
  const auto g = gen::gnp(150, 0.07, 5);
  const auto d = decompose(g);
  const auto anatomy = build_anatomy(g, d, {.p = 3});
  for (const auto& a : anatomy) {
    for (vertex v : a.v_minus)
      EXPECT_GE(a.comm_degree_of(v), a.delta);
    // V* ⊆ V− ⊆ V_C and V* has at least half-average degree.
    for (vertex v : a.v_star) {
      EXPECT_TRUE(a.in_v_minus(v));
      EXPECT_GE(double(a.comm_degree_of(v)), a.mu / 2.0);
    }
  }
}

TEST(Anatomy, VStarCoversHalfVolume) {
  // E(V*, V_C) >= E(V− \ V*, V_C) — the counting step in Lemma 20's proof.
  const auto g = gen::gnp(200, 0.06, 9);
  const auto d = decompose(g);
  const auto anatomy = build_anatomy(g, d, {.p = 3});
  for (const auto& a : anatomy) {
    if (a.v_minus.empty()) continue;
    std::int64_t star_vol = 0, rest_vol = 0;
    for (vertex v : a.v_minus) {
      if (std::binary_search(a.v_star.begin(), a.v_star.end(), v))
        star_vol += a.comm_degree_of(v);
      else
        rest_vol += a.comm_degree_of(v);
    }
    EXPECT_GE(star_vol, rest_vol);
  }
}

TEST(Anatomy, KpModeUsesOpenEdgesOnly) {
  const auto g = gen::gnp(100, 0.1, 31);
  const auto d = decompose(g);
  const auto anatomy = build_anatomy(g, d, {.p = 4, .beta = 1.0});
  for (const auto& a : anatomy) {
    std::set<vertex> open(a.v_open.begin(), a.v_open.end());
    std::set<edge> original;
    for (const auto& c : d.clusters)
      original.insert(c.edges.begin(), c.edges.end());
    for (const auto& e : a.e_cluster) {
      const bool in_orig = original.count(e) > 0;
      const bool both_open = open.count(e.u) && open.count(e.v);
      EXPECT_TRUE(in_orig || both_open);
    }
    // V− ⊆ V∘ for p >= 4.
    for (vertex v : a.v_minus) EXPECT_TRUE(open.count(v));
  }
}

}  // namespace
}  // namespace dcl
