#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "graph/clique_enum.hpp"
#include "graph/generators.hpp"
#include "support/check.hpp"
#include "support/prng.hpp"

namespace dcl {
namespace {

// Binomial coefficient for expected counts.
std::int64_t choose(std::int64_t n, std::int64_t k) {
  if (k < 0 || k > n) return 0;
  std::int64_t r = 1;
  for (std::int64_t i = 1; i <= k; ++i) r = r * (n - k + i) / i;
  return r;
}

TEST(CliqueSet, AddNormalizeDedup) {
  clique_set s(3);
  const vertex a[3] = {3, 1, 2};
  const vertex b[3] = {1, 2, 3};
  const vertex c[3] = {4, 5, 6};
  s.add(a);
  s.add(b);
  s.add(c);
  EXPECT_EQ(s.normalize(), 1);  // one duplicate removed
  EXPECT_EQ(s.size(), 2);
  EXPECT_TRUE(s.contains(std::span<const vertex>(a, 3)));
  EXPECT_TRUE(s.contains(std::span<const vertex>(c, 3)));
  const vertex d[3] = {1, 2, 4};
  EXPECT_FALSE(s.contains(std::span<const vertex>(d, 3)));
}

TEST(CliqueSet, TuplesComeOutSorted) {
  clique_set s(3);
  const vertex a[3] = {9, 7, 8};
  s.add(a);
  s.normalize();
  const auto t = s[0];
  EXPECT_EQ(t[0], 7);
  EXPECT_EQ(t[1], 8);
  EXPECT_EQ(t[2], 9);
}

using tuple_list = std::vector<std::vector<vertex>>;

/// normalize() against a std::set oracle: the same canonical tuples in the
/// same order, and the same duplicate count; a second normalize() is a
/// no-op.
void expect_normalize_matches_oracle(int p, const tuple_list& tuples,
                                     const std::string& what) {
  clique_set s(p);
  std::set<std::vector<vertex>> oracle;
  for (auto t : tuples) {
    s.add(t);
    std::sort(t.begin(), t.end());
    oracle.insert(t);
  }
  EXPECT_EQ(s.normalize(),
            std::int64_t(tuples.size()) - std::int64_t(oracle.size()))
      << what;
  ASSERT_EQ(s.size(), std::int64_t(oracle.size())) << what;
  std::int64_t i = 0;
  for (const auto& want : oracle) {
    const auto got = s[i++];
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << what << ": tuple " << i - 1;
  }
  EXPECT_EQ(s.normalize(), 0) << what;
}

/// `count` random p-tuples (any vertex order) over ids in [0, 2^bits),
/// drawn with repetition from a pool of count/2 distinct draws so that
/// duplicates occur; the id 2^bits - 1 is always present, pinning the key
/// width at exactly p·bits.
tuple_list random_tuples(int p, int bits, int count, std::uint64_t seed) {
  prng rng(seed);
  const std::uint64_t top = std::uint64_t(1) << bits;
  tuple_list pool(size_t(count / 2 + 1), std::vector<vertex>(size_t(p)));
  for (auto& t : pool)
    for (auto& v : t) v = vertex(rng.next_below(top));
  pool[0][size_t(p / 2)] = vertex(top - 1);
  tuple_list out{pool[0]};
  for (int i = 1; i < count; ++i)
    out.push_back(pool[size_t(rng.next_below(pool.size()))]);
  return out;
}

TEST(CliqueSet, NormalizeMatchesSetOracleAcrossKeyWidths) {
  // For each arity: ids just narrower than, exactly at, and just wider than
  // the widest that packs into 64 bits — both fold paths. (At p = 2 even
  // 31-bit ids pack, so the wide path is unreachable there.)
  for (const int p : {2, 3, 4, 5, 6, 8, 16}) {
    const int widest_packed = std::min(31, 64 / p);
    for (const int bits :
         {widest_packed - 1, widest_packed, widest_packed + 1}) {
      if (bits > 31) continue;
      for (const int count : {1, 7, 600}) {
        expect_normalize_matches_oracle(
            p, random_tuples(p, bits, count, std::uint64_t(p * 1000 + bits)),
            "p=" + std::to_string(p) + " bits=" + std::to_string(bits) +
                " (p*bits=" + std::to_string(p * bits) +
                ") count=" + std::to_string(count));
      }
    }
  }
}

TEST(CliqueSet, NormalizeEdgeCases) {
  constexpr vertex kMax = std::numeric_limits<vertex>::max();
  {
    clique_set empty(4);
    EXPECT_EQ(empty.normalize(), 0);
    EXPECT_EQ(empty.size(), 0);
  }
  for (const int p : {2, 3, 4}) {
    const std::string at = "p=" + std::to_string(p);
    std::vector<vertex> low(static_cast<std::size_t>(p));
    std::vector<vertex> high(static_cast<std::size_t>(p));
    for (int j = 0; j < p; ++j) {
      low[size_t(j)] = vertex(p - 1 - j);  // includes vertex 0
      high[size_t(j)] = kMax - vertex(j);  // ids near INT32_MAX
    }
    expect_normalize_matches_oracle(p, {low}, at + " single tuple");
    expect_normalize_matches_oracle(p, tuple_list(50, high),
                                    at + " all duplicates near INT32_MAX");
    expect_normalize_matches_oracle(
        p, {std::vector<vertex>(size_t(p), 0)}, at + " all-zero tuple");
    expect_normalize_matches_oracle(p, {high, low, high, low},
                                    at + " vertex 0 and INT32_MAX mixed");
  }
}

TEST(Triangles, CompleteGraphCount) {
  EXPECT_EQ(count_cliques(gen::complete(8), 3), choose(8, 3));
}

TEST(Triangles, BipartiteHasNone) {
  EXPECT_EQ(count_cliques(gen::complete_bipartite(5, 7), 3), 0);
}

TEST(Triangles, KnownSmallGraph) {
  // Triangle 0-1-2 plus triangle 1-2-3 sharing an edge.
  const graph g(4, {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}});
  const auto s = collect_cliques(g, 3);
  EXPECT_EQ(s.size(), 2);
  const vertex t1[3] = {0, 1, 2};
  const vertex t2[3] = {1, 2, 3};
  EXPECT_TRUE(s.contains(std::span<const vertex>(t1, 3)));
  EXPECT_TRUE(s.contains(std::span<const vertex>(t2, 3)));
}

TEST(Triangles, EachEmittedOnceAscending) {
  const auto g = gen::gnp(60, 0.25, 91);
  std::set<std::array<vertex, 3>> seen;
  for_each_triangle(g, [&](vertex u, vertex v, vertex w) {
    EXPECT_LT(u, v);
    EXPECT_LT(v, w);
    EXPECT_TRUE(g.has_edge(u, v));
    EXPECT_TRUE(g.has_edge(u, w));
    EXPECT_TRUE(g.has_edge(v, w));
    EXPECT_TRUE(seen.insert({u, v, w}).second) << "duplicate triangle";
  });
}

TEST(KCliques, CompleteGraphCounts) {
  for (int p = 2; p <= 6; ++p)
    EXPECT_EQ(count_cliques(gen::complete(9), p), choose(9, p)) << "p=" << p;
}

TEST(KCliques, RingOfCliquesK4) {
  // Each K5 block contributes C(5,4) K4s; bridges add none.
  EXPECT_EQ(count_cliques(gen::ring_of_cliques(3, 5), 4), 3 * choose(5, 4));
}

TEST(KCliques, MatchesTriangleSpecialization) {
  const auto g = gen::gnp(50, 0.3, 5);
  clique_set via_p(3);
  for_each_clique(g, 3,
                  [&](std::span<const vertex> c) { via_p.add(c); });
  via_p.normalize();
  EXPECT_EQ(via_p, collect_cliques(g, 3));
}

TEST(KCliques, ValidatesAllEdgesPresent) {
  const auto g = gen::gnp(40, 0.35, 77);
  for_each_clique(g, 4, [&](std::span<const vertex> c) {
    for (std::size_t i = 0; i < c.size(); ++i)
      for (std::size_t j = i + 1; j < c.size(); ++j)
        EXPECT_TRUE(g.has_edge(c[i], c[j]));
  });
}

TEST(KCliques, K5InPlantedClique) {
  const auto g = gen::planted_cliques(80, 0.01, 1, 7, 99);
  // A planted K7 guarantees at least C(7,5) K5s.
  EXPECT_GE(count_cliques(g, 5), choose(7, 5));
}

TEST(CliquesInEdgeSet, MatchesGraphEnumeration) {
  const auto g = gen::gnp(40, 0.3, 13);
  const auto direct = collect_cliques(g, 3);
  const auto via_edges = cliques_in_edge_set(g.edges(), 3);
  EXPECT_EQ(direct, via_edges);
}

TEST(CliquesInEdgeSet, HandlesDuplicatesAndLoops) {
  edge_list edges{{0, 1}, {1, 0}, {1, 2}, {0, 2}, {2, 2}, {0, 1}};
  const auto s = cliques_in_edge_set(edges, 3);
  EXPECT_EQ(s.size(), 1);
}

TEST(CliquesInEdgeSet, EmptyInput) {
  EXPECT_EQ(cliques_in_edge_set({}, 4).size(), 0);
}

TEST(CliquesInEdgeSet, MatchesGraphEnumerationForAllArities) {
  const auto g = gen::gnp(32, 0.4, 17);
  for (int p = 3; p <= 7; ++p) {
    EXPECT_TRUE(collect_cliques(g, p) == cliques_in_edge_set(g.edges(), p))
        << "p=" << p;
  }
}

TEST(CliquesInEdgeSet, SparseHugeIdsAreRemappedDensely) {
  // A K5 living on ids near 2^30: the kernel remaps endpoints densely, so
  // the id magnitude must be irrelevant (the pre-kernel path built a
  // throwaway parent graph with max_id vertices and would not survive
  // this).
  const vertex base = 1 << 30;
  std::vector<vertex> ids;
  for (int i = 0; i < 5; ++i) ids.push_back(base + 7919 * i);
  edge_list edges;
  for (int i = 0; i < 5; ++i)
    for (int j = i + 1; j < 5; ++j) edges.push_back({ids[i], ids[j]});
  for (int p = 3; p <= 5; ++p) {
    const auto s = cliques_in_edge_set(edges, p);
    EXPECT_EQ(s.size(), choose(5, p)) << "p=" << p;
  }
  const vertex k5[5] = {ids[0], ids[1], ids[2], ids[3], ids[4]};
  EXPECT_TRUE(
      cliques_in_edge_set(edges, 5).contains(std::span<const vertex>(k5, 5)));
}

TEST(CliquesInEdgeSet, ArityTwoReturnsDedupedEdges) {
  edge_list edges{{4, 1}, {1, 4}, {2, 2}, {1, 2}};
  const auto s = cliques_in_edge_set(edges, 2);
  EXPECT_EQ(s.size(), 2);
}

TEST(KCliques, ArityAboveKernelLimitIsRejectedAtEntry) {
  const auto g = gen::complete(5);
  EXPECT_THROW(count_cliques(g, 33), precondition_error);
  EXPECT_THROW(cliques_in_edge_set(g.edges(), 33), precondition_error);
}

}  // namespace
}  // namespace dcl
