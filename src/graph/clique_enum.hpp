#pragma once
// Canonical clique storage (clique_set) plus convenience adapters over the
// shared enumeration kernel (enumkernel/kernel.hpp) — the ground truth
// every distributed listing run is checked against, and itself a baseline
// (§1.3 discusses the centralized view). Cliques are canonical sorted
// p-tuples; normalize() is the one canonical fold (packed-key LSD radix
// sort, with a comparator sort for tuples too wide to pack). The adapters construct a call-local kernel scratch; hot paths
// that enumerate repeatedly use the kernel directly with a reused
// enum_scratch instead.

#include <functional>
#include <vector>

#include "graph/graph.hpp"

namespace dcl {

/// Canonical set of p-cliques: flat storage, stride p, each tuple ascending,
/// tuples sorted lexicographically, no duplicates after normalize().
class clique_set {
 public:
  explicit clique_set(int p);

  int arity() const { return p_; }
  std::int64_t size() const { return std::int64_t(flat_.size()) / p_; }

  /// Appends a clique (any vertex order); call normalize() before queries.
  void add(std::span<const vertex> clique);

  /// Appends many tuples stored flat with stride arity(); call normalize()
  /// before queries. Bulk-ingest path for per-thread buffers. With
  /// tuples_presorted the per-tuple sort is replaced by an O(p) ascending
  /// check (DCL_ENSURE) — for producers that already emit canonical tuples.
  void add_flat(std::span<const vertex> flat, bool tuples_presorted = false);

  /// Sorts tuples internally and lexicographically; removes duplicates.
  /// Returns the number of duplicates removed. The canonical fold of every
  /// collect, count and stream query. When p·bits(max vertex) <= 64 each
  /// tuple is packed into one uint64_t key whose numeric order is the
  /// lexicographic order; the keys are sorted by the shared radix_sort
  /// (support/radix_sort.hpp), uniqued and unpacked in place — the only
  /// extra memory is the two key buffers. Wider tuples take the comparator
  /// sort (normalize_wide). The
  /// path is picked from the data; the result is the same either way.
  std::int64_t normalize();

  std::span<const vertex> operator[](std::int64_t i) const {
    return {flat_.data() + i * p_, size_t(p_)};
  }

  /// Raw flat storage (stride arity(), each tuple ascending). Before
  /// normalize() the tuple order is the insertion order and duplicates may
  /// be present — the bulk-transfer view used when one set absorbs another.
  std::span<const vertex> flat_view() const { return flat_; }

  bool contains(std::span<const vertex> clique) const;

  friend bool operator==(const clique_set& a, const clique_set& b) {
    return a.p_ == b.p_ && a.flat_ == b.flat_;
  }

 private:
  /// normalize() for tuples too wide to pack: an index sort with
  /// lexicographic span compares, then a gather.
  std::int64_t normalize_wide();

  int p_;
  std::vector<vertex> flat_;
  bool normalized_ = true;
};

/// Calls cb(u, v, w) with u < v < w for every triangle. Forward algorithm on
/// sorted adjacency — O(m^{3/2}).
void for_each_triangle(const graph& g,
                       const std::function<void(vertex, vertex, vertex)>& cb);

/// Calls cb with each p-clique exactly once as an ascending tuple, via the
/// shared kClist kernel; p in [2, enumkernel::kMaxCliqueArity]. The span is
/// valid only during the callback.
void for_each_clique(const graph& g, int p,
                     const std::function<void(std::span<const vertex>)>& cb);

std::int64_t count_cliques(const graph& g, int p);

clique_set collect_cliques(const graph& g, int p);

/// Enumerate p-cliques of an explicit edge set (not a full graph) — used by
/// listers that have learned a partial edge set. The edge list may contain
/// duplicates and self-loops; vertices are arbitrary (possibly huge,
/// sparse) non-negative ids — they are remapped densely inside the kernel.
clique_set cliques_in_edge_set(const edge_list& edges, int p);

}  // namespace dcl
