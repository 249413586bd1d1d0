#pragma once
// Memoized control plane of the CONGEST recursion drivers (DESIGN.md §9).
//
// Per level, the drivers expander-decompose the residual graph, derive the
// cluster anatomy, and retire the fully-processed edges. All three are
// pure functions of (graph, control-plane key) — DESIGN.md §2.1 — so a
// listing_session records each level once, in a control_plane_cache, and
// every later run of the same key replays it. The data plane (E′
// delivery, the Lemma 44 overload test, cluster listing, the exhaustive
// sweep, ledgers, traces) still runs on every query; the retired-edge set
// it computes is checked against the recorded one on every replay.

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <vector>

#include "core/listing/driver.hpp"
#include "expander/anatomy.hpp"
#include "graph/graph.hpp"

namespace dcl {

/// One recursion level's control plane, immutable once published.
struct level_skeleton {
  std::vector<cluster_anatomy> anatomy;  ///< of the level graph's clusters
  /// Edges the level retires: sorted, deduplicated. Empty when the level
  /// made no progress (the driver falls back to central listing).
  edge_list retired;
  /// The level graph minus `retired` — the next level's input. Null when
  /// `retired` is empty.
  std::shared_ptr<const graph> residual;
};

/// Every listing_query field the level chain reads, resolved: epsilon's 0
/// default is replaced by the driver's value, and beta/gamma are zeroed
/// for p = 3, whose chain never reads them. Output-shape and
/// performance knobs (mode, lb, seed, trace, kernel, simd,
/// stream_batch_tuples) do not change the control plane and are not part
/// of the key.
struct control_plane_key {
  int p = 3;
  double epsilon = 0.0;
  int max_levels = 0;
  std::int64_t base_case_edges = 0;
  double beta = 0.0;   ///< anatomy's V− threshold factor (p >= 4)
  double gamma = 0.0;  ///< overload-test threshold (p >= 4)

  static control_plane_key of(const listing_query& q);

  friend bool operator==(const control_plane_key&,
                         const control_plane_key&) = default;
};

/// The recorded level chains of one bound graph, one chain per key, at
/// most kCapacity keys (least recently used evicted first), so a client
/// that varies epsilon cannot grow memory without bound. Thread-safe:
/// lookups and inserts take one mutex; entries are computed outside it and
/// the first insert of a level wins. A run keeps the entries it reads
/// alive through their shared_ptr even if their chain is evicted
/// meanwhile.
class control_plane_cache {
 public:
  static constexpr std::size_t kCapacity = 4;

  /// Binds to `g` (aliased — must outlive the cache). Level 0 of every
  /// chain lists `g` itself; only residual graphs are stored.
  explicit control_plane_cache(const graph& g) : g_(&g) {}

  control_plane_cache(const control_plane_cache&) = delete;
  control_plane_cache& operator=(const control_plane_cache&) = delete;

  const graph& bound_graph() const { return *g_; }

  /// The recorded entry of `level` under `key`, or null.
  std::shared_ptr<const level_skeleton> find(const control_plane_key& key,
                                             int level);

  /// Records `entry` as `level` under `key` unless a concurrent run got
  /// there first; returns whichever entry the cache now holds.
  std::shared_ptr<const level_skeleton> publish(
      const control_plane_key& key, int level,
      std::shared_ptr<const level_skeleton> entry);

  /// Number of keys currently held (at most kCapacity).
  std::size_t keys() const;

 private:
  struct chain {
    control_plane_key key;
    std::vector<std::shared_ptr<const level_skeleton>> levels;
  };

  /// The chain of `key`, moved to the front; null if absent. Requires m_.
  chain* touch(const control_plane_key& key);

  const graph* g_;
  mutable std::mutex m_;
  std::list<chain> chains_;  ///< most recently used first
};

}  // namespace dcl
