#include "graph/clique_enum.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>

#include "enumkernel/kernel.hpp"
#include "support/check.hpp"
#include "support/radix_sort.hpp"

namespace dcl {

clique_set::clique_set(int p) : p_(p) {
  DCL_EXPECTS(p >= 2, "clique arity must be at least 2");
}

void clique_set::add(std::span<const vertex> clique) {
  DCL_EXPECTS(int(clique.size()) == p_, "clique arity mismatch");
  flat_.insert(flat_.end(), clique.begin(), clique.end());
  std::sort(flat_.end() - p_, flat_.end());
  normalized_ = false;
}

void clique_set::add_flat(std::span<const vertex> flat,
                          bool tuples_presorted) {
  DCL_EXPECTS(flat.size() % size_t(p_) == 0,
              "flat length must be a multiple of the arity");
  if (flat.empty()) return;
  const std::size_t start = flat_.size();
  flat_.insert(flat_.end(), flat.begin(), flat.end());
  for (std::size_t i = start; i < flat_.size(); i += size_t(p_)) {
    if (tuples_presorted) {
      DCL_ENSURE(std::is_sorted(flat_.begin() + std::ptrdiff_t(i),
                                flat_.begin() + std::ptrdiff_t(i + size_t(p_))),
                 "presorted add_flat received an unsorted tuple");
    } else {
      std::sort(flat_.begin() + std::ptrdiff_t(i),
                flat_.begin() + std::ptrdiff_t(i + size_t(p_)));
    }
  }
  normalized_ = false;
}

std::int64_t clique_set::normalize() {
  const std::int64_t before = size();
  normalized_ = true;
  if (before == 0) return 0;
  // Tuples are individually ascending, so the id range is spanned by the
  // first and last columns.
  vertex lo = flat_[0], hi = 0;
  for (std::size_t i = 0; i < flat_.size(); i += size_t(p_)) {
    lo = std::min(lo, flat_[i]);
    hi = std::max(hi, flat_[i + size_t(p_) - 1]);
  }
  const int bits = std::max(1, int(std::bit_width(std::uint32_t(hi))));
  if (lo < 0 || p_ * bits > 64) return normalize_wide();

  // Packed path: each tuple becomes one p·bits-bit key whose numeric order
  // is the tuples' lexicographic order.
  std::vector<std::uint64_t> keys(static_cast<std::size_t>(before));
  for (std::int64_t t = 0; t < before; ++t) {
    std::uint64_t k = 0;
    for (const vertex v : (*this)[t]) k = (k << bits) | std::uint64_t(v);
    keys[size_t(t)] = k;
  }
  {
    std::vector<std::uint64_t> tmp;
    radix_sort(keys, tmp, p_ * bits);
  }
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  const std::uint64_t vmask = (std::uint64_t(1) << bits) - 1;
  for (std::size_t t = 0; t < keys.size(); ++t) {
    std::uint64_t k = keys[t];
    for (int j = p_ - 1; j >= 0; --j, k >>= bits)
      flat_[t * size_t(p_) + size_t(j)] = vertex(k & vmask);
  }
  flat_.resize(keys.size() * size_t(p_));
  return before - size();
}

std::int64_t clique_set::normalize_wide() {
  const std::int64_t before = size();
  std::vector<std::int64_t> idx(static_cast<std::size_t>(before));
  for (std::int64_t i = 0; i < before; ++i) idx[size_t(i)] = i;
  auto key = [&](std::int64_t i) {
    return std::span<const vertex>(flat_.data() + i * p_, size_t(p_));
  };
  std::sort(idx.begin(), idx.end(), [&](std::int64_t a, std::int64_t b) {
    const auto ka = key(a), kb = key(b);
    return std::lexicographical_compare(ka.begin(), ka.end(), kb.begin(),
                                        kb.end());
  });
  std::vector<vertex> out;
  out.reserve(flat_.size());
  for (std::int64_t r = 0; r < before; ++r) {
    const auto k = key(idx[size_t(r)]);
    if (!out.empty() &&
        std::equal(k.begin(), k.end(), out.end() - p_, out.end()))
      continue;
    out.insert(out.end(), k.begin(), k.end());
  }
  flat_ = std::move(out);
  return before - size();
}

bool clique_set::contains(std::span<const vertex> clique) const {
  DCL_EXPECTS(normalized_, "call normalize() before queries");
  DCL_EXPECTS(int(clique.size()) == p_, "clique arity mismatch");
  std::vector<vertex> k(clique.begin(), clique.end());
  std::sort(k.begin(), k.end());
  std::int64_t lo = 0, hi = size();
  while (lo < hi) {
    const std::int64_t mid = (lo + hi) / 2;
    const auto c = (*this)[mid];
    if (std::lexicographical_compare(c.begin(), c.end(), k.begin(), k.end()))
      lo = mid + 1;
    else
      hi = mid;
  }
  if (lo == size()) return false;
  const auto c = (*this)[lo];
  return std::equal(c.begin(), c.end(), k.begin(), k.end());
}

void for_each_triangle(const graph& g,
                       const std::function<void(vertex, vertex, vertex)>& cb) {
  for (vertex u = 0; u < g.num_vertices(); ++u) {
    const auto nu = g.neighbors(u);
    // Suffix of neighbors greater than u.
    const auto first_gt =
        std::upper_bound(nu.begin(), nu.end(), u) - nu.begin();
    const auto fwd_u = nu.subspan(static_cast<std::size_t>(first_gt));
    for (vertex v : fwd_u) {
      const auto nv = g.neighbors(v);
      const auto first_gt_v =
          std::upper_bound(nv.begin(), nv.end(), v) - nv.begin();
      const auto fwd_v = nv.subspan(static_cast<std::size_t>(first_gt_v));
      // w > v, w adjacent to both u and v.
      std::size_t i = 0, j = 0;
      const auto fu =
          fwd_u.subspan(size_t(std::upper_bound(fwd_u.begin(), fwd_u.end(), v) -
                               fwd_u.begin()));
      while (i < fu.size() && j < fwd_v.size()) {
        if (fu[i] < fwd_v[j]) {
          ++i;
        } else if (fu[i] > fwd_v[j]) {
          ++j;
        } else {
          cb(u, v, fu[i]);
          ++i;
          ++j;
        }
      }
    }
  }
}

// ---- Thin adapters over the shared enumeration kernel (enumkernel/).
// The recursive DFS that used to live here is gone: every entry point below
// delegates to the arena-backed kClist kernel, constructing a call-local
// enum_scratch. Hot paths that enumerate repeatedly (cluster listers, the
// local engine) call the kernel directly with a per-worker scratch instead
// of going through these conveniences.

void for_each_clique(const graph& g, int p,
                     const std::function<void(std::span<const vertex>)>& cb) {
  DCL_EXPECTS(p >= 2 && p <= enumkernel::kMaxCliqueArity,
              "clique arity must lie in [2, kMaxCliqueArity]");
  enumkernel::enum_scratch ws;
  enumkernel::enumerate_cliques(g, p, ws,
                                [&](std::span<const vertex> c) { cb(c); });
}

std::int64_t count_cliques(const graph& g, int p) {
  enumkernel::enum_scratch ws;
  return enumkernel::count_cliques(g, p, ws);
}

clique_set collect_cliques(const graph& g, int p) {
  enumkernel::enum_scratch ws;
  clique_set out(p);
  enumkernel::enumerate_cliques(
      g, p, ws, [&](std::span<const vertex> c) { out.add_flat(c, true); });
  out.normalize();
  return out;
}

clique_set cliques_in_edge_set(const edge_list& edges, int p) {
  enumkernel::enum_scratch ws;
  return enumkernel::cliques_in_edge_set(edges, p, ws);
}

}  // namespace dcl
