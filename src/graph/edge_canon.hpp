#pragma once
// Linear-time edge canonicalization: the packed-key path shared by
// graph::from_unsorted and the enumeration kernel's dense edge remap
// (enumkernel::detail::remap_edges_dense). Each edge becomes one integer
// (min << bits) | max whose numeric order is the lexicographic edge order,
// so one radix_sort plus unique yields the canonical edge list.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "support/radix_sort.hpp"

namespace dcl {

/// Reusable key buffers for canonicalize_edges_packed. 32-bit keys serve
/// every id range below 2^16, so the common case holds half the bytes.
struct edge_key_buffers {
  std::vector<std::uint32_t> keys32, tmp32;
  std::vector<std::uint64_t> keys64, tmp64;
};

/// Bits per endpoint for ids in [0, count): at least 1.
inline int edge_id_bits(vertex count) {
  return std::max(1,
                  int(std::bit_width(std::uint32_t(std::max(count - 1, 0)))));
}

namespace detail {

template <typename Key, typename Map>
void canonicalize_edges_packed(std::span<const edge> in, Map&& id, int bits,
                               std::vector<Key>& keys, std::vector<Key>& tmp,
                               edge_list& out) {
  keys.clear();
  keys.reserve(in.size());
  for (const auto& e : in) {
    if (e.u == e.v) continue;
    const Key a = Key(id(e.u)), b = Key(id(e.v));
    keys.push_back(a < b ? (a << bits) | b : (b << bits) | a);
  }
  radix_sort(keys, tmp, 2 * bits);
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  const Key mask = (Key(1) << bits) - 1;
  out.resize(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i)
    out[i] = {vertex(keys[i] >> bits), vertex(keys[i] & mask)};
}

}  // namespace detail

/// Writes the canonical form of `in` to `out`: self-loops dropped, each edge
/// as (min, max) of its endpoints mapped through `id`, lexicographically
/// sorted, duplicates merged. `id` must map every endpoint of a non-loop
/// edge into [0, 2^bits), bits in [1, 31]; it decides equality, so two
/// endpoints that map alike are one vertex. O(|in|) via packed keys and one
/// radix_sort. `out` may alias `in`: every key is packed before `out` is
/// written.
template <typename Map>
void canonicalize_edges_packed(std::span<const edge> in, Map&& id, int bits,
                               edge_key_buffers& buf, edge_list& out) {
  if (2 * bits <= 32)
    detail::canonicalize_edges_packed(in, id, bits, buf.keys32, buf.tmp32,
                                      out);
  else
    detail::canonicalize_edges_packed(in, id, bits, buf.keys64, buf.tmp64,
                                      out);
}

}  // namespace dcl
