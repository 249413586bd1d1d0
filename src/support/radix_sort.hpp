#pragma once
// LSD radix sort of packed unsigned keys — the one sort behind every
// linear-time canonicalization in the repo: the canonical clique fold
// (clique_set::normalize, packed p-tuples), the enumeration kernel's dense
// edge remap and graph::from_unsorted (packed (u, v) edges). Callers pack
// each record into one integer whose numeric order is the records'
// lexicographic order, sort, then unique and unpack.

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace dcl {

/// Sorts `keys` ascending. Every key must fit in its low `key_bits` bits.
/// 11-bit digits; `tmp` is the ping-pong buffer and keeps its capacity for
/// the caller's next call. One counting pass builds every digit's
/// histogram, and a digit on which all keys agree is skipped. The sorted
/// keys end up in `keys`.
template <typename Key>
void radix_sort(std::vector<Key>& keys, std::vector<Key>& tmp, int key_bits) {
  static_assert(std::is_unsigned_v<Key>);
  constexpr int kDigitBits = 11;
  constexpr std::size_t kBuckets = std::size_t(1) << kDigitBits;
  if (keys.size() < 2) return;
  const int digits = (key_bits + kDigitBits - 1) / kDigitBits;
  const Key mask = Key(kBuckets - 1);
  std::vector<std::size_t> hist(std::size_t(digits) * kBuckets, 0);
  for (const Key k : keys)
    for (int d = 0; d < digits; ++d)
      ++hist[std::size_t(d) * kBuckets +
             std::size_t((k >> (d * kDigitBits)) & mask)];
  tmp.resize(keys.size());
  for (int d = 0; d < digits; ++d) {
    std::size_t* h = hist.data() + std::size_t(d) * kBuckets;
    const int shift = d * kDigitBits;
    if (h[(keys.front() >> shift) & mask] == keys.size()) continue;
    std::size_t sum = 0;
    for (std::size_t b = 0; b < kBuckets; ++b)
      sum += std::exchange(h[b], sum);
    for (const Key k : keys) tmp[h[(k >> shift) & mask]++] = k;
    keys.swap(tmp);
  }
}

}  // namespace dcl
