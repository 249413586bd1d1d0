#include "core/listing/control_plane.hpp"

#include <utility>

namespace dcl {

control_plane_key control_plane_key::of(const listing_query& q) {
  control_plane_key k;
  k.p = q.p;
  k.epsilon =
      q.epsilon > 0 ? q.epsilon : (q.p == 4 ? 1.0 / 12.0 : 1.0 / 18.0);
  k.max_levels = q.max_levels;
  k.base_case_edges = q.base_case_edges;
  if (q.p >= 4) {
    k.beta = q.beta;
    k.gamma = q.gamma;
  }
  return k;
}

control_plane_cache::chain* control_plane_cache::touch(
    const control_plane_key& key) {
  for (auto it = chains_.begin(); it != chains_.end(); ++it)
    if (it->key == key) {
      chains_.splice(chains_.begin(), chains_, it);
      return &chains_.front();
    }
  return nullptr;
}

std::shared_ptr<const level_skeleton> control_plane_cache::find(
    const control_plane_key& key, int level) {
  std::lock_guard<std::mutex> lock(m_);
  const chain* c = touch(key);
  if (c == nullptr || std::size_t(level) >= c->levels.size()) return nullptr;
  return c->levels[std::size_t(level)];
}

std::shared_ptr<const level_skeleton> control_plane_cache::publish(
    const control_plane_key& key, int level,
    std::shared_ptr<const level_skeleton> entry) {
  std::lock_guard<std::mutex> lock(m_);
  chain* c = touch(key);
  if (c == nullptr) {
    if (chains_.size() == kCapacity) chains_.pop_back();
    chains_.push_front({key, {}});
    c = &chains_.front();
  }
  if (c->levels.size() <= std::size_t(level))
    c->levels.resize(std::size_t(level) + 1);
  auto& slot = c->levels[std::size_t(level)];
  if (slot == nullptr) slot = std::move(entry);
  return slot;
}

std::size_t control_plane_cache::keys() const {
  std::lock_guard<std::mutex> lock(m_);
  return chains_.size();
}

}  // namespace dcl
