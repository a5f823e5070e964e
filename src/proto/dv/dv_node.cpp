#include "proto/dv/dv_node.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/log.hpp"

namespace idr {

void DvNode::start() {
  routes_[self().v] = Route{0, self()};
  broadcast_vector();
}

std::vector<std::uint8_t> DvNode::encode_vector_for(AdId neighbor) {
  wire::Writer w;
  w.u8(kMsgVector);
  std::uint16_t count = 0;
  wire::Writer body;
  for (const auto& [dst, route] : routes_) {
    std::uint16_t metric = route.metric;
    if (config_.split_horizon && route.via == neighbor && dst != self().v) {
      if (!config_.poisoned_reverse) continue;  // suppress
      metric = config_.infinity;                // poison
    }
    body.u32(dst);
    body.u16(metric);
    ++count;
  }
  w.u16(count);
  w.raw(body.bytes());
  return std::move(w).take();
}

void DvNode::broadcast_vector() {
  ++updates_sent_;
  for (const Adjacency& adj : live_neighbors()) {
    net().send(self(), adj.neighbor, encode_vector_for(adj.neighbor));
  }
}

void DvNode::on_message(AdId from, std::span<const std::uint8_t> bytes) {
  // Parse the whole update before applying any of it: a truncated or
  // bit-flipped PDU is counted and dropped, never partially installed.
  wire::Reader r(bytes);
  const std::uint8_t type = r.u8();
  const std::uint16_t count = r.u16();
  std::vector<std::pair<std::uint32_t, std::uint16_t>> entries;
  if (r.ok() && type == kMsgVector) {
    // As many as the bytes left can hold: an entry takes 6.
    entries.reserve(std::min<std::size_t>(count, r.remaining() / 6));
    for (std::uint16_t i = 0; i < count && r.ok(); ++i) {
      const std::uint32_t dst = r.u32();
      const std::uint16_t adv = r.u16();
      if (r.ok()) entries.emplace_back(dst, adv);
    }
  }
  if (!r.ok() || type != kMsgVector || entries.size() != count) {
    drop_malformed();
    return;
  }

  bool changed = false;
  std::unordered_map<std::uint32_t, std::uint16_t> their;
  for (const auto& [dst, adv] : entries) {
    their[dst] = std::min(adv, their.contains(dst) ? their[dst] : adv);
    if (dst == self().v) continue;
    const std::uint16_t metric = static_cast<std::uint16_t>(
        std::min<std::uint32_t>(adv + 1u, config_.infinity));
    auto it = routes_.find(dst);
    if (it == routes_.end()) {
      if (metric < config_.infinity) {
        routes_[dst] = Route{metric, from};
        changed = true;
      }
      continue;
    }
    Route& route = it->second;
    if (route.via == from) {
      // Update from the current next hop is authoritative, better or worse.
      if (route.metric != metric) {
        route.metric = metric;
        changed = true;
      }
    } else if (metric < route.metric) {
      route = Route{metric, from};
      changed = true;
    }
  }
  if (changed) broadcast_vector();

  // Repair heuristic (stands in for RIP's periodic refresh in the
  // event-driven simulation): if the neighbor explicitly advertised a
  // metric strictly worse than what we could offer it (e.g. it just
  // poisoned its only route), offer our table. Destinations absent from
  // the update are deliberately NOT treated as lagging -- absence may
  // mean split-horizon suppression, and helping on absence ping-pongs
  // forever. Helping only on explicit regressions guarantees every help
  // causes a strict improvement at the receiver, so the exchange
  // terminates.
  bool help = false;
  for (const auto& [dst, theirs] : their) {
    if (dst == from.v || dst == self().v) continue;
    const auto it = routes_.find(dst);
    if (it == routes_.end()) continue;
    const Route& route = it->second;
    if (route.metric >= config_.infinity) continue;
    if (config_.split_horizon && route.via == from) continue;
    if (route.metric + 1u < theirs) {
      help = true;
      break;
    }
  }
  if (help) net().send(self(), from, encode_vector_for(from));
}

void DvNode::on_link_change(AdId neighbor, bool up) {
  if (up) {
    broadcast_vector();
    return;
  }
  bool changed = false;
  for (auto& [dst, route] : routes_) {
    if (route.via == neighbor && route.metric < config_.infinity) {
      route.metric = config_.infinity;
      changed = true;
    }
  }
  if (changed) broadcast_vector();
}

std::optional<AdId> DvNode::next_hop(AdId dst) const {
  const auto it = routes_.find(dst.v);
  if (it == routes_.end() || it->second.metric >= config_.infinity) {
    return std::nullopt;
  }
  return it->second.via;
}

std::uint16_t DvNode::distance(AdId dst) const {
  const auto it = routes_.find(dst.v);
  if (it == routes_.end()) return config_.infinity;
  return it->second.metric;
}

}  // namespace idr
