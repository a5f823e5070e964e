#include "proto/egp/egp_node.hpp"

#include <algorithm>

#include "topology/algos.hpp"
#include "util/check.hpp"

namespace idr {

bool egp_applicable(const Topology& topo) { return !has_cycle(topo); }

void EgpNode::start() {
  routes_[self().v] = Route{0, self()};
  advertise();
}

void EgpNode::set_export_filter(std::unordered_set<std::uint32_t> allowed) {
  export_filter_ = std::move(allowed);
}

void EgpNode::set_neighbor_bias(AdId neighbor, std::uint16_t bias) {
  neighbor_bias_[neighbor.v] = bias;
}

std::vector<std::uint8_t> EgpNode::encode_for(AdId neighbor) const {
  wire::Writer w;
  w.u8(kMsgReach);
  wire::Writer body;
  std::uint16_t count = 0;
  for (const auto& [dst, route] : routes_) {
    // Unreachable destinations are advertised explicitly at infinity so
    // neighbors with alternatives can detect the regression and help
    // (see the repair heuristic below).
    // On a tree, exact split horizon: never advertise back to the
    // neighbor the route was learned from.
    if (route.via == neighbor && dst != self().v) continue;
    if (!export_filter_.empty() && dst != self().v &&
        !export_filter_.contains(dst)) {
      continue;
    }
    body.u32(dst);
    body.u16(route.metric);
    ++count;
  }
  w.u16(count);
  w.raw(body.bytes());
  return std::move(w).take();
}

void EgpNode::advertise() {
  for (const Adjacency& adj : live_neighbors()) {
    net().send(self(), adj.neighbor, encode_for(adj.neighbor));
  }
}

void EgpNode::on_message(AdId from, std::span<const std::uint8_t> bytes) {
  // Parse the whole update before applying: EGP full-state updates imply
  // withdrawals for absent destinations, so acting on a truncated PDU
  // would withdraw routes the sender still has. Count and drop instead.
  wire::Reader r(bytes);
  const std::uint8_t type = r.u8();
  const std::uint16_t count = r.u16();
  std::vector<std::pair<std::uint32_t, std::uint16_t>> entries;
  if (r.ok() && type == kMsgReach) {
    // As many as the bytes left can hold: an entry takes 6.
    entries.reserve(std::min<std::size_t>(count, r.remaining() / 6));
    for (std::uint16_t i = 0; i < count && r.ok(); ++i) {
      const std::uint32_t dst = r.u32();
      const std::uint16_t adv = r.u16();
      if (r.ok()) entries.emplace_back(dst, adv);
    }
  }
  if (!r.ok() || type != kMsgReach || entries.size() != count) {
    drop_malformed();
    return;
  }
  std::uint16_t bias = 0;
  if (const auto it = neighbor_bias_.find(from.v);
      it != neighbor_bias_.end()) {
    bias = it->second;
  }
  // Destinations previously learned from `from` but absent from this
  // update have been withdrawn (EGP full-state updates).
  std::unordered_map<std::uint32_t, std::uint16_t> their;
  bool changed = false;
  for (const auto& [dst, adv] : entries) {
    if (dst == self().v) continue;
    their[dst] = adv;
    const auto metric = static_cast<std::uint16_t>(
        std::min<std::uint32_t>(adv + 1u + bias, kInfinity));
    auto it = routes_.find(dst);
    if (it == routes_.end()) {
      if (metric < kInfinity) {
        routes_[dst] = Route{metric, from};
        changed = true;
      }
    } else if (it->second.via == from) {
      if (it->second.metric != metric) {
        it->second.metric = metric;
        changed = true;
      }
    } else if (metric < it->second.metric) {
      it->second = Route{metric, from};
      changed = true;
    }
  }
  for (auto& [dst, route] : routes_) {
    if (route.via == from && dst != self().v && !their.contains(dst) &&
        route.metric < kInfinity) {
      route.metric = kInfinity;
      changed = true;
    }
  }
  if (changed) advertise();

  // Repair heuristic: offer our table when the neighbor explicitly
  // advertised a metric strictly worse than what we could legitimately
  // offer it. Absent destinations are not treated as lagging (absence is
  // usually split-horizon suppression; see DvNode for the rationale).
  bool help = false;
  for (const auto& [dst, adv] : their) {
    if (dst == from.v) continue;
    const auto it = routes_.find(dst);
    if (it == routes_.end()) continue;
    const Route& route = it->second;
    if (route.metric >= kInfinity) continue;
    if (route.via == from && dst != self().v) continue;  // split horizon
    if (!export_filter_.empty() && dst != self().v &&
        !export_filter_.contains(dst)) {
      continue;
    }
    if (route.metric + 1u < adv) {
      help = true;
      break;
    }
  }
  if (help) net().send(self(), from, encode_for(from));
}

void EgpNode::on_link_change(AdId neighbor, bool up) {
  if (up) {
    advertise();
    return;
  }
  bool changed = false;
  for (auto& [dst, route] : routes_) {
    if (route.via == neighbor && route.metric < kInfinity) {
      route.metric = kInfinity;
      changed = true;
    }
  }
  if (changed) advertise();
}

std::optional<AdId> EgpNode::next_hop(AdId dst) const {
  const auto it = routes_.find(dst.v);
  if (it == routes_.end() || it->second.metric >= kInfinity) {
    return std::nullopt;
  }
  return it->second.via;
}

std::uint16_t EgpNode::distance(AdId dst) const {
  const auto it = routes_.find(dst.v);
  if (it == routes_.end()) return kInfinity;
  return it->second.metric;
}

}  // namespace idr
