#include "proto/ecma/ecma_node.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace idr {

void EcmaNode::start() {
  if (config_.originate) {
    for (std::uint8_t q = 0; q < kQosCount; ++q) {
      if ((config_.qos_mask & (1u << q)) == 0) continue;
      Entry& e = rib_[key(self(), static_cast<Qos>(q))];
      // The empty path is trivially down-only (and trivially valid).
      e.best = Route{0, self(), true};
      e.best_down = Route{0, self(), true};
    }
  }
  if (!rib_.empty()) advertise();
  schedule_refresh();
}

bool EcmaNode::advertisable(AdId dst) const {
  if (dst == self()) return true;
  if (config_.stub) return false;
  if (!config_.export_dsts.empty() && !config_.export_dsts.contains(dst.v)) {
    return false;
  }
  return true;
}

const std::vector<std::uint8_t>& EcmaNode::encode_for(
    AdId /*neighbor*/) const {
  // Both route shapes are advertised, marked with the types of links they
  // traverse (paper §5.1.1: "routes described in distance vector updates
  // are marked as to the types of links traversed"); the receiver applies
  // the up/down usability rule for its own side of the link.
  //
  // A Byzantine/misconfigured AD lies here, at the advertisement point:
  //   * route leak  -- every route is marked down-only (hiding traversed
  //     up links breaks the receiver's up*down* usability filter) and the
  //     stub/export restrictions are ignored;
  //   * tamper      -- all metrics are zeroed, pulling traffic in;
  //   * false origin -- metric-0 reachability for the victim is appended.
  const Misbehavior mis = net().active_misbehavior(self());
  const SimTime now = net().engine().now();
  wire::Writer& w = update_writer();
  w.u8(kMsgUpdate);
  w.u16(0);  // the entry count, written once known
  std::uint16_t count = 0;
  for (const auto [k, entry] : rib_) {
    const AdId dst{static_cast<std::uint32_t>(k >> 8)};
    const auto qos = static_cast<std::uint8_t>(k & 0xff);
    if (mis != Misbehavior::kRouteLeak && !advertisable(dst)) continue;
    // A damped key is advertised at infinity (a stable withdrawal): the
    // flap's churn dies here while local forwarding keeps the route.
    // Pure query only: a targeted encode (help, link-up refresh) must not
    // consume a pending release, or the release timer would find nothing
    // due and the network-wide re-advertisement would never happen.
    const bool damped = damper_.enabled() && dst != self() &&
                        damper_.would_suppress(k, now);
    for (const Route* r : {&entry.best, &entry.best_down}) {
      // A stale (graceful-restart retained) slot stays out of updates
      // entirely: not poisoned -- absence means "no change" to an ECMA
      // receiver -- and not advertised as usable either.
      if (r->stale) continue;
      const bool valid = r->valid() && !damped;
      std::uint8_t down_only = r->down_only ? 1 : 0;
      std::uint16_t metric = valid ? r->metric : kInfinity;
      if (mis == Misbehavior::kRouteLeak) down_only = 1;
      if (mis == Misbehavior::kTamper && valid) metric = 0;
      w.u32(dst.v);
      w.u8(qos);
      w.u8(down_only);
      w.u16(metric);
      ++count;
    }
  }
  if (mis == Misbehavior::kFalseOrigin) {
    const AdId victim = net().misbehavior_victim(self());
    if (victim.valid() && victim != self()) {
      for (std::uint8_t q = 0; q < kQosCount; ++q) {
        if ((config_.qos_mask & (1u << q)) == 0) continue;
        for (const std::uint8_t down_only : {0, 1}) {
          w.u32(victim.v);
          w.u8(q);
          w.u8(down_only);
          w.u16(0);
          ++count;
        }
      }
    }
  }
  w.u16_at(1, count);
  return w.bytes();
}

const EcmaNode::SenderBound& EcmaNode::sender_bound(AdId from) {
  const auto it = sender_bounds_.find(from.v);
  if (it != sender_bounds_.end()) return it->second;
  SenderBound bound;
  const std::size_t n = topo().ad_count();
  // Plain BFS twice: once over every static link, once over down hops
  // only (a down hop from a's side is any a->b with is_up(a, b) false).
  for (const bool down_only : {false, true}) {
    std::vector<std::uint16_t>& dist = down_only ? bound.down_dist : bound.dist;
    dist.assign(n, 0xffff);
    dist[from.v] = 0;
    std::vector<AdId> frontier{from};
    while (!frontier.empty()) {
      std::vector<AdId> next_frontier;
      for (const AdId cur : frontier) {
        for (const Adjacency& adj : topo().neighbors(cur)) {
          if (down_only && order_->is_up(cur, adj.neighbor)) continue;
          if (dist[adj.neighbor.v] != 0xffff) continue;
          dist[adj.neighbor.v] =
              static_cast<std::uint16_t>(dist[cur.v] + 1);
          next_frontier.push_back(adj.neighbor);
        }
      }
      frontier = std::move(next_frontier);
    }
  }
  return sender_bounds_.emplace(from.v, std::move(bound)).first->second;
}

bool EcmaNode::defense_accepts(const SenderBound& bound, AdId from, AdId dst,
                               bool adv_down_only, std::uint16_t adv) const {
  if (dst != from) {
    // Role legality: a stub/multihomed AD never advertises transit
    // routes; a hybrid only for its own neighbors.
    const AdRole role = topo().ad(from).role;
    if (role == AdRole::kStub || role == AdRole::kMultiHomed) return false;
    if (role == AdRole::kHybrid && !topo().find_link(from, dst)) return false;
  }
  if (adv < bound.dist[dst.v]) return false;
  if (adv_down_only && adv < bound.down_dist[dst.v]) return false;
  return true;
}

void EcmaNode::advertise(MsgClass cls) {
  Payload payload;
  for (const Adjacency& adj : live_neighbors()) {
    // An exact-size copy of the encoded update.
    if (!payload) payload = make_payload(encode_for(adj.neighbor));
    net().send(self(), adj.neighbor, payload, cls);
  }
}

bool EcmaNode::change_is_advertised(std::uint64_t k, bool flap) {
  bool newly_suppressed = false;
  if (flap && damper_.enabled()) {
    newly_suppressed = damper_.note_flap(k, net().engine().now());
    maybe_schedule_release_check();
  }
  return newly_suppressed || !damper_.enabled() ||
         !damper_.would_suppress(k, net().engine().now());
}

void EcmaNode::on_message(AdId from, std::span<const std::uint8_t> bytes) {
  // Parse the whole update before touching the RIB: a truncated or
  // corrupted PDU is counted and dropped, never partially applied. The
  // entries and the per-key candidates live in per-thread scratch that
  // every update on the thread reuses.
  wire::Reader r(bytes);
  const std::uint8_t type = r.u8();
  const std::uint16_t count = r.u16();
  struct RawEntry {
    AdId dst;
    std::uint8_t qos_raw;
    bool adv_down_only;
    std::uint16_t adv;
  };
  thread_local std::vector<RawEntry> entries;
  entries.clear();
  if (r.ok() && type == kMsgUpdate) {
    // As many as the bytes left can hold: an entry takes 8.
    entries.reserve(std::min<std::size_t>(count, r.remaining() / 8));
    for (std::uint16_t i = 0; i < count && r.ok(); ++i) {
      RawEntry e;
      e.dst = AdId{r.u32()};
      e.qos_raw = r.u8();
      e.adv_down_only = r.u8() != 0;
      e.adv = r.u16();
      if (r.ok()) entries.push_back(e);
    }
  }
  if (!r.ok() || type != kMsgUpdate || entries.size() != count) {
    drop_malformed();
    return;
  }
  // Link self -> from: "from is below us" means that link is a down link
  // from our side, hence an up link from theirs.
  const bool from_is_below = neighbor_is_below(from);

  // Collect, per (dst, qos), the best usable candidate for each of our
  // two slots before touching the RIB (a single neighbor now advertises
  // up to two routes per key).
  struct Candidates {
    Route any{0xffff, kNoAd, false};
    Route down{0xffff, kNoAd, false};
    // Best metric the neighbor claims for this key regardless of shape
    // (used by the help heuristic below).
    std::uint16_t their_best = 0xffff;
  };
  thread_local DenseMap<std::uint64_t, Candidates> per_key;
  per_key.clear();
  per_key.reserve(entries.size());
  const SenderBound* bound =
      config_.receiver_order_check ? &sender_bound(from) : nullptr;
  for (const RawEntry& entry : entries) {
    const AdId dst = entry.dst;
    const std::uint8_t qos_raw = entry.qos_raw;
    const bool adv_down_only = entry.adv_down_only;
    const std::uint16_t adv = entry.adv;
    if (dst == self()) continue;
    if (qos_raw >= kQosCount) continue;
    if (dst.v >= topo().ad_count()) continue;
    const auto qos = static_cast<Qos>(qos_raw);
    if ((config_.qos_mask & qos_bit(qos)) == 0) continue;
    if (bound && adv < kInfinity &&
        !defense_accepts(*bound, from, dst, adv_down_only, adv)) {
      // Provably illegal claim: drop the entry entirely (it must not
      // even feed the help heuristic's view of the neighbor).
      net().note_defense_rejection(self());
      continue;
    }

    Candidates& cand = per_key[key(dst, qos)];
    cand.their_best = std::min(cand.their_best, adv);
    // Up/down rule: reaching `from` over a down link means the remainder
    // must be down-only.
    const bool usable = !from_is_below || adv_down_only;
    if (!usable || adv >= kInfinity) continue;
    const auto metric = static_cast<std::uint16_t>(
        std::min<std::uint32_t>(adv + 1u, kInfinity));
    if (metric >= kInfinity) continue;
    // Our resulting route's shape.
    const bool down_only = from_is_below && adv_down_only;
    if (metric < cand.any.metric) cand.any = Route{metric, from, down_only};
    if (down_only && metric < cand.down.metric) {
      cand.down = Route{metric, from, true};
    }
  }

  bool changed = false;
  auto apply = [&](Route& slot, const Route& candidate) -> bool {
    const bool qualifies = candidate.metric < kInfinity;
    if (slot.valid() && slot.via == from) {
      // The via is talking (again): any stale-retained entry through it
      // is refreshed, whether or not the metric moved.
      slot.stale = false;
      // Authoritative update from the current next hop.
      const Route revised =
          qualifies ? candidate : Route{kInfinity, from, false};
      if (revised.metric != slot.metric ||
          revised.down_only != slot.down_only || revised.via != slot.via) {
        slot = revised;
        return true;
      }
    } else if (qualifies && candidate.metric < slot.metric) {
      slot = candidate;
      return true;
    }
    return false;
  };
  for (const auto [k, cand] : per_key) {
    Entry& entry = rib_[k];
    const bool had_route = entry.best.valid() || entry.best_down.valid();
    bool key_changed = apply(entry.best, cand.any);
    key_changed |= apply(entry.best_down, cand.down);
    // First learning a destination is not a flap (RFC 2439 shape): only
    // changes to previously-valid state accrue penalty, so cold start
    // converges penalty-free.
    if (key_changed && change_is_advertised(k, had_route)) changed = true;
  }

  if (changed) trigger_advertise();

  // Repair heuristic: if the neighbor explicitly advertised a route
  // strictly worse than what we could offer it (+1 hop) -- typically a
  // just-poisoned entry at infinity -- offer our table directly. This
  // replaces RIP-style periodic refresh in the event-driven simulation.
  // Keys absent from the neighbor's update are NOT treated as lagging
  // (absence can be a stub/export filter); helping only on explicit
  // regressions makes every help a strict improvement at the receiver,
  // which bounds the exchange.
  bool help = false;
  for (const auto [k, cand] : per_key) {
    const AdId dst{static_cast<std::uint32_t>(k >> 8)};
    if (dst == from) continue;
    if (!advertisable(dst)) continue;
    const Entry* e = rib_.find(k);
    if (!e) continue;
    // What `from` could use from us: any shape if they reach us over an
    // up link (we are above them, i.e. from is below), else down-only.
    const Route& offered = from_is_below ? e->best : e->best_down;
    if (!offered.valid() || offered.via == from) continue;
    // A suppressed key encodes at infinity, so "helping" with it would
    // send nothing usable -- the offer must reflect the encoded view.
    if (damper_.enabled() &&
        damper_.would_suppress(k, net().engine().now())) {
      continue;
    }
    if (offered.metric + 1u < cand.their_best) {
      help = true;
      break;
    }
  }
  if (help) net().send(self(), from, encode_for(from));
}

void EcmaNode::on_link_change(AdId neighbor, bool up) {
  if (up) {
    if (damper_.enabled() || net().gr().enabled) {
      // A link-up does not change our RIB, so a network-wide broadcast
      // would be byte-identical to what every other neighbor already
      // holds; only the recovered neighbor needs the table refresh.
      // Under GR this targeted table is the incremental resync a
      // restarted neighbor rebuilds its RIB from.
      if (net().gr().enabled) ++gr_resyncs_;
      net().send(self(), neighbor, encode_for(neighbor));
    } else {
      advertise();
    }
    return;
  }
  const auto via_neighbor = [&](const Route& slot) {
    return slot.valid() && slot.via == neighbor &&
           slot.via != self();
  };
  if (net().in_grace(neighbor)) {
    // Graceful restart: the neighbor crashed into a grace window. Keep
    // its routes in the FIB (its frozen data plane still forwards) but
    // flag them stale so they drop out of our updates; poison whatever
    // its resync has not refreshed once grace expires.
    bool any = false;
    for (auto [k, entry] : rib_) {
      (void)k;
      for (Route* slot : {&entry.best, &entry.best_down}) {
        if (!via_neighbor(*slot)) continue;
        slot->stale = true;
        any = true;
      }
    }
    if (any) schedule_stale_flush(neighbor);
    return;
  }
  poison(via_neighbor);
}

void EcmaNode::flush_stale(AdId neighbor) {
  // If the neighbor resynced in time every stale flag was cleared by its
  // refreshed advertisements and this is a no-op; what is still flagged
  // was never re-advertised and gets the deferred poison.
  poison([&](Route& slot) {
    if (!slot.stale || slot.via != neighbor) return false;
    slot.stale = false;
    ++gr_stale_flushed_;
    return true;
  });
}

template <typename Hit>
void EcmaNode::poison(Hit&& hit) {
  bool changed = false;
  for (auto [k, entry] : rib_) {
    bool key_changed = false;
    for (Route* slot : {&entry.best, &entry.best_down}) {
      if (!hit(*slot)) continue;
      slot->metric = kInfinity;
      key_changed = true;
    }
    // Poisoned routes were valid by definition, so this is a flap.
    if (key_changed && change_is_advertised(k, /*flap=*/true)) {
      changed = true;
    }
  }
  if (changed) advertise(MsgClass::kWithdrawal);
}

std::optional<EcmaNode::Forwarding> EcmaNode::forward(AdId dst, Qos qos,
                                                      bool gone_down) const {
  const Entry* e = rib_.find(key(dst, qos));
  if (!e) return std::nullopt;
  const Route& r = gone_down ? e->best_down : e->best;
  if (!r.valid() || r.via == self()) return std::nullopt;
  // Traversing a down link sets the packet's gone-down marker.
  const bool link_is_down = neighbor_is_below(r.via);
  return Forwarding{r.via, link_is_down};
}

std::uint16_t EcmaNode::distance(AdId dst, Qos qos) const {
  const Entry* e = rib_.find(key(dst, qos));
  if (!e) return kInfinity;
  return e->best.metric;
}

std::size_t EcmaNode::fib_entries() const noexcept {
  std::size_t n = 0;
  for (const auto [k, entry] : rib_) {
    (void)k;
    if (entry.best.valid()) ++n;
    if (entry.best_down.valid()) ++n;
  }
  return n;
}

}  // namespace idr
