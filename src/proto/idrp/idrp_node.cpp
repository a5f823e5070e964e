#include "proto/idrp/idrp_node.hpp"

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/prng.hpp"

namespace idr {

std::uint32_t hour_window_mask(std::uint8_t begin, std::uint8_t end) noexcept {
  std::uint32_t mask = 0;
  for (std::uint8_t h = 0; h < 24; ++h) {
    const bool in = begin <= end ? (h >= begin && h <= end)
                                 : (h >= begin || h <= end);
    if (in) mask |= 1u << h;
  }
  return mask;
}

namespace {

AdSet intersect_sets(const AdSet& a, const AdSet& b) {
  if (a.is_any()) return b;
  if (b.is_any()) return a;
  std::vector<AdId> out;
  std::set_intersection(a.members().begin(), a.members().end(),
                        b.members().begin(), b.members().end(),
                        std::back_inserter(out));
  return AdSet::of(std::move(out));
}

bool set_covers(const AdSet& outer, const AdSet& inner) {
  if (outer.is_any()) return true;
  if (inner.is_any()) return false;
  return std::includes(outer.members().begin(), outer.members().end(),
                       inner.members().begin(), inner.members().end());
}

}  // namespace

bool RouteAttrs::permits(const FlowSpec& flow) const noexcept {
  if ((qos_mask & qos_bit(flow.qos)) == 0) return false;
  if ((uci_mask & uci_bit(flow.uci)) == 0) return false;
  if ((hour_mask & (1u << flow.hour)) == 0) return false;
  return sources.contains(flow.src);
}

bool RouteAttrs::covers(const RouteAttrs& other) const noexcept {
  if (!set_covers(sources, other.sources)) return false;
  if ((qos_mask & other.qos_mask) != other.qos_mask) return false;
  if ((uci_mask & other.uci_mask) != other.uci_mask) return false;
  if ((hour_mask & other.hour_mask) != other.hour_mask) return false;
  return true;
}

bool RouteAttrs::usable() const noexcept {
  if (qos_mask == 0 || uci_mask == 0 || hour_mask == 0) return false;
  return sources.is_any() || !sources.members().empty();
}

void RouteAttrs::encode(wire::Writer& w) const {
  sources.encode(w);
  w.u8(qos_mask);
  w.u8(uci_mask);
  w.u32(hour_mask);
  w.u32(cost);
}

void RouteAttrs::decode_from(wire::Reader& r) {
  sources.decode_from(r);
  qos_mask = r.u8();
  uci_mask = r.u8();
  hour_mask = r.u32();
  cost = r.u32();
}

namespace {

// A route's wire form, from its parts.
void encode_route(wire::Writer& w, AdId dst, const std::vector<AdId>& path,
                  const RouteAttrs& attrs) {
  w.u32(dst.v);
  w.list(path);
  attrs.encode(w);
}

}  // namespace

void IdrpRoute::encode(wire::Writer& w) const {
  encode_route(w, dst, path, attrs);
}

std::optional<IdrpRoute> IdrpRoute::decode(wire::Reader& r) {
  IdrpRoute route;
  if (!route.decode_from(r)) return std::nullopt;
  return route;
}

bool IdrpRoute::decode_from(wire::Reader& r) {
  dst = AdId{r.u32()};
  r.list(path);
  attrs.decode_from(r);
  return r.ok();
}

namespace {

const IdrpRoute& route_of(const IdrpRoute& route) { return route; }
const IdrpRoute& route_of(const IdrpRoute* route) { return *route; }

// One destination's routes (held, or chosen candidates) as an
// order-independent summand of the loc-RIB signature.
template <typename Routes>
std::uint64_t dst_hash(std::uint32_t dst, const Routes& routes) {
  std::uint64_t s = dst;
  for (const auto& item : routes) {
    const IdrpRoute& route = route_of(item);
    for (AdId ad : route.path) s = splitmix64(s) ^ ad.v;
    s = splitmix64(s) ^ route.attrs.cost;
    s = splitmix64(s) ^ route.attrs.qos_mask;
    s = splitmix64(s) ^ route.attrs.uci_mask;
    s = splitmix64(s) ^ route.attrs.hour_mask;
    s = splitmix64(s) ^
        (route.attrs.sources.is_any() ? 0xffffu
                                      : route.attrs.sources.members().size());
    for (AdId m : route.attrs.sources.members()) s = splitmix64(s) ^ m.v;
  }
  return splitmix64(s);
}

}  // namespace

void IdrpNode::start() {
  if (config_.originate) {
    // Originate own reachability: an empty path means "this AD".
    IdrpRoute origin;
    origin.dst = self();
    loc_rib_[self().v] = {origin};
    rib_signature_ ^= dst_hash(self().v, loc_rib_[self().v]);
    advertise();
  }
  schedule_refresh();
}

const std::vector<std::uint8_t>& IdrpNode::encode_for(AdId neighbor) const {
  // A Byzantine/misconfigured AD lies at this advertisement point:
  //   * route leak -- learned routes are re-advertised with wide-open
  //     attributes, skipping the Policy Term intersection entirely;
  //   * tamper     -- the path is shortened to a claimed direct
  //     adjacency with the destination (path-vector length fraud);
  //   * false origin -- a path=[self] origin claim for the victim is
  //     appended after the honest routes.
  const Misbehavior mis = net().active_misbehavior(self());
  const SimTime now = net().engine().now();
  wire::Writer& w = update_writer();
  w.u8(kMsgUpdate);
  w.u16(0);  // the route count, written once known
  std::uint16_t count = 0;
  // The advertised path of the route being encoded: one buffer for every
  // route this thread encodes.
  thread_local std::vector<AdId> path;
  const auto emit = [&](AdId dst, const RouteAttrs& attrs) {
    encode_route(w, dst, path, attrs);
    ++count;
  };
  const auto own_terms = policies_->terms(self());
  // Re-advertising a learned route takes one of our Policy Terms; only
  // the tamper and leak lies emit without one. A node with no terms
  // that tells neither emits its own origin alone.
  const bool origin_only = own_terms.empty() &&
                           mis != Misbehavior::kTamper &&
                           mis != Misbehavior::kRouteLeak;
  for (const auto [dst_v, routes] : loc_rib_) {
    const AdId dst{dst_v};
    if (origin_only && dst != self()) continue;
    // A damped destination is simply left out: per-neighbor full-table
    // updates make omission an implicit withdrawal, so downstream churn
    // stops after one stable update while we keep forwarding locally.
    // Pure query only -- releases happen solely in the release timer,
    // whose re-advertisement reaches every neighbor (a mid-encode release
    // would revive the dst for some neighbors and not others).
    if (damper_.enabled() && dst != self() &&
        damper_.would_suppress(dst_v, now)) {
      continue;
    }
    std::uint32_t emitted_for_dst = 0;
    for (const IdrpRoute& route : routes) {
      if (emitted_for_dst >= config_.routes_per_dest) break;
      // Sender-side loop suppression.
      if (std::find(route.path.begin(), route.path.end(), neighbor) !=
          route.path.end()) {
        continue;
      }
      if (dst == self()) {
        // Terminating traffic needs no transit PT.
        path.assign(1, self());
        emit(self(), RouteAttrs{});
        ++emitted_for_dst;
        continue;
      }
      IDR_CHECK(!route.path.empty());
      if (mis == Misbehavior::kTamper) {
        path.assign({self(), dst});  // claims a direct adjacency
        emit(dst, route.attrs);
        ++emitted_for_dst;
        continue;
      }
      path.assign(1, self());
      path.insert(path.end(), route.path.begin(), route.path.end());
      if (mis == Misbehavior::kRouteLeak) {
        RouteAttrs open;  // wide open: every source/QoS/UCI/hour
        open.cost = route.attrs.cost;
        emit(dst, open);
        ++emitted_for_dst;
        continue;
      }
      // Transit: we may re-advertise only under our own Policy Terms that
      // accept traffic arriving from `neighbor` and departing toward the
      // route's next hop, bound for `dst`.
      const AdId next = route.path.front();
      for (const PolicyTerm& t : own_terms) {
        if (emitted_for_dst >= config_.routes_per_dest) break;
        if (!t.prev_hops.contains(neighbor)) continue;
        if (!t.next_hops.contains(next)) continue;
        if (!t.dests.contains(dst)) continue;
        RouteAttrs attrs = route.attrs;
        attrs.sources = intersect_sets(attrs.sources, t.sources);
        attrs.qos_mask &= t.qos_mask;
        attrs.uci_mask &= t.uci_mask;
        attrs.hour_mask &= hour_window_mask(t.hour_begin, t.hour_end);
        attrs.cost += t.cost;
        if (!attrs.usable()) continue;
        emit(dst, attrs);
        ++emitted_for_dst;
      }
    }
  }
  if (mis == Misbehavior::kFalseOrigin) {
    const AdId victim = net().misbehavior_victim(self());
    if (victim.valid() && victim != self() && victim != neighbor) {
      path.assign(1, self());  // "the victim is me" -- shortest possible claim
      emit(victim, RouteAttrs{});
    }
  }
  w.u16_at(1, count);
  return w.bytes();
}

namespace {

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : bytes) hash = (hash ^ b) * 0x100000001b3ULL;
  return hash;
}

}  // namespace

void IdrpNode::advertise(MsgClass cls) {
  // A refresh bypasses the identical-update suppression: its point is to
  // repair a neighbor that missed a triggered update.
  if (cls == MsgClass::kRefresh) last_sent_hash_.clear();
  // Shared fast path: with previous-hop-agnostic terms, encode_for only
  // depends on the neighbor through sender-side loop suppression, which
  // the receiver re-checks anyway (self-in-path rejection). One generic
  // encode (no suppression) then serves every neighbor.
  bool generic_ok = config_.shared_updates;
  if (generic_ok) {
    for (const PolicyTerm& t : policies_->terms(self())) {
      if (!t.prev_hops.is_any()) {
        generic_ok = false;
        break;
      }
    }
  }
  Payload shared;
  std::uint64_t shared_hash = 0;
  for (const Adjacency& adj : live_neighbors()) {
    if (generic_ok) {
      if (!shared) {
        shared = make_payload(encode_for(kNoAd));  // an exact-size copy
        shared_hash = fnv1a(*shared);
      }
      auto [sent, inserted] = last_sent_hash_.try_emplace(adj.neighbor.v, 0);
      if (!inserted && sent == shared_hash) continue;
      sent = shared_hash;
      net().send(self(), adj.neighbor, shared, cls);
      continue;
    }
    const std::vector<std::uint8_t>& update = encode_for(adj.neighbor);
    const std::uint64_t hash = fnv1a(update);
    auto [sent, inserted] = last_sent_hash_.try_emplace(adj.neighbor.v, 0);
    if (!inserted && sent == hash) continue;  // nothing new for them
    sent = hash;
    net().send(self(), adj.neighbor, update, cls);  // an exact-size copy
  }
}

namespace {

// Route selection's per-thread scratch, reused by every reselect on the
// thread (the sharded backend runs nodes on worker threads). An update,
// a link change or a dropped neighbor marks the destinations it may have
// changed; the reselect that follows on the same thread consumes them.
struct SelectScratch {
  // Marked destination -> group number, in marking order.
  DenseMap<std::uint32_t, std::uint32_t> group_of;
  // Each group's candidates in scan order, then its chosen routes;
  // groups past group_of.size() are left over from earlier calls and
  // keep their capacity.
  std::vector<std::vector<const IdrpRoute*>> groups;
  // The loc-RIB's order may have changed: a usable table's destination
  // sequence changed, or a table's usability or rank did.
  bool order_stale = false;
  // Where each destination's routes sit in the table being replaced,
  // indexed by AD number; a slot is live only while its stamp is
  // current, so forgetting them all is one increment.
  struct Run {
    std::uint32_t stamp = 0;
    std::uint32_t first = 0;
    std::uint32_t count = 0;
  };
  std::vector<Run> runs;
  std::uint32_t stamp = 0;

  std::uint32_t next_stamp() {
    if (++stamp == 0) {
      std::fill(runs.begin(), runs.end(), Run{});
      stamp = 1;
    }
    return stamp;
  }

  void mark(AdId dst) {
    const auto next = static_cast<std::uint32_t>(group_of.size());
    const auto [group, first] = group_of.try_emplace(dst.v, next);
    if (first) {
      if (group == groups.size()) groups.emplace_back();
      groups[group].clear();
    }
  }

  // A whole table's candidates appear, vanish or move in the scan.
  void mark_all(std::span<const IdrpRoute> routes) {
    for (const IdrpRoute& route : routes) mark(route.dst);
    if (!routes.empty()) order_stale = true;
  }
};

SelectScratch& select_scratch() {
  thread_local SelectScratch s;
  return s;
}

// Adj-RIB-in capacity grows in steps of this many routes.
constexpr std::size_t kAdjRibStep = 16;

// Copy-assigned over a neighbor's previous routes, so their buffers are
// reused. A growing table moves into a buffer sized in whole steps of
// kAdjRibStep routes, keeping its routes' path buffers. Measured on the
// 1e4-AD scale profile's cold start (glibc malloc): exact-size growth
// left 19 MB of odd-sized freed buffers stranded in the heap, and
// copying every route afresh on growth cost 7 more allocations per
// event.
void assign_table(std::vector<IdrpRoute>& table,
                  std::span<const IdrpRoute> fresh) {
  table.reserve((fresh.size() + kAdjRibStep - 1) / kAdjRibStep * kAdjRibStep);
  table.assign(fresh.begin(), fresh.end());
}

// Replaces a usable table with `fresh`, marking each destination whose
// routes in it changed: the run of routes the table lists for it. `ads`
// bounds the destinations the run index holds. A table that lists a
// destination in two places (a false-origin claim appended after the
// honest routes) or an out-of-range one (a corrupted frame) is taken as
// wholly changed.
void replace_table(std::vector<IdrpRoute>& table,
                   std::span<const IdrpRoute> fresh, std::size_t ads,
                   SelectScratch& s) {
  const auto same_dst = [](const IdrpRoute& a, const IdrpRoute& b) {
    return a.dst == b.dst;
  };
  if (std::equal(table.begin(), table.end(), fresh.begin(), fresh.end(),
                 same_dst)) {
    // Same destinations in the same order: compare in place, and copy
    // only the routes that changed.
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      if (table[i] == fresh[i]) continue;
      s.mark(fresh[i].dst);
      table[i] = fresh[i];
    }
    return;
  }
  s.order_stale = true;
  const auto diff = [&] {
    if (s.runs.size() < ads) s.runs.resize(ads);
    const std::uint32_t in_old = s.next_stamp();
    for (std::uint32_t i = 0; i < table.size(); ++i) {
      if (table[i].dst.v >= ads) return false;
      SelectScratch::Run& run = s.runs[table[i].dst.v];
      if (run.stamp != in_old) {
        run = {in_old, i, 1};
      } else if (run.first + run.count == i) {
        ++run.count;
      } else {
        return false;
      }
    }
    const std::uint32_t seen = s.next_stamp();
    for (std::size_t j = 0, end = 0; j < fresh.size(); j = end) {
      const AdId dst = fresh[j].dst;
      if (dst.v >= ads) return false;
      end = j + 1;
      while (end < fresh.size() && fresh[end].dst == dst) ++end;
      SelectScratch::Run& run = s.runs[dst.v];
      if (run.stamp == seen) return false;
      if (run.stamp != in_old ||
          !std::equal(table.begin() + run.first,
                      table.begin() + run.first + run.count,
                      fresh.begin() + j, fresh.begin() + end)) {
        s.mark(dst);
      }
      run.stamp = seen;
    }
    for (const IdrpRoute& route : table) {  // gone from the new table
      SelectScratch::Run& run = s.runs[route.dst.v];
      if (run.stamp != in_old) continue;
      s.mark(route.dst);
      run.stamp = seen;
    }
    return true;
  };
  if (!diff()) {
    s.mark_all(table);
    s.mark_all(fresh);
  }
  assign_table(table, fresh);
}

}  // namespace

// The routes an update keeps. Slots past `size` hold the buffers earlier
// updates on this thread left, so decoding into them allocates only
// when a route outgrows every one before it.
struct IdrpNode::KeptRoutes {
  std::vector<IdrpRoute> slots;
  std::size_t size = 0;

  IdrpRoute& push() {
    if (size == slots.size()) slots.emplace_back();
    return slots[size++];
  }
};

void IdrpNode::on_message(AdId from, std::span<const std::uint8_t> bytes) {
  // Parse the whole update before replacing the adj-RIB-in: a truncated
  // PDU must not masquerade as a (shorter) full-state update and
  // implicitly withdraw routes the sender still advertises. Routes are
  // decoded and kept in per-thread scratch, so a count the bytes cannot
  // back costs nothing.
  wire::Reader r(bytes);
  const std::uint8_t type = r.u8();
  const std::uint16_t count = r.u16();
  if (!r.ok() || type != kMsgUpdate) {
    drop_malformed();
    return;
  }
  thread_local IdrpRoute route;
  thread_local KeptRoutes kept;
  kept.size = 0;
  for (std::uint16_t i = 0; i < count; ++i) {
    if (!route.decode_from(r)) {
      drop_malformed();
      return;
    }
    // Receiver-side validation: path must start at the sender, must not
    // contain us (AD loop), and must serve at least one flow.
    if (route.path.empty() || route.path.front() != from) continue;
    if (std::find(route.path.begin(), route.path.end(), self()) !=
        route.path.end()) {
      continue;
    }
    if (route.dst == self()) continue;
    if (!route.attrs.usable()) continue;
    if (config_.defend) {
      defend_and_keep(from, route, kept);
    } else {
      kept.push() = route;
    }
  }
  // The destinations whose candidates this update changes: those whose
  // routes from `from` differ, or all of the old or new table's when the
  // link's usability flipped since the last reselect.
  SelectScratch& s = select_scratch();
  AdjRibIn& rib = adj_rib_in_[from.v];
  const std::span<const IdrpRoute> fresh(kept.slots.data(), kept.size);
  const bool usable = link_usable(from);
  if (rib.usable && usable) {
    replace_table(rib.routes, fresh, topo().ad_count(), s);
  } else {
    if (rib.usable) s.mark_all(rib.routes);
    if (usable) s.mark_all(fresh);
    assign_table(rib.routes, fresh);
    rib.usable = usable;
  }
  stale_nbrs_.erase(from.v);  // a full-table update IS the GR resync
  reselect_and_maybe_advertise();
}

void IdrpNode::defend_and_keep(AdId from, const IdrpRoute& route,
                               KeptRoutes& kept) {
  // Neighbor-consistency rejection. The path must really end at the
  // claimed destination (a false-origin path=[liar] for someone else's
  // dst fails here) and every consecutive pair on it must be statically
  // adjacent (a tampered "direct adjacency" shortcut fails here).
  if (route.path.back() != route.dst) {
    net().note_defense_rejection(self());
    return;
  }
  for (std::size_t i = 0; i + 1 < route.path.size(); ++i) {
    if (!topo().find_link(route.path[i], route.path[i + 1])) {
      net().note_defense_rejection(self());
      return;
    }
  }
  if (route.path.size() == 1) {
    kept.push() = route;  // origin route: dst == from
    return;
  }
  // Transit route: clamp to the sender's *registered* Policy Terms,
  // mirroring what an honest `from` would have computed in encode_for.
  // An honest advertisement survives unchanged (its producing term's
  // clamp is the identity on it); a leaked wide-open one is narrowed to
  // what `from` was actually allowed to say -- and rejected outright if
  // no registered term of `from` covers this (prev=us, next, dst) at all
  // (a stub has no terms, so any transit route from it dies here).
  const AdId next = route.path[1];
  bool any = false;
  for (const PolicyTerm& t : policies_->terms(from)) {
    if (!t.prev_hops.contains(self())) continue;
    if (!t.next_hops.contains(next)) continue;
    if (!t.dests.contains(route.dst)) continue;
    RouteAttrs clamped;
    clamped.sources = intersect_sets(route.attrs.sources, t.sources);
    clamped.qos_mask = route.attrs.qos_mask & t.qos_mask;
    clamped.uci_mask = route.attrs.uci_mask & t.uci_mask;
    clamped.hour_mask =
        route.attrs.hour_mask & hour_window_mask(t.hour_begin, t.hour_end);
    clamped.cost = route.attrs.cost;
    if (!clamped.usable()) continue;
    IdrpRoute& copy = kept.push();
    copy.dst = route.dst;
    copy.path = route.path;
    copy.attrs = std::move(clamped);
    any = true;
  }
  if (!any) net().note_defense_rejection(self());
}

void IdrpNode::on_link_change(AdId neighbor, bool up) {
  if (up) {
    // The session state is void: a fresh neighbor must receive our full
    // table even if it is byte-identical to the last one sent. With GR
    // this is the resync toward the restarted neighbor.
    last_sent_hash_.erase(neighbor.v);
    if (net().gr().enabled) ++gr_resyncs_;
    advertise();
    return;
  }
  if (net().in_grace(neighbor)) {
    // Graceful restart: retain the neighbor's Adj-RIB-in and skip the
    // reselect -- no churn propagates downstream. The neighbor's resync
    // update (a full table, implicit withdrawal semantics) supersedes
    // the retained state wholesale; otherwise the flush timer erases it
    // just past grace expiry.
    if (adj_rib_in_.find(neighbor.v) &&
        stale_nbrs_.insert(neighbor.v).second) {
      schedule_stale_flush(neighbor);
    }
    return;
  }
  drop_neighbor(neighbor);
}

void IdrpNode::flush_stale(AdId neighbor) {
  if (stale_nbrs_.erase(neighbor.v) == 0) return;  // resynced in time
  ++gr_stale_flushed_;
  drop_neighbor(neighbor);
}

void IdrpNode::drop_neighbor(AdId neighbor) {
  last_sent_hash_.erase(neighbor.v);
  if (const AdjRibIn* rib = adj_rib_in_.find(neighbor.v)) {
    // Its candidates go, and erase() moves the last table into its
    // slot, so that table's candidates now come earlier in the scan.
    SelectScratch& s = select_scratch();
    if (rib->usable) s.mark_all(rib->routes);
    const AdjRibIn& last = adj_rib_in_.values().back();
    if (&last != rib && last.usable) s.mark_all(last.routes);
    adj_rib_in_.erase(neighbor.v);
  }
  reselect_and_maybe_advertise();
}

bool IdrpNode::link_usable(AdId neighbor) const {
  const auto link = topo().find_link(self(), neighbor);
  return link && topo().link(*link).up;
}

namespace {

// Orders one destination's candidates shortest path first, then
// cheapest, ties in scan order. An insertion sort: stable, and it needs
// no buffer for the few candidates a destination has.
void sort_candidates(std::span<const IdrpRoute*> run) {
  const auto before = [](const IdrpRoute* a, const IdrpRoute* b) {
    if (a->path.size() != b->path.size()) {
      return a->path.size() < b->path.size();
    }
    return a->attrs.cost < b->attrs.cost;
  };
  for (std::size_t i = 1; i < run.size(); ++i) {
    const IdrpRoute* cand = run[i];
    std::size_t j = i;
    for (; j > 0 && before(cand, run[j - 1]); --j) run[j] = run[j - 1];
    run[j] = cand;
  }
}

// Keeps, in front and in order, up to `limit` policy-diverse candidates:
// each one not covered by a better one already kept.
void choose(std::vector<const IdrpRoute*>& cands, std::size_t limit) {
  sort_candidates(cands);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < cands.size() && kept < limit; ++i) {
    const IdrpRoute* cand = cands[i];
    const bool redundant =
        std::any_of(cands.begin(), cands.begin() + kept,
                    [&](const IdrpRoute* k) {
                      return k->attrs.covers(cand->attrs);
                    });
    if (!redundant) cands[kept++] = cand;
  }
  cands.resize(kept);
}

bool same_routes(const std::vector<IdrpRoute>& held,
                 const std::vector<const IdrpRoute*>& chosen) {
  return std::equal(held.begin(), held.end(), chosen.begin(), chosen.end(),
                    [](const IdrpRoute& a, const IdrpRoute* b) {
                      return a == *b;
                    });
}

}  // namespace

void IdrpNode::reselect_and_maybe_advertise() {
  SelectScratch& s = select_scratch();
  // Usability is read afresh: a link can change state with no
  // on_link_change (notifications off) and with no reselect (a link
  // coming up only advertises). An empty table adds nothing either way.
  for (const auto [nbr, rib] : adj_rib_in_) {
    if (rib.routes.empty()) continue;
    const bool usable = link_usable(AdId{nbr});
    if (usable == rib.usable) continue;
    rib.usable = usable;
    s.mark_all(rib.routes);
  }

  // The marked destinations' candidates, in scan order: the usable
  // tables in Adj-RIB-in order, each in its own order.
  const auto dirty = static_cast<std::uint32_t>(s.group_of.size());
  if (dirty > 0) {
    for (const auto [nbr, rib] : adj_rib_in_) {
      if (!rib.usable) continue;
      for (const IdrpRoute& route : rib.routes) {
        if (const std::uint32_t* g = s.group_of.find(route.dst.v)) {
          s.groups[*g].push_back(&route);
        }
      }
    }
  }

  // Select each marked destination: up to routes_per_dest policy-diverse
  // routes. A destination that keeps its entry is updated in place, its
  // buffers reused; one that gains or loses its entry changes the
  // loc-RIB's destination set. Each change re-hashes that destination
  // in the signature and, with damping, is one flap.
  const SimTime now = net().engine().now();
  std::size_t size = loc_rib_.size();
  bool reorder = s.order_stale;
  for (std::uint32_t g = 0; g < dirty; ++g) {
    ++selections_;
    std::vector<const IdrpRoute*>& chosen = s.groups[g];
    choose(chosen, config_.routes_per_dest);
    const std::uint32_t dst = s.group_of.key_at(g);
    std::vector<IdrpRoute>* held = loc_rib_.find(dst);
    if (held ? same_routes(*held, chosen) : chosen.empty()) continue;
    const std::uint64_t old_hash = held ? dst_hash(dst, *held) : 0;
    std::uint64_t new_hash = 0;
    if (chosen.empty()) {
      // The entry goes when the loc-RIB is rebuilt below.
      --size;
      reorder = true;
    } else if (held) {
      held->resize(chosen.size());
      for (std::size_t i = 0; i < chosen.size(); ++i) {
        if (!((*held)[i] == *chosen[i])) (*held)[i] = *chosen[i];
      }
      new_hash = dst_hash(dst, *held);
    } else {
      // The entry is made when the loc-RIB is rebuilt below.
      ++size;
      reorder = true;
      new_hash = dst_hash(dst, chosen);
    }
    rib_signature_ ^= old_hash ^ new_hash;
    // A destination appearing for the first time is initial learning,
    // not a flap (RFC 2439 shape) -- cold start accrues no penalty.
    if (damper_.enabled() && held &&
        (chosen.empty() || old_hash != new_hash)) {
      damper_.note_flap(dst, now);
    }
  }

  // Rebuild the loc-RIB in encode order when that order or its
  // destination set may have changed: our own origin, then destinations
  // by first appearance over the usable tables. It is built afresh at
  // its exact size: growing it in place through the cold start left
  // 20-23 MB of freed arrays stranded in the heap (glibc malloc, 1e4-AD
  // scale profile).
  if (reorder) {
    DenseMap<std::uint32_t, std::vector<IdrpRoute>> fresh;
    fresh.reserve(size);
    if (std::vector<IdrpRoute>* own = loc_rib_.find(self().v)) {
      fresh.try_emplace(self().v, std::move(*own));
    }
    for (const auto [nbr, rib] : adj_rib_in_) {
      if (!rib.usable) continue;
      for (const IdrpRoute& route : rib.routes) {
        const std::uint32_t dst = route.dst.v;
        if (fresh.contains(dst)) continue;
        const std::uint32_t* g = s.group_of.find(dst);
        if (g && s.groups[*g].empty()) continue;  // its entry goes
        if (std::vector<IdrpRoute>* held = loc_rib_.find(dst)) {
          fresh.try_emplace(dst, std::move(*held));
          continue;
        }
        if (!g) continue;  // never chosen (routes_per_dest 0)
        std::vector<IdrpRoute>& routes = fresh[dst];
        routes.reserve(s.groups[*g].size());
        for (const IdrpRoute* chosen : s.groups[*g]) routes.push_back(*chosen);
      }
    }
    IDR_CHECK(fresh.size() == size);
    loc_rib_ = std::move(fresh);
  }
  s.group_of.clear();
  s.order_stale = false;

  if (damper_.enabled()) maybe_schedule_release_check();
  const std::uint64_t sig = advertised_signature();
  if (sig != last_advertised_signature_) {
    last_advertised_signature_ = sig;
    trigger_advertise();
  }
}

std::uint64_t IdrpNode::advertised_signature() const {
  std::uint64_t sig = rib_signature_;
  if (!damper_.enabled()) return sig;
  // Pure query: the signature must not mutate damper state.
  const SimTime now = net().engine().now();
  for (const std::uint64_t key : damper_.tracked_keys()) {
    const auto dst = static_cast<std::uint32_t>(key);
    const std::vector<IdrpRoute>* routes = loc_rib_.find(dst);
    if (routes && damper_.would_suppress(key, now)) {
      sig ^= dst_hash(dst, *routes);
    }
  }
  return sig;
}

std::optional<AdId> IdrpNode::forward(const FlowSpec& flow, AdId prev) const {
  const std::vector<IdrpRoute>* selected = loc_rib_.find(flow.dst.v);
  if (!selected) return std::nullopt;
  for (const IdrpRoute& route : *selected) {
    if (route.path.empty()) continue;  // origin route (we are dst)
    if (!route.attrs.permits(flow)) continue;
    const auto link = topo().find_link(self(), route.path.front());
    if (!link || !topo().link(*link).up) continue;
    // Transit packets must additionally satisfy our own policy for the
    // concrete (prev, next) transition they make through us -- unless we
    // are the leaker: a route-leaking AD carries the transit traffic its
    // illegal advertisements attracted (that is what makes a leak a leak
    // rather than a black hole).
    if (self() != flow.src && prev.valid() &&
        !net().misbehaving_as(self(), Misbehavior::kRouteLeak) &&
        !policies_->transit_cost(self(), flow, prev, route.path.front())) {
      continue;
    }
    return route.path.front();
  }
  return std::nullopt;
}

const IdrpRoute* IdrpNode::select(const FlowSpec& flow) const {
  const std::vector<IdrpRoute>* selected = loc_rib_.find(flow.dst.v);
  if (!selected) return nullptr;
  for (const IdrpRoute& route : *selected) {
    if (route.path.empty()) continue;  // origin route (we are dst)
    if (!route.attrs.permits(flow)) continue;
    const auto link = topo().find_link(self(), route.path.front());
    if (!link || !topo().link(*link).up) continue;
    return &route;
  }
  return nullptr;
}

const std::vector<IdrpRoute>* IdrpNode::routes(AdId dst) const {
  return loc_rib_.find(dst.v);
}

std::size_t IdrpNode::loc_rib_routes() const noexcept {
  std::size_t n = 0;
  for (const auto [dst, routes] : loc_rib_) n += routes.size();
  return n;
}

std::size_t IdrpNode::adj_rib_routes() const noexcept {
  std::size_t n = 0;
  for (const auto [nbr, rib] : adj_rib_in_) n += rib.routes.size();
  return n;
}

std::size_t IdrpNode::routes_for(AdId dst) const {
  const std::vector<IdrpRoute>* r = loc_rib_.find(dst.v);
  return r ? r->size() : 0;
}

}  // namespace idr
