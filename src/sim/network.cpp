#include "sim/network.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace idr {

// --- Node: delivery + keepalive liveness -----------------------------

namespace {
// Probing a dead neighbor: the spacing doubles per probe, up to this
// many keepalive intervals.
constexpr double kProbeBackoff = 2.0;
constexpr double kMaxProbeIntervals = 8.0;

// One process-wide keepalive frame, shared by every node's every probe.
const Payload& keepalive_payload() {
  static const Payload p = std::make_shared<const std::vector<std::uint8_t>>(
      1, Node::kKeepaliveType);
  return p;
}
}  // namespace

void Node::deliver(AdId from, std::uint32_t slot,
                   std::span<const std::uint8_t> bytes, SimTime heard_at) {
  // Any frame heard from a neighbor -- keepalive, protocol PDU, even a
  // mangled one -- proves the neighbor was up when the frame arrived and
  // refreshes its hold timer from that arrival time (which trails "now"
  // only when the frame sat in an overload queue).
  if (keepalive_enabled_) {
    note_heard(from, slot, heard_at < 0.0 ? net_->engine().now() : heard_at);
  }
  if (bytes.size() == 1 && bytes[0] == kKeepaliveType) return;
  on_message(from, bytes);
}

void Node::enable_keepalive(const KeepaliveConfig& config) {
  keepalive_ = config;
  keepalive_enabled_ = keepalive_.interval_ms > 0.0;
  if (!keepalive_enabled_) return;

  NeighborLiveness nl;
  nl.last_heard = net_->engine().now();  // grace: fresh node presumes liveness
  nl.probe_interval_ms = keepalive_.interval_ms;
  liveness_.assign(net_->topo().neighbors(self_).size(), nl);
  schedule_keepalive_tick(keepalive_.interval_ms);
}

bool Node::neighbor_alive(AdId neighbor) const {
  // A quarantined neighbor is administratively dead regardless of what
  // the hold timer last concluded (its frames are blocked, so the timer
  // will agree shortly anyway).
  if (net_ && net_->is_quarantined(neighbor)) return false;
  // With the crash oracle on, a crashed neighbor is dead the moment it
  // crashes -- unless it is gracefully restarting, in which case the
  // whole point is that neighbors keep treating it as up for the grace
  // window (LS adjacencies retained, DV routes kept stale-but-usable).
  if (net_ && net_->crash_notifications() && !net_->alive(neighbor) &&
      !net_->in_grace(neighbor)) {
    return false;
  }
  if (!keepalive_enabled_) return true;
  const auto link = net_->topo().find_link(self_, neighbor);
  if (!link) return true;
  const std::uint32_t slot = net_->topo().adjacency_slot(*link, self_);
  return slot >= liveness_.size() || liveness_[slot].alive;
}

void Node::keepalive_tick() {
  const SimTime now = net_->engine().now();
  const SimTime hold_ms =
      keepalive_.interval_ms * static_cast<double>(keepalive_.miss_threshold);
  const std::span<const Adjacency> nbrs = net_->topo().neighbors(self_);
  for (std::size_t slot = 0; slot < nbrs.size(); ++slot) {
    const Adjacency& adj = nbrs[slot];
    NeighborLiveness& nl = liveness_[slot];
    if (nl.alive) {
      net_->send(self_, adj.neighbor, keepalive_payload(),
                 MsgClass::kKeepalive);
      if (now - nl.last_heard > hold_ms) {
        // Hold timer expired: the neighbor crashed or the link silently
        // died. Declare it down and fall back to backed-off probing.
        nl.alive = false;
        nl.probe_interval_ms = keepalive_.interval_ms;
        nl.next_probe_at = now + nl.probe_interval_ms;
        nl.declared_dead_at = now;
        on_link_change(adj.neighbor, false);
      }
    } else if (now >= nl.next_probe_at) {
      net_->send(self_, adj.neighbor, keepalive_payload(),
                 MsgClass::kKeepalive);
      nl.probe_interval_ms =
          std::min(nl.probe_interval_ms * kProbeBackoff,
                   kMaxProbeIntervals * keepalive_.interval_ms);
      nl.next_probe_at = now + nl.probe_interval_ms;
    }
  }
  schedule_keepalive_tick(keepalive_.interval_ms);
}

void Node::schedule_guarded(SimTime delay_ms, std::function<void()> fn) {
  // The timer must survive this node being crashed out from under it:
  // capture (network, AD, generation) instead of `this`. The generation
  // is bumped on crash, so a matching generation proves the very same
  // node object is still attached and `fn`'s captures are valid.
  //
  // Scheduled on the node's own stream with the node as owner: on a
  // sharded engine the timer fires on this node's shard (never on a
  // thread that doesn't own its state), and its position in the total
  // event order is independent of the shard count.
  Network* net = net_;
  const AdId self = self_;
  const std::uint64_t gen = net->generation(self);
  net->engine().after_node(
      delay_ms, self.v + 1, self.v, [net, self, gen, fn = std::move(fn)] {
        if (net->generation(self) != gen || !net->alive(self)) return;
        fn();
      });
}

void Node::schedule_keepalive_tick(SimTime delay_ms) {
  schedule_guarded(delay_ms, [this] { keepalive_tick(); });
}

void Node::note_heard(AdId from, std::uint32_t slot, SimTime heard_at) {
  if (net_ && net_->is_quarantined(from)) return;  // no revival while isolated
  if (slot >= liveness_.size()) return;
  NeighborLiveness& nl = liveness_[slot];
  // Monotone refresh: a frame serviced late out of an overload queue
  // carries its (older) arrival time and must never rewind the hold
  // timer past evidence already accounted for.
  nl.last_heard = std::max(nl.last_heard, heard_at);
  if (!nl.alive) {
    // Revival needs evidence from at or after the death declaration. A
    // queued frame that arrived before the hold timer expired is exactly
    // the stale timestamp that must not vouch for a neighbor which has
    // since revived and re-expired (or never came back at all).
    if (heard_at < nl.declared_dead_at) return;
    nl.alive = true;
    nl.probe_interval_ms = keepalive_.interval_ms;
    on_link_change(from, true);
  }
}

// --- Network ---------------------------------------------------------

const char* to_string(MsgClass c) noexcept {
  switch (c) {
    case MsgClass::kKeepalive: return "keepalive";
    case MsgClass::kWithdrawal: return "withdrawal";
    case MsgClass::kUpdate: return "update";
    case MsgClass::kRefresh: return "refresh";
  }
  return "?";
}

const char* to_string(Misbehavior m) noexcept {
  switch (m) {
    case Misbehavior::kNone: return "none";
    case Misbehavior::kFalseOrigin: return "false-origin";
    case Misbehavior::kRouteLeak: return "route-leak";
    case Misbehavior::kTamper: return "tamper";
    case Misbehavior::kBlackHole: return "black-hole";
  }
  return "?";
}

Network::Network(Engine& engine, Topology& topo)
    : engine_(engine), topo_(topo) {
  nodes_.resize(topo.ad_count());
  generations_.resize(topo.ad_count(), 0);
  counters_.resize(topo.ad_count());
  last_delivery_.resize(topo.ad_count(), 0.0);
  byz_by_ad_.resize(topo.ad_count());
  quarantined_.resize(topo.ad_count(), 0);
  frozen_.resize(topo.ad_count());
  grace_deadline_.resize(topo.ad_count(), 0.0);
}

// --- Byzantine / misconfigured ADs -----------------------------------

void Network::set_misbehavior(const ByzantineSpec& spec) {
  IDR_CHECK(spec.ad.v < byz_by_ad_.size());
  byz_specs_.push_back(spec);
  byz_by_ad_[spec.ad.v] = spec;
}

Misbehavior Network::misbehavior_kind(AdId ad) const {
  IDR_CHECK(ad.v < byz_by_ad_.size());
  return byz_by_ad_[ad.v].kind;
}

AdId Network::misbehavior_victim(AdId ad) const {
  IDR_CHECK(ad.v < byz_by_ad_.size());
  return byz_by_ad_[ad.v].victim;
}

Misbehavior Network::active_misbehavior(AdId ad) const {
  IDR_CHECK(ad.v < byz_by_ad_.size());
  const ByzantineSpec& spec = byz_by_ad_[ad.v];
  if (spec.kind == Misbehavior::kNone) return Misbehavior::kNone;
  if (engine_.now() < spec.start_ms) return Misbehavior::kNone;
  return spec.kind;
}

bool Network::drops_traffic(AdId ad, AdId dst) const {
  if (ad == dst) return false;  // terminal delivery at self always works
  const Misbehavior kind = active_misbehavior(ad);
  if (kind == Misbehavior::kBlackHole) return true;
  if (kind == Misbehavior::kFalseOrigin) {
    return misbehavior_victim(ad) == dst;
  }
  return false;
}

void Network::quarantine(AdId ad) {
  IDR_CHECK(ad.v < quarantined_.size());
  if (quarantined_[ad.v]) return;
  quarantined_[ad.v] = 1;
  if (churn_observer_) churn_observer_(ChurnKind::kNode);
  // Tell alive neighbors immediately -- the modeled conformance monitor
  // plays the role of an operator yanking the session.
  for (const Adjacency& adj : topo_.neighbors(ad)) {
    if (Node* n = nodes_[adj.neighbor.v].get()) n->on_link_change(ad, false);
  }
}

bool Network::is_quarantined(AdId ad) const {
  IDR_CHECK(ad.v < quarantined_.size());
  return quarantined_[ad.v] != 0;
}

void Network::note_defense_rejection(AdId ad) {
  IDR_CHECK(ad.v < counters_.size());
  counters_[ad.v].defense_rejections += 1;
}

void Network::attach(AdId ad, std::unique_ptr<Node> node) {
  IDR_CHECK(ad.v < nodes_.size());
  IDR_CHECK_MSG(!nodes_[ad.v], "node already attached to this AD");
  node->net_ = this;
  node->self_ = ad;
  nodes_[ad.v] = std::move(node);
}

void Network::start_all() {
  for (auto& node : nodes_) {
    IDR_CHECK_MSG(node != nullptr, "every AD needs a node before start");
  }
  for (auto& node : nodes_) node->start();
}

Node* Network::node(AdId ad) {
  IDR_CHECK(ad.v < nodes_.size());
  return nodes_[ad.v].get();
}

bool Network::alive(AdId ad) const {
  IDR_CHECK(ad.v < nodes_.size());
  return nodes_[ad.v] != nullptr;
}

std::uint64_t Network::generation(AdId ad) const {
  IDR_CHECK(ad.v < generations_.size());
  return generations_[ad.v];
}

void Network::crash(AdId ad) {
  IDR_CHECK(ad.v < nodes_.size());
  if (!nodes_[ad.v]) return;  // already down
  if (gr_.enabled) {
    // Graceful restart: the control plane dies but the forwarding state
    // survives as a frozen zombie for one grace window. On a re-crash
    // within grace the original (fully converged) zombie is kept -- the
    // re-crashed node's half-resynced FIB would be a worse snapshot --
    // and the deadline is pushed out.
    if (!frozen_[ad.v]) {
      frozen_[ad.v] = std::move(nodes_[ad.v]);
      ++in_grace_count_;
    }
    const SimTime deadline = engine_.now() + gr_.grace_ms;
    grace_deadline_[ad.v] = deadline;
    engine_.after(gr_.grace_ms, [this, ad, deadline] {
      // A later crash extends the window; only the newest deadline acts.
      if (!frozen_[ad.v] || grace_deadline_[ad.v] != deadline) return;
      end_grace(ad);
    });
  }
  nodes_[ad.v].reset();  // all soft state gone
  ++generations_[ad.v];  // orphan its pending timers
  ++crashes_;
  ++down_count_;
  if (overload_.enabled() && ad.v < ingress_.size()) {
    // A crash loses the ingress queue along with everything else.
    IngressQueue& iq = ingress_[ad.v];
    for (auto& q : iq.cls) {
      iq.stats.cleared_on_crash += q.size();
      q.clear();
    }
    iq.depth = 0;
  }
  if (crash_notifications_) {
    for (const Adjacency& adj : topo_.neighbors(ad)) {
      if (topo_.link(adj.link).up && nodes_[adj.neighbor.v]) {
        nodes_[adj.neighbor.v]->on_link_change(ad, false);
      }
    }
  }
  if (churn_observer_) churn_observer_(ChurnKind::kNode);
}

void Network::end_grace(AdId ad) {
  // Grace over: drop the frozen forwarding state. If the control plane
  // restarted in time this is the hitless handover to its resynced FIB;
  // if not, it is the stale flush -- the AD now looks hard-down to
  // everyone (neighbor_alive stops vouching for it, probes stop
  // resolving its zombie), which is itself a forwarding change worth a
  // churn event.
  frozen_[ad.v].reset();
  --in_grace_count_;
  if (nodes_[ad.v]) {
    ++gr_recoveries_;
  } else {
    ++gr_flushes_;
  }
  if (churn_observer_) churn_observer_(ChurnKind::kNode);
}

bool Network::in_grace(AdId ad) const {
  IDR_CHECK(ad.v < frozen_.size());
  return frozen_[ad.v] != nullptr;
}

Node* Network::forwarding_node(AdId ad) {
  IDR_CHECK(ad.v < nodes_.size());
  if (frozen_[ad.v]) return frozen_[ad.v].get();
  return nodes_[ad.v].get();
}

void Network::restart(AdId ad) {
  IDR_CHECK(ad.v < nodes_.size());
  if (nodes_[ad.v]) return;  // already up
  IDR_CHECK_MSG(static_cast<bool>(node_factory_),
                "Network::restart requires set_node_factory");
  std::unique_ptr<Node> node = node_factory_(ad);
  IDR_CHECK_MSG(node != nullptr, "node factory returned null");
  node->net_ = this;
  node->self_ = ad;
  nodes_[ad.v] = std::move(node);
  if (keepalive_default_set_) {
    nodes_[ad.v]->enable_keepalive(default_keepalive_);
  }
  nodes_[ad.v]->start();  // cold start: the protocol rebuilds from scratch
  if (down_count_ > 0) --down_count_;
  if (crash_notifications_) {
    // The recovery signal: neighbors resync the restarted control plane
    // (targeted refresh / LSDB sync), which under GR is the incremental
    // path back to a fresh FIB before the grace deadline hands over.
    for (const Adjacency& adj : topo_.neighbors(ad)) {
      if (topo_.link(adj.link).up && nodes_[adj.neighbor.v]) {
        nodes_[adj.neighbor.v]->on_link_change(ad, true);
      }
    }
  }
  if (churn_observer_) churn_observer_(ChurnKind::kNode);
}

void Network::set_keepalive(const KeepaliveConfig& config) {
  default_keepalive_ = config;
  keepalive_default_set_ = true;
  for (auto& node : nodes_) {
    if (node) node->enable_keepalive(config);
  }
}

const Counters& Network::counters(AdId ad) const {
  IDR_CHECK(ad.v < counters_.size());
  return counters_[ad.v];
}

Counters Network::total() const {
  Counters t;
  for (const Counters& c : counters_) t += c;
  return t;
}

SimTime Network::last_delivery_time() const noexcept {
  SimTime t = 0.0;
  for (const SimTime s : last_delivery_) t = std::max(t, s);
  return t;
}

OverloadStats Network::overload_stats() const {
  OverloadStats total;
  for (const IngressQueue& iq : ingress_) {
    const OverloadStats& s = iq.stats;
    total.enqueued += s.enqueued;
    total.served += s.served;
    for (std::size_t c = 0; c < kMsgClassCount; ++c) {
      total.dropped[c] += s.dropped[c];
    }
    total.peak_depth = std::max(total.peak_depth, s.peak_depth);
    total.cleared_on_crash += s.cleared_on_crash;
  }
  return total;
}

void Network::reset_counters() {
  for (Counters& c : counters_) c = Counters{};
}

void Network::note_malformed(AdId ad) {
  IDR_CHECK(ad.v < counters_.size());
  counters_[ad.v].malformed_dropped += 1;
}

bool Network::send(AdId from, AdId to, Payload bytes, MsgClass cls) {
  Counters& c = counters_[from.v];
  c.msgs_sent += 1;
  c.bytes_sent += bytes->size();

  const auto link = topo_.find_link(from, to);
  if (!link || !topo_.link(*link).up) {
    c.msgs_dropped += 1;
    return false;
  }
  const double base_delay =
      topo_.link(*link).delay_ms +
      per_byte_delay_ms_ * static_cast<double>(bytes->size());

  // Adversarial per-frame faults, all decided here at send time from the
  // sender's own seeded stream: the fault schedule is a pure function of
  // (seed, sender) -- independent of event interleaving, backend, and
  // shard count -- and the delivery event below only acts on the flags,
  // so it touches nothing but the receiver's state.
  Prng* prng = fault_prng(from);
  int copies = 1;
  if (faults_.duplicate_rate > 0.0 &&
      prng->bernoulli(faults_.duplicate_rate)) {
    copies = 2;
  }
  for (int i = 0; i < copies; ++i) {
    Payload payload = (i + 1 < copies) ? bytes : std::move(bytes);
    FrameFaults fx;
    fx.duplicate = i > 0;
    double delay = base_delay;
    if (faults_.reorder_rate > 0.0 &&
        prng->bernoulli(faults_.reorder_rate)) {
      delay += prng->uniform_real(0.0, faults_.reorder_extra_ms);
      fx.reordered = true;
    }
    if (faults_.corrupt_rate > 0.0 && !payload->empty() &&
        prng->bernoulli(faults_.corrupt_rate)) {
      // Copy-on-write: the mangled frame must not contaminate other
      // receivers of a shared broadcast payload.
      fx.corrupted = true;
      auto mangled =
          std::make_shared<std::vector<std::uint8_t>>(*payload);
      const std::uint64_t flips = 1 + prng->below(3);
      for (std::uint64_t f = 0; f < flips; ++f) {
        const std::size_t at =
            static_cast<std::size_t>(prng->below(mangled->size()));
        (*mangled)[at] ^=
            static_cast<std::uint8_t>(1u << prng->below(8));
      }
      payload = std::move(mangled);
      if (faults_.corrupt_deliver_fraction < 1.0 &&
          !prng->bernoulli(faults_.corrupt_deliver_fraction)) {
        fx.checksum_caught = true;
      }
    }
    if (faults_.loss_rate > 0.0 && prng->bernoulli(faults_.loss_rate)) {
      fx.lost = true;
    }
    deliver_frame(from, to, *link, std::move(payload), delay, fx, cls);
  }
  return true;
}

void Network::deliver_frame(AdId from, AdId to, LinkId link, Payload bytes,
                            double delay_ms, FrameFaults fx, MsgClass cls) {
  // Keyed by the sender's stream (its position in the deterministic total
  // order), owned by the receiver (the shard it executes on).
  engine_.after_node(delay_ms, from.v + 1, to.v,
                     [this, from, to, link, fx, cls,
                      payload = std::move(bytes)]() {
    // Receiver-side accounting only: this is `to`'s event. The fault
    // flags count at the receiving interface whether or not the frame
    // survives to the protocol.
    Counters& c = counters_[to.v];
    if (fx.duplicate) c.msgs_duplicated += 1;
    if (fx.reordered) c.msgs_reordered += 1;
    if (fx.corrupted) c.msgs_corrupted += 1;
    // Link may have gone down while the message was in flight.
    if (!topo_.link(link).up) {
      c.msgs_dropped += 1;
      return;
    }
    if (fx.lost) {
      c.msgs_lost += 1;
      c.msgs_dropped += 1;
      return;
    }
    if (fx.checksum_caught) {
      // The modeled datagram checksum caught the mangled frame at the
      // receiving interface; it never reaches the protocol.
      c.msgs_dropped += 1;
      return;
    }
    if (quarantined_[from.v]) {
      // The sender has been quarantined by the conformance monitor:
      // every receiving interface discards its frames (keepalives
      // included, so it cannot revive its own liveness entry).
      c.msgs_dropped += 1;
      return;
    }
    Node* n = nodes_[to.v].get();
    if (!n) {
      // Receiver crashed while the frame was in flight.
      c.msgs_dropped += 1;
      return;
    }
    if (overload_.enabled()) {
      enqueue_ingress(from, to, link, payload, cls);
      return;
    }
    c.msgs_delivered += 1;
    last_delivery_[to.v] = engine_.now();
    n->deliver(from, topo_.adjacency_slot(link, to), *payload);
  });
}

void Network::set_overload(const OverloadConfig& config) {
  overload_ = config;
  if (overload_.enabled() && ingress_.size() < nodes_.size()) {
    ingress_.resize(nodes_.size());
  }
}

void Network::enqueue_ingress(AdId from, AdId to, LinkId link, Payload payload,
                              MsgClass cls) {
  IngressQueue& iq = ingress_[to.v];
  const std::size_t c = static_cast<std::size_t>(cls);
  if (iq.depth >= overload_.queue_limit) {
    // Bounded queue full: shed deterministically from the low-priority
    // tail. If anything strictly less important than the arrival is
    // queued, evict the newest such frame to make room; otherwise the
    // arrival itself is the least important thing in sight and is shed.
    std::size_t victim = kMsgClassCount;
    for (std::size_t v = kMsgClassCount; v-- > c + 1;) {
      if (!iq.cls[v].empty()) {
        victim = v;
        break;
      }
    }
    if (victim == kMsgClassCount) {
      ++iq.stats.dropped[c];
      counters_[to.v].msgs_dropped += 1;
      return;
    }
    counters_[to.v].msgs_dropped += 1;
    iq.cls[victim].pop_back();
    --iq.depth;
    ++iq.stats.dropped[victim];
  }
  iq.cls[c].push_back(QueuedFrame{from, link, std::move(payload),
                                  engine_.now()});
  ++iq.depth;
  ++iq.stats.enqueued;
  iq.stats.peak_depth = std::max(iq.stats.peak_depth, iq.depth);
  if (!iq.service_scheduled) {
    iq.service_scheduled = true;
    engine_.after_node(OverloadConfig::kServiceIntervalMs, to.v + 1, to.v,
                       [this, to] { service_ingress(to); });
  }
}

void Network::service_ingress(AdId to) {
  IngressQueue& iq = ingress_[to.v];
  iq.service_scheduled = false;
  std::size_t budget = OverloadConfig::kServiceBatch;
  for (std::size_t c = 0; c < kMsgClassCount && budget > 0; ++c) {
    while (budget > 0 && !iq.cls[c].empty()) {
      QueuedFrame f = std::move(iq.cls[c].front());
      iq.cls[c].pop_front();
      --iq.depth;
      --budget;
      ++iq.stats.served;
      Node* n = nodes_[to.v].get();
      if (!n) {
        // Crash and service collided at one timestamp; the queue is
        // normally cleared by crash() before this can run.
        ++iq.stats.cleared_on_crash;
        continue;
      }
      if (quarantined_[f.from.v]) {
        // Sender was quarantined while the frame sat queued.
        counters_[to.v].msgs_dropped += 1;
        continue;
      }
      counters_[to.v].msgs_delivered += 1;
      last_delivery_[to.v] = engine_.now();
      n->deliver(f.from, topo_.adjacency_slot(f.link, to), *f.payload,
                 f.arrival_ms);
    }
  }
  if (iq.depth > 0 && !iq.service_scheduled) {
    iq.service_scheduled = true;
    engine_.after_node(OverloadConfig::kServiceIntervalMs, to.v + 1, to.v,
                       [this, to] { service_ingress(to); });
  }
}

void Network::set_faults(const FaultConfig& faults, std::uint64_t seed) {
  faults_ = faults;
  fault_prng_.clear();
  if (!faults_.any()) return;
  fault_prng_.reserve(nodes_.size());
  for (std::size_t ad = 0; ad < nodes_.size(); ++ad) {
    // One independent stream per sender AD, derived from the run seed.
    std::uint64_t sm =
        seed + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(ad) + 1);
    fault_prng_.emplace_back(splitmix64(sm));
  }
}

void Network::set_link_state(LinkId link, bool up) {
  const Link& l = topo_.link(link);
  if (l.up == up) return;
  topo_.set_link_up(link, up);
  if (churn_observer_) churn_observer_(ChurnKind::kLink);
  if (!link_notifications_) return;
  if (nodes_[l.a.v]) nodes_[l.a.v]->on_link_change(l.b, up);
  if (nodes_[l.b.v]) nodes_[l.b.v]->on_link_change(l.a, up);
}

}  // namespace idr
