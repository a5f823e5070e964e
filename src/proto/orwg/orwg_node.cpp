#include "proto/orwg/orwg_node.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"

namespace idr {
namespace {

void encode_flow(wire::Writer& w, const FlowSpec& flow) {
  w.u32(flow.src.v);
  w.u32(flow.dst.v);
  w.u8(static_cast<std::uint8_t>(flow.qos));
  w.u8(static_cast<std::uint8_t>(flow.uci));
  w.u8(flow.hour);
}

FlowSpec decode_flow(wire::Reader& r) {
  FlowSpec flow;
  flow.src = AdId{r.u32()};
  flow.dst = AdId{r.u32()};
  flow.qos = static_cast<Qos>(r.u8());
  flow.uci = static_cast<UserClass>(r.u8());
  flow.hour = r.u8();
  return flow;
}

// Payload of each send_flow data packet.
constexpr std::uint16_t kDefaultPayloadBytes = 512;
// Setup packets are retransmitted until acked/nakked (they may be lost on
// the unreliable datagram service), at most kSetupMaxRetries times.
constexpr double kSetupRetryMs = 400.0;
constexpr std::uint32_t kSetupMaxRetries = 5;

}  // namespace

void OrwgNode::start() {
  gateway_ = std::make_unique<PolicyGateway>(self(), &topo(), &policies());
  route_server_ = std::make_unique<RouteServer>(
      self(), &lsdb(), topo().ad_count(), &policies().source_policy(self()),
      config_.route_server);
  PolicyLsNode::start();
}

void OrwgNode::flood_lsa(const PolicyLsa& lsa, AdId except, MsgClass cls) {
  if (config_.lsa_batch_ms <= 0.0) {
    PolicyLsNode::flood_lsa(lsa, except, cls);
    return;
  }
  pending_floods_.emplace_back(lsa, except);
  if (!flush_scheduled_) {
    flush_scheduled_ = true;
    schedule_guarded(config_.lsa_batch_ms, [this] { flush_pending_floods(); });
  }
}

void OrwgNode::flush_pending_floods() {
  flush_scheduled_ = false;
  const auto batch = std::move(pending_floods_);
  pending_floods_.clear();
  if (batch.empty()) return;
  for (const Adjacency& adj : live_neighbors()) {
    if (config_.hierarchical && !topo().can_transit(adj.neighbor)) continue;
    wire::Writer w;
    w.u8(kMsgLsaBatch);
    std::uint16_t count = 0;
    wire::Writer body;
    for (const auto& [lsa, except] : batch) {
      if (except == adj.neighbor) continue;
      lsa.encode(body);
      ++count;
    }
    if (count == 0) continue;
    w.u16(count);
    w.raw(body.bytes());
    send_pdu(adj.neighbor, std::move(w));
  }
}

// --- Policy Route establishment ---------------------------------------------

void OrwgNode::note_gr_cache_hit(bool from_cache) {
  if (from_cache && net().in_grace_count() > 0) {
    ++gr_memoized_;
  }
}

bool OrwgNode::establish_pr(const FlowSpec& flow, PendingPr pending) {
  std::optional<std::vector<AdId>> route_path = policy_route(flow);
  if (!route_path || route_path->size() < 2) {
    ++route_failures_;
    return false;
  }
  start_setup(flow, std::move(*route_path), std::move(pending));
  return true;
}

void OrwgNode::start_setup(const FlowSpec& flow, std::vector<AdId> path,
                           PendingPr pending) {
  const PrHandle handle{(static_cast<std::uint64_t>(self().v) << 32) |
                        ++next_handle_};
  const auto verdict = gateway_->validate_and_install(handle, flow, path, 0);
  IDR_CHECK(verdict == PolicyGateway::Verdict::kAccepted);
  pending.flow = flow;
  pending.path = std::move(path);
  pending.setup_sent_at = net().engine().now();
  pending_[handle.v] = std::move(pending);
  transmit_setup(handle);
  schedule_setup_retry(handle);
}

void OrwgNode::transmit_setup(PrHandle handle) {
  const auto it = pending_.find(handle.v);
  if (it == pending_.end()) return;
  const PendingPr& pr = it->second;
  wire::Writer w;
  w.u8(kMsgSetup);
  w.u64(handle.v);
  encode_flow(w, pr.flow);
  w.list(pr.path);
  w.u16(1);  // position of the receiving AD on the path
  send_pdu(pr.path[1], std::move(w));
}

void OrwgNode::schedule_setup_retry(PrHandle handle) {
  schedule_guarded(kSetupRetryMs, [this, handle] {
    const auto it = pending_.find(handle.v);
    if (it == pending_.end()) return;  // acked or nakked meanwhile
    if (++it->second.retries > kSetupMaxRetries) {
      ++setup_timeouts_;
      gateway_->remove(handle);
      pending_.erase(it);
      return;
    }
    transmit_setup(handle);
    schedule_setup_retry(handle);
  });
}

bool OrwgNode::send_flow(const FlowSpec& flow, std::uint32_t packets) {
  IDR_CHECK(flow.src == self());
  const std::uint64_t key = flow_key(flow);
  if (const auto it = active_.find(key); it != active_.end()) {
    send_data_packets(it->second, flow, packets);
    return true;
  }
  if (const auto pit = std::find_if(
          pending_.begin(), pending_.end(),
          [&](const auto& kv) { return flow_key(kv.second.flow) == key; });
      pit != pending_.end()) {
    pit->second.packets_waiting += packets;
    return true;
  }
  PendingPr pending;
  pending.packets_waiting = packets;
  return establish_pr(flow, std::move(pending));
}

bool OrwgNode::send_data(const FlowSpec& flow, std::uint32_t seq,
                         std::vector<std::uint8_t> payload) {
  IDR_CHECK(flow.src == self());
  const std::uint64_t key = flow_key(flow);
  if (const auto it = active_.find(key); it != active_.end()) {
    send_one_data(it->second.path, it->second.handle, self(), seq, payload);
    return true;
  }
  if (const auto pit = std::find_if(
          pending_.begin(), pending_.end(),
          [&](const auto& kv) { return flow_key(kv.second.flow) == key; });
      pit != pending_.end()) {
    pit->second.queued.emplace_back(seq, std::move(payload));
    return true;
  }
  PendingPr pending;
  pending.queued.emplace_back(seq, std::move(payload));
  return establish_pr(flow, std::move(pending));
}

void OrwgNode::teardown(const FlowSpec& flow) {
  const auto it = active_.find(flow_key(flow));
  if (it == active_.end()) return;
  const PrHandle handle = it->second.handle;
  const std::vector<AdId> path = it->second.path;
  active_.erase(it);
  gateway_->remove(handle);
  wire::Writer w;
  w.u8(kMsgTeardown);
  w.u64(handle.v);
  send_pdu(path[1], std::move(w));
}

std::optional<std::vector<AdId>> OrwgNode::policy_route(
    const FlowSpec& flow) {
  if (config_.hierarchical) {
    if (is_transit()) return hierarchical_route(flow);
    // A stub has no database; its route-server query goes to its transit
    // parent.
    const std::optional<AdId> hop = stub_next_hop(flow.dst);
    if (!hop) return std::nullopt;
    if (*hop == flow.dst) return std::vector<AdId>{self(), flow.dst};
    // forwarding_node: during the parent's grace window the query is
    // answered by its frozen pre-crash instance -- the route server
    // serving memoized synthesis from the stale snapshot.
    auto* p = static_cast<OrwgNode*>(net().forwarding_node(*hop));
    if (!p) return std::nullopt;
    return p->hierarchical_route(flow);
  }
  const auto route = route_server_->route(flow);
  if (!route) return std::nullopt;
  note_gr_cache_hit(route->from_cache);
  return route->path;
}

std::optional<std::vector<AdId>> OrwgNode::hierarchical_route(
    const FlowSpec& flow) {
  const AdId owner_src = attachment(flow.src);
  const AdId owner_dst = attachment(flow.dst);
  if (!owner_src.valid() || !owner_dst.valid()) return std::nullopt;
  std::vector<AdId> path;
  if (owner_src == owner_dst) {
    // Both endpoints hang off the same transit AD.
    path.push_back(flow.src);
    if (flow.src != owner_src && flow.dst != owner_dst) {
      path.push_back(owner_src);
    }
    path.push_back(flow.dst);
    return path;
  }
  FlowSpec synth = flow;
  synth.src = owner_src;
  synth.dst = owner_dst;
  const auto route = route_server_->route(synth);
  if (!route) return std::nullopt;
  note_gr_cache_hit(route->from_cache);
  if (flow.src != owner_src) path.push_back(flow.src);
  path.insert(path.end(), route->path.begin(), route->path.end());
  if (flow.dst != owner_dst) path.push_back(flow.dst);
  return path;
}

void OrwgNode::precompute_all() {
  std::vector<AdId> dests;
  dests.reserve(topo().ad_count());
  for (const Ad& ad : topo().ads()) dests.push_back(ad.id);
  route_server_->precompute(dests);
}

// --- Data plane --------------------------------------------------------------

void OrwgNode::send_one_data(const std::vector<AdId>& path, PrHandle handle,
                             AdId claimed_src, std::uint32_t seq,
                             std::span<const std::uint8_t> payload) {
  wire::Writer w;
  w.u8(kMsgData);
  w.u64(handle.v);
  w.u32(claimed_src.v);
  w.u32(seq);
  w.u64(std::bit_cast<std::uint64_t>(net().engine().now()));
  w.u16(static_cast<std::uint16_t>(payload.size()));
  w.raw(payload);
  net().send(self(), path[1], std::move(w).take());
}

void OrwgNode::send_data_packets(const ActivePr& pr, const FlowSpec& flow,
                                 std::uint32_t packets) {
  const std::vector<std::uint8_t> padding(kDefaultPayloadBytes, 0);
  for (std::uint32_t i = 0; i < packets; ++i) {
    send_one_data(pr.path, pr.handle, flow.src, ++data_seq_, padding);
  }
}

void OrwgNode::send_error(PrHandle handle, AdId to, AdId report_from,
                          AdId dead_next) {
  wire::Writer w;
  w.u8(kMsgError);
  w.u64(handle.v);
  w.u32(report_from.v);
  w.u32(dead_next.v);
  send_pdu(to, std::move(w));
}

void OrwgNode::fail_active_pr(PrHandle handle, AdId report_from,
                              AdId dead_next) {
  ++pr_errors_;
  gateway_->remove(handle);
  const auto it =
      std::find_if(active_.begin(), active_.end(), [&](const auto& kv) {
        return kv.second.handle == handle;
      });
  if (it == active_.end()) return;
  const FlowSpec flow = it->second.flow;
  active_.erase(it);

  // Fast repair (IDPR-style): the error names the dead link, which the
  // flooded database may not reflect yet; resynthesize around it and set
  // the replacement PR up immediately.
  if (!report_from.valid() || !dead_next.valid()) return;
  const std::pair<AdId, AdId> dead{report_from, dead_next};
  const auto repaired = route_server_->route_avoiding(flow, {&dead, 1});
  if (!repaired) return;
  ++pr_repairs_;
  start_setup(flow, repaired->path, PendingPr{});
}

// --- Message dispatch ---------------------------------------------------------

void OrwgNode::on_other_message(std::uint8_t type, AdId from,
                                wire::Reader& r) {
  switch (type) {
    case kMsgLsaBatch: {
      // Decode the whole batch before accepting any LSA from it: a batch
      // truncated mid-LSA must not partially apply.
      const std::uint16_t count = r.u16();
      std::vector<PolicyLsa> lsas;
      if (r.ok()) {
        lsas.reserve(std::min<std::size_t>(
            count, r.remaining() / PolicyLsa::kMinEncodedSize));
        for (std::uint16_t i = 0; i < count && r.ok(); ++i) {
          auto lsa = PolicyLsa::decode(r);
          if (!lsa.has_value()) break;
          lsas.push_back(std::move(*lsa));
        }
      }
      if (!r.ok() || lsas.size() != count) {
        drop_malformed();
        return;
      }
      for (PolicyLsa& lsa : lsas) accept_lsa(std::move(lsa), from);
      break;
    }
    case kMsgSetup:
      handle_setup(from, r);
      break;
    case kMsgData:
      handle_data(from, r);
      break;
    case kMsgAck:
      handle_ack(r);
      break;
    case kMsgNak:
      handle_nak(r);
      break;
    case kMsgTeardown:
      handle_teardown(r);
      break;
    case kMsgError:
      handle_error(r);
      break;
    default:
      PolicyLsNode::on_other_message(type, from, r);
  }
}

void OrwgNode::handle_setup(AdId from, wire::Reader& r) {
  const PrHandle handle{r.u64()};
  const FlowSpec flow = decode_flow(r);
  std::vector<AdId> path;
  r.list(path);
  const std::uint16_t position = r.u16();
  if (!r.ok()) {
    drop_malformed();
    return;
  }

  auto verdict = gateway_->validate_and_install(handle, flow, path, position);
  if (verdict != PolicyGateway::Verdict::kAccepted &&
      net().misbehaving_as(self(), Misbehavior::kRouteLeak)) {
    // Route leak, source-routed style: the complicit gateway installs the
    // setup its registered Policy Terms would have refused.
    gateway_->set_validation(false);
    verdict = gateway_->validate_and_install(handle, flow, path, position);
    gateway_->set_validation(true);
  }
  if (verdict != PolicyGateway::Verdict::kAccepted) {
    wire::Writer w;
    w.u8(kMsgNak);
    w.u64(handle.v);
    w.u8(static_cast<std::uint8_t>(verdict));
    send_pdu(from, std::move(w));
    return;
  }
  if (position + 1u == path.size()) {
    // We are the destination: confirm the PR back toward the source.
    wire::Writer w;
    w.u8(kMsgAck);
    w.u64(handle.v);
    send_pdu(from, std::move(w));
    return;
  }
  wire::Writer w;
  w.u8(kMsgSetup);
  w.u64(handle.v);
  encode_flow(w, flow);
  w.list(path);
  w.u16(static_cast<std::uint16_t>(position + 1));
  send_pdu(path[position + 1], std::move(w));
}

void OrwgNode::handle_ack(wire::Reader& r) {
  const PrHandle handle{r.u64()};
  if (!r.ok()) {
    drop_malformed();
    return;
  }
  const SetupState* state = gateway_->peek(handle);
  if (!state) return;  // PR vanished while the ack was in flight
  if (state->prev.valid()) {
    wire::Writer w;
    w.u8(kMsgAck);
    w.u64(handle.v);
    send_pdu(state->prev, std::move(w));
    return;
  }
  // We are the source: the PR is established.
  const auto it = pending_.find(handle.v);
  if (it == pending_.end()) return;  // duplicate ack (setup was retried)
  PendingPr pr = std::move(it->second);
  pending_.erase(it);
  setup_latency_ms_.add(net().engine().now() - pr.setup_sent_at);
  ActivePr active{handle, pr.flow, pr.path};
  active_[flow_key(pr.flow)] = active;
  if (pr.packets_waiting > 0) {
    send_data_packets(active, pr.flow, pr.packets_waiting);
  }
  for (auto& [seq, payload] : pr.queued) {
    send_one_data(active.path, handle, self(), seq, payload);
  }
}

void OrwgNode::handle_nak(wire::Reader& r) {
  const PrHandle handle{r.u64()};
  const std::uint8_t reason = r.u8();
  if (!r.ok()) {
    drop_malformed();
    return;
  }
  const SetupState* state = gateway_->peek(handle);
  if (!state) return;
  const AdId prev = state->prev;
  gateway_->remove(handle);
  if (prev.valid()) {
    wire::Writer w;
    w.u8(kMsgNak);
    w.u64(handle.v);
    w.u8(reason);
    send_pdu(prev, std::move(w));
    return;
  }
  // We are the source: the setup failed downstream.
  ++setup_naks_;
  const auto it = pending_.find(handle.v);
  if (it != pending_.end()) {
    active_.erase(flow_key(it->second.flow));
    pending_.erase(it);
  }
}

void OrwgNode::handle_teardown(wire::Reader& r) {
  const PrHandle handle{r.u64()};
  if (!r.ok()) {
    drop_malformed();
    return;
  }
  const SetupState* state = gateway_->peek(handle);
  if (!state) return;
  const AdId next = state->next;
  gateway_->remove(handle);
  if (next.valid()) {
    wire::Writer w;
    w.u8(kMsgTeardown);
    w.u64(handle.v);
    send_pdu(next, std::move(w));
  }
}

void OrwgNode::handle_error(wire::Reader& r) {
  const PrHandle handle{r.u64()};
  const AdId report_from{r.u32()};
  const AdId dead_next{r.u32()};
  if (!r.ok()) {
    drop_malformed();
    return;
  }
  const SetupState* state = gateway_->peek(handle);
  if (!state) return;
  const AdId prev = state->prev;
  if (prev.valid()) {
    gateway_->remove(handle);
    send_error(handle, prev, report_from, dead_next);
    return;
  }
  // We are the source: the PR broke mid-flow; repair it.
  fail_active_pr(handle, report_from, dead_next);
}

void OrwgNode::handle_data(AdId from, wire::Reader& r) {
  const PrHandle handle{r.u64()};
  const AdId claimed_src{r.u32()};
  const std::uint32_t seq = r.u32();
  const auto sent_at = std::bit_cast<double>(r.u64());
  const std::uint16_t payload_len = r.u16();
  if (!r.ok()) {
    drop_malformed();
    return;
  }

  const SetupState* state =
      gateway_->lookup(handle, from, claimed_src, payload_len);
  if (!state) {
    ++data_drops_;
    // Unknown handle: this AD holds no state for the PR -- typically
    // because a restart wiped its gateway table while upstream ADs (and
    // the source) still believe the PR is established. Silence here
    // would strand the source retransmitting into a black hole, so
    // report the broken PR back the way the data came; each upstream
    // hop unwinds its own state and the source re-establishes. kNoAd as
    // dead_next tells the source no link actually died -- plain
    // resynthesis, no route_avoiding exclusion.
    if (from.valid()) {
      send_error(handle, from, self(), kNoAd);
    }
    return;
  }
  if (!state->next.valid()) {
    ++delivered_;
    delivery_latency_ms_.add(net().engine().now() - sent_at);
    if (delivery_handler_) {
      std::vector<std::uint8_t> payload(payload_len);
      for (auto& b : payload) b = r.u8();
      if (r.ok()) {
        delivery_handler_(state->flow, seq, payload);
      } else {
        drop_malformed();
      }
    }
    return;
  }
  wire::Writer w;
  w.u8(kMsgData);
  w.u64(handle.v);
  w.u32(claimed_src.v);
  w.u32(seq);
  w.u64(std::bit_cast<std::uint64_t>(sent_at));
  w.u16(payload_len);
  std::vector<std::uint8_t> payload(payload_len);
  for (auto& b : payload) b = r.u8();
  if (!r.ok()) {
    drop_malformed();
    return;
  }
  if (net().drops_traffic(self(), state->flow.dst)) {
    // Forwarding black hole (or hijacked destination): accept the packet
    // into the PR, then silently discard it -- no error report, so the
    // source cannot repair around us.
    ++data_drops_;
    return;
  }
  w.raw(payload);
  const AdId next = state->next;
  if (!net().send(self(), next, std::move(w).take())) {
    // The onward link is dead: report the broken PR -- including which
    // link broke -- back to the source, which repairs by synthesizing a
    // fresh policy route around it.
    const AdId prev = state->prev;
    if (prev.valid()) {
      gateway_->remove(handle);
      send_error(handle, prev, self(), next);
    } else {
      fail_active_pr(handle, self(), next);
    }
  }
}

}  // namespace idr
