#include "proto/orwg/policy_ls_node.hpp"

#include <algorithm>

namespace idr {

void PolicyLsNode::start() {
  originate_lsa();
  schedule_refresh();
}

void PolicyLsNode::schedule_refresh() {
  const double period = ls_config().periodic_refresh_ms;
  if (period <= 0.0) return;
  schedule_guarded(period, [this] {
    originate_lsa(MsgClass::kRefresh);
    schedule_refresh();
  });
}

void PolicyLsNode::sign_lsa(PolicyLsa& lsa) const {
  // Signed with OUR key, whatever the LSA claims as origin: a forged
  // LSA for a victim therefore carries a tag the victim's key cannot
  // verify, which is exactly what the auth defense catches.
  const auto* keys = ls_config().lsa_keys;
  if (keys && self().v < keys->size()) {
    lsa.auth = lsa_auth_tag(lsa, (*keys)[self().v]);
  }
}

void PolicyLsNode::describe_links(
    std::vector<PolicyLsaAdjacency>& adjacencies,
    std::vector<AdId>& stubs) const {
  const bool hierarchical = ls_config().hierarchical;
  for (const Adjacency& adj : live_neighbors()) {
    if (hierarchical && !topo().can_transit(adj.neighbor)) {
      stubs.push_back(adj.neighbor);
      continue;
    }
    adjacencies.push_back(
        PolicyLsaAdjacency{adj.neighbor, topo().link(adj.link).metric});
  }
}

void PolicyLsNode::originate_lsa(MsgClass cls) {
  // Hierarchical mode: stubs are silent; their reachability rides on the
  // attachment listings in their transit neighbors' LSAs.
  if (ls_config().hierarchical && !is_transit()) return;
  PolicyLsa lsa;
  lsa.origin = self();
  lsa.seq = ++my_seq_;
  describe_links(lsa.adjacencies, lsa.attached_stubs);
  const auto terms = policies_->terms(self());
  lsa.terms.assign(terms.begin(), terms.end());
  if (publishes_source_policy_) {
    // Hop-by-hop consistency forces sources to publish their private
    // route-selection criteria (paper §5.3).
    const SourcePolicy& sp = policies_->source_policy(self());
    lsa.has_source_policy = true;
    lsa.avoid = sp.avoid;
    lsa.max_hops = sp.max_hops;
    lsa.prefer_min_cost = sp.prefer_min_cost;
  }
  const Misbehavior mis = net().active_misbehavior(self());
  if (mis == Misbehavior::kRouteLeak) {
    // Route leak, link-state style: advertise unconditional transit in
    // place of the registered terms (999 marks the lie in dumps; cost 1
    // keeps the claim consistent with what honest cost-1 terms look
    // like, so undefended receivers take the bait).
    lsa.terms.clear();
    lsa.terms.push_back(open_transit_term(self(), 999));
  }
  sign_lsa(lsa);
  lsdb_.insert(lsa);
  flood_lsa(lsa, kNoAd, cls);
  if (mis == Misbehavior::kFalseOrigin) forge_victim_lsa();
}

void PolicyLsNode::originate_if_changed() {
  // Hold-down re-flood scoping: a window that ends with the same link
  // view the database already describes (the link flapped down and back)
  // originates nothing -- no seq bump, no network-wide re-flood.
  if (ls_config().hierarchical && !is_transit()) return;
  if (const PolicyLsa* current = lsdb_.get(self())) {
    std::vector<PolicyLsaAdjacency> adjacencies;
    std::vector<AdId> stubs;
    describe_links(adjacencies, stubs);
    if (adjacencies == current->adjacencies &&
        stubs == current->attached_stubs) {
      ++originations_suppressed_;
      return;
    }
  }
  originate_lsa();
}

void PolicyLsNode::forge_victim_lsa() {
  // LS origin forgery: flood an LSA claiming to BE the victim, with a
  // sequence number far ahead of the victim's real one so it wins the
  // newer-seq race at every undefended receiver. No adjacencies: the
  // victim simply vanishes from every computed path.
  const AdId victim = net().misbehavior_victim(self());
  if (!victim.valid() || victim == self()) return;
  PolicyLsa forged;
  forged.origin = victim;
  const PolicyLsa* have = lsdb_.get(victim);
  forged.seq = (have ? have->seq : 0) + 64;  // outruns origin fight-back
  forged.has_source_policy = publishes_source_policy_;
  sign_lsa(forged);  // our key, not the victim's -- detectably wrong
  lsdb_.insert(forged);
  flood_lsa(forged, kNoAd, MsgClass::kUpdate);
}

void PolicyLsNode::send_lsa(AdId to, const PolicyLsa& lsa) {
  wire::Writer w;
  w.u8(kMsgLsa);
  lsa.encode(w);
  send_pdu(to, std::move(w));
}

void PolicyLsNode::flood_lsa(const PolicyLsa& lsa, AdId except,
                             MsgClass cls) {
  wire::Writer w;
  w.reserve(1 + lsa.encoded_size());
  w.u8(kMsgLsa);
  lsa.encode(w);
  // The encoded frame becomes the payload every receiver shares.
  // Transit-scoped: in hierarchical mode stubs keep no database, so the
  // flood only visits the transit subgraph.
  const bool hierarchical = ls_config().hierarchical;
  Payload payload;
  for (const Adjacency& adj : live_neighbors()) {
    if (adj.neighbor == except) continue;
    if (hierarchical && !topo().can_transit(adj.neighbor)) continue;
    if (!payload) payload = make_payload(w.take());
    net().send(self(), adj.neighbor, payload, cls);
  }
}

void PolicyLsNode::on_message(AdId from, std::span<const std::uint8_t> bytes) {
  wire::Reader r(bytes);
  const std::uint8_t type = r.u8();
  if (!r.ok()) {
    drop_malformed();
    return;
  }
  if (type != kMsgLsa) {
    on_other_message(type, from, r);
    return;
  }
  auto lsa = PolicyLsa::decode(r);
  if (!lsa.has_value()) {
    drop_malformed();
    return;
  }
  accept_lsa(std::move(*lsa), from);
}

void PolicyLsNode::on_other_message(std::uint8_t /*type*/, AdId /*from*/,
                                    wire::Reader& /*r*/) {
  // Unknown message type (stray or bit-flipped frame): count + drop.
  drop_malformed();
}

void PolicyLsNode::accept_lsa(PolicyLsa lsa, AdId from) {
  if (const auto* keys = ls_config().lsa_keys) {
    // Origin authentication: the tag must verify under the *origin's*
    // key. Kills both forged-origin LSAs (signed with the wrong key)
    // and LSAs whose content was tampered with in transit (stale tag).
    if (lsa.origin.v >= keys->size() ||
        lsa.auth != lsa_auth_tag(lsa, (*keys)[lsa.origin.v])) {
      ++lsas_rejected_auth_;
      net().note_defense_rejection(self());
      return;
    }
  }
  if (lsa.origin == self()) {
    // Sequence-number recovery after a cold restart: our own pre-crash
    // LSA came back ahead of our (reset) counter. Strictly greater: an
    // echo of our current instance must not re-trigger origination.
    if (lsa.seq > my_seq_) {
      my_seq_ = lsa.seq;
      originate_lsa();
    }
    return;
  }
  if (const PolicyLsa* have = lsdb_.get(lsa.origin);
      have && lsa.seq < have->seq && from.valid()) {
    // Answer a stale copy with the newer database copy (OSPF's rule).
    // This is what makes cold-restart recovery robust on an unreliable
    // service: if the one-shot DB sync carrying the origin's pre-crash
    // LSA is lost, every periodic refresh it sends at a low sequence
    // number re-triggers this reply until fight-back succeeds.
    send_lsa(from, *have);
    return;
  }
  // Accepted: the database takes the LSA and the re-flood reads its copy.
  const AdId origin = lsa.origin;
  if (lsdb_.insert(std::move(lsa))) reflood(*lsdb_.get(origin), from);
}

void PolicyLsNode::on_link_change(AdId neighbor, bool up) {
  const PolicyLsConfig& config = ls_config();
  if (!up && net().in_grace(neighbor)) {
    // Graceful restart: the in-grace neighbor still counts as alive
    // (Node::neighbor_alive), so a re-origination now would change
    // nothing -- skip it entirely (no seq bump, no flood) and re-examine
    // just past grace expiry. If the neighbor resynced in time the
    // re-examination suppresses itself (identical content); if not, it
    // originates the LSA that finally withdraws the adjacency. A
    // re-crash during grace lands here again and arms a later timer, so
    // the early one fires harmlessly inside the extended window.
    ++gr_retained_;
    schedule_guarded(net().gr().grace_ms + 0.1,
                     [this] { originate_if_changed(); });
    return;
  }
  if (up && net().gr().enabled) ++gr_resyncs_;
  if (config.link_holddown_ms > 0.0) {
    if (!holddown_scheduled_) {
      holddown_scheduled_ = true;
      schedule_guarded(config.link_holddown_ms, [this] {
        holddown_scheduled_ = false;
        originate_if_changed();
      });
    }
  } else {
    originate_lsa();
  }
  if (config.hierarchical && !topo().can_transit(neighbor)) return;
  if (up && neighbor.valid()) {
    // DB sync for a neighbor that just (re)appeared, so a cold-restarted
    // node rebuilds the full map instead of only hearing future changes.
    lsdb_.for_each([&](const PolicyLsa& lsa) { send_lsa(neighbor, lsa); });
  }
}

AdId PolicyLsNode::attachment(AdId ad) {
  if (lsdb_.get(ad)) return ad;  // transit ADs own themselves
  if (attach_version_ != lsdb_.attachments_version()) {
    attach_.assign(topo().ad_count(), AdId::kInvalid);
    lsdb_.for_each([&](const PolicyLsa& lsa) {
      for (AdId stub : lsa.attached_stubs) {
        // Listings come off the wire: an id past the topology is no AD.
        if (stub.v >= attach_.size()) continue;
        std::uint32_t& owner = attach_[stub.v];
        owner = std::min(owner, lsa.origin.v);
      }
    });
    attach_version_ = lsdb_.attachments_version();
    ++attachment_builds_;
  }
  return ad.v < attach_.size() ? AdId{attach_[ad.v]} : kNoAd;
}

std::optional<AdId> PolicyLsNode::stub_next_hop(AdId dst) const {
  std::optional<AdId> parent;
  for (const Adjacency& adj : live_neighbors()) {
    if (adj.neighbor == dst) return dst;
    if (topo().can_transit(adj.neighbor) &&
        (!parent || adj.neighbor < *parent)) {
      parent = adj.neighbor;
    }
  }
  return parent;
}

}  // namespace idr
