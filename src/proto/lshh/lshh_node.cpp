#include "proto/lshh/lshh_node.hpp"

#include <algorithm>

namespace idr {

void LshhNode::reflood(const PolicyLsa& lsa, AdId from) {
  if (!net().misbehaving_as(self(), Misbehavior::kTamper)) {
    flood_lsa(lsa, from, MsgClass::kUpdate);
    return;
  }
  // Path-attribute tampering at the re-flood point: strip the origin's
  // adjacencies and bump the sequence so the mutilated copy beats the
  // original downstream. The auth tag goes stale, which is precisely what
  // the origin-authentication defense detects; undefended receivers eat
  // it.
  PolicyLsa mangled = lsa;
  mangled.adjacencies.clear();
  ++mangled.seq;
  flood_lsa(mangled, from, MsgClass::kUpdate);
}

void LshhNode::on_link_change(AdId neighbor, bool up) {
  // Forwarding choices consult live_neighbors() as well as the database,
  // and for stubs the database version never moves -- so every adjacency
  // liveness change must invalidate the cache itself. (During a GR grace
  // window the recomputation sees the same retained adjacency and lands
  // on the same answer; the epoch bump only costs one recompute per key.)
  ++live_epoch_;
  PolicyLsNode::on_link_change(neighbor, up);
}

std::optional<AdId> LshhNode::forward(const FlowSpec& flow) {
  const std::uint64_t key = cache_key(flow);
  if (const CacheEntry* e = cache_.find(key)) {
    if (e->db_version == lsdb().version() && e->live_epoch == live_epoch_) {
      ++cache_hits_;
      return e->next;
    }
    cache_.erase(key);
  }
  const std::optional<AdId> next =
      config_.hierarchical ? hierarchical_next(flow) : agreed_next(flow);
  cache_[key] = CacheEntry{next, lsdb().version(), live_epoch_};
  return next;
}

std::optional<AdId> LshhNode::agreed_next(const FlowSpec& flow) {
  SynthesisOptions options;
  if (const PolicyLsa* src_lsa = lsdb().get(flow.src);
      src_lsa && src_lsa->has_source_policy) {
    options.avoid = src_lsa->avoid;
    options.max_hops = src_lsa->max_hops;
    options.minimize_cost = src_lsa->prefer_min_cost;
  }
  ++path_computations_;
  const LsdbView view(lsdb(), topo().ad_count(), config_.registry);
  const SynthesisResult result = synthesize_route(view, flow, options);
  total_expansions_ += result.expansions;
  if (!result.found()) return std::nullopt;
  // If we are not on the agreed path, the packet should never have
  // reached us: drop it (the inconsistency case).
  const auto at = std::find(result.path.begin(), result.path.end(), self());
  if (at == result.path.end() || at + 1 == result.path.end()) {
    return std::nullopt;
  }
  return *(at + 1);
}

std::optional<AdId> LshhNode::hierarchical_next(const FlowSpec& flow) {
  if (!is_transit()) return stub_next_hop(flow.dst);
  const AdId owner_dst = attachment(flow.dst);
  if (!owner_dst.valid()) return std::nullopt;
  if (owner_dst == self()) {
    // Last transit hop: the destination is our attached stub.
    for (const Adjacency& adj : live_neighbors()) {
      if (adj.neighbor == flow.dst) return flow.dst;
    }
    return std::nullopt;
  }
  const AdId owner_src = attachment(flow.src);
  if (!owner_src.valid()) return std::nullopt;
  // Route between the attachments over the transit-only database; the
  // stub endpoints ride the first/last hierarchical link.
  FlowSpec synth = flow;
  synth.src = owner_src;
  synth.dst = owner_dst;
  return agreed_next(synth);
}

}  // namespace idr
