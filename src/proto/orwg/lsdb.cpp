#include "proto/orwg/lsdb.hpp"

#include <algorithm>

namespace idr {

void PolicyLsa::encode(wire::Writer& w) const {
  w.u32(origin.v);
  w.u32(seq);
  w.u16(static_cast<std::uint16_t>(adjacencies.size()));
  for (const PolicyLsaAdjacency& adj : adjacencies) {
    w.u32(adj.neighbor.v);
    w.u32(adj.metric);
  }
  w.u16(static_cast<std::uint16_t>(terms.size()));
  for (const PolicyTerm& t : terms) t.encode(w);
  w.u8(has_source_policy ? 1 : 0);
  if (has_source_policy) {
    w.list(avoid);
    w.u32(max_hops);
    w.u8(prefer_min_cost ? 1 : 0);
  }
  w.list(attached_stubs);
  w.u64(auth);
}

std::optional<PolicyLsa> PolicyLsa::decode(wire::Reader& r) {
  PolicyLsa lsa;
  lsa.origin = AdId{r.u32()};
  lsa.seq = r.u32();
  // The database keeps the decoded LSA as it is, so each vector gets the
  // exact capacity its count asks for -- as far as the bytes left can hold
  // it (an adjacency takes 8 bytes, a term at least 20).
  const std::uint16_t adj_count = r.u16();
  lsa.adjacencies.reserve(std::min<std::size_t>(adj_count, r.remaining() / 8));
  for (std::uint16_t i = 0; i < adj_count && r.ok(); ++i) {
    PolicyLsaAdjacency adj;
    adj.neighbor = AdId{r.u32()};
    adj.metric = r.u32();
    lsa.adjacencies.push_back(adj);
  }
  const std::uint16_t term_count = r.u16();
  lsa.terms.reserve(std::min<std::size_t>(term_count, r.remaining() / 20));
  for (std::uint16_t i = 0; i < term_count && r.ok(); ++i) {
    auto term = PolicyTerm::decode(r);
    if (!term) return std::nullopt;
    lsa.terms.push_back(std::move(*term));
  }
  lsa.has_source_policy = r.u8() != 0;
  if (lsa.has_source_policy) {
    r.list(lsa.avoid);
    lsa.max_hops = r.u32();
    lsa.prefer_min_cost = r.u8() != 0;
  }
  r.list(lsa.attached_stubs);
  lsa.auth = r.u64();
  if (!r.ok()) return std::nullopt;
  return lsa;
}

std::uint64_t lsa_auth_tag(const PolicyLsa& lsa, std::uint64_t key) {
  PolicyLsa unsigned_copy = lsa;
  unsigned_copy.auth = 0;
  wire::Writer w;
  unsigned_copy.encode(w);
  std::uint64_t state = key ^ 0x5851f42d4c957f2dULL;
  std::uint64_t tag = 0;
  for (std::uint8_t b : w.bytes()) {
    state ^= b;
    tag ^= splitmix64(state);
  }
  // Never collide with the "unauthenticated" sentinel.
  return tag == 0 ? 1 : tag;
}

std::size_t PolicyLsa::encoded_size() const {
  std::size_t n = kMinEncodedSize + 8 * adjacencies.size() +
                  4 * attached_stubs.size();
  for (const PolicyTerm& t : terms) n += t.encoded_size();
  if (has_source_policy) n += 7 + 4 * avoid.size();
  return n;
}

bool PolicyLsdb::insert(PolicyLsa lsa) {
  const PolicyLsa* have = lsas_.find(lsa.origin.v);
  if (have && have->seq >= lsa.seq) return false;
  if (!have || have->attached_stubs != lsa.attached_stubs) {
    ++attachments_version_;
  }
  lsas_[lsa.origin.v] = std::move(lsa);
  ++version_;
  return true;
}

const PolicyLsa* PolicyLsdb::get(AdId origin) const {
  return lsas_.find(origin.v);
}

std::size_t PolicyLsdb::total_terms() const noexcept {
  std::size_t n = 0;
  for (const auto [origin, lsa] : lsas_) {
    (void)origin;
    n += lsa.terms.size();
  }
  return n;
}

std::span<const PolicyLsaAdjacency> PolicyLsdb::confirmed_adjacencies(
    AdId origin) const {
  const PolicyLsa* lsa = lsas_.find(origin.v);
  if (!lsa) return {};
  if (!adjacency_index_) adjacency_index_ = std::make_unique<AdjacencyIndex>();
  if (adjacency_index_->version != version_) build_adjacency_index();
  const AdjacencyIndex& index = *adjacency_index_;
  // lsas_ keeps its LSAs in one vector, in insertion order.
  const auto i = static_cast<std::size_t>(lsa - lsas_.values().data());
  return std::span(index.adjacencies)
      .subspan(index.offsets[i], index.offsets[i + 1] - index.offsets[i]);
}

void PolicyLsdb::build_adjacency_index() const {
  // Each advertised direction origin -> neighbor as one sortable key; an
  // adjacency is confirmed when its reverse direction is advertised too.
  const auto direction = [](AdId from, AdId to) {
    return (static_cast<std::uint64_t>(from.v) << 32) | to.v;
  };
  std::vector<std::uint64_t> advertised;
  for (const PolicyLsa& lsa : lsas_.values()) {
    for (const PolicyLsaAdjacency& adj : lsa.adjacencies) {
      advertised.push_back(direction(lsa.origin, adj.neighbor));
    }
  }
  std::sort(advertised.begin(), advertised.end());
  AdjacencyIndex& index = *adjacency_index_;
  index.offsets.clear();
  index.adjacencies.clear();
  index.offsets.reserve(lsas_.size() + 1);
  index.offsets.push_back(0);
  for (const PolicyLsa& lsa : lsas_.values()) {
    for (const PolicyLsaAdjacency& adj : lsa.adjacencies) {
      if (std::binary_search(advertised.begin(), advertised.end(),
                             direction(adj.neighbor, lsa.origin))) {
        index.adjacencies.push_back(adj);
      }
    }
    index.offsets.push_back(
        static_cast<std::uint32_t>(index.adjacencies.size()));
  }
  index.version = version_;
  ++index.builds;
}

void LsdbView::for_each_neighbor(
    AdId ad, const std::function<void(AdId, std::uint32_t)>& fn) const {
  if (ad.v >= ad_count_) return;
  for (const PolicyLsaAdjacency& adj : db_.confirmed_adjacencies(ad)) {
    if (adj.neighbor.v < ad_count_) fn(adj.neighbor, adj.metric);
  }
}

std::optional<std::uint32_t> LsdbView::transit_cost(AdId ad,
                                                    const FlowSpec& flow,
                                                    AdId prev,
                                                    AdId next) const {
  if (registry_) {
    // Registered (ground-truth) policy overrides whatever the origin
    // claims in its LSA: an AD cannot widen its transit policy by lying.
    return registry_->transit_cost(ad, flow, prev, next);
  }
  const PolicyLsa* lsa = db_.get(ad);
  if (!lsa) return std::nullopt;
  std::optional<std::uint32_t> best;
  for (const PolicyTerm& t : lsa->terms) {
    if (!t.permits(flow, prev, next)) continue;
    if (!best || t.cost < *best) best = t.cost;
  }
  return best;
}

}  // namespace idr
