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
    attached_stubs_listed_ += lsa.attached_stubs.size();
    if (have) attached_stubs_listed_ -= have->attached_stubs.size();
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

void LsdbView::for_each_neighbor(
    AdId ad, const std::function<void(AdId, std::uint32_t)>& fn) const {
  const PolicyLsa* lsa = db_.get(ad);
  if (!lsa) return;
  for (const PolicyLsaAdjacency& adj : lsa->adjacencies) {
    // Bidirectional check: the neighbor must advertise the link back.
    const PolicyLsa* back = db_.get(adj.neighbor);
    if (!back) continue;
    bool confirmed = false;
    for (const PolicyLsaAdjacency& rev : back->adjacencies) {
      if (rev.neighbor == ad) {
        confirmed = true;
        break;
      }
    }
    if (confirmed) fn(adj.neighbor, adj.metric);
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
