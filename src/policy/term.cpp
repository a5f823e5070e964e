#include "policy/term.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace idr {

AdSet AdSet::of(std::vector<AdId> members) {
  AdSet s;
  s.any_ = false;
  s.members_ = std::move(members);
  s.sort_members();
  return s;
}

void AdSet::sort_members() {
  std::sort(members_.begin(), members_.end());
  members_.erase(std::unique(members_.begin(), members_.end()),
                 members_.end());
}

bool AdSet::contains(AdId id) const noexcept {
  if (any_) return true;
  return std::binary_search(members_.begin(), members_.end(), id);
}

void AdSet::encode(wire::Writer& w) const {
  w.u8(any_ ? 1 : 0);
  if (!any_) w.list(members_);
}

AdSet AdSet::decode(wire::Reader& r) {
  AdSet s;
  s.decode_from(r);
  return s;
}

void AdSet::decode_from(wire::Reader& r) {
  any_ = r.u8() != 0;
  if (any_) {
    members_.clear();
    return;
  }
  r.list(members_);
  sort_members();
}

bool PolicyTerm::hour_in_window(std::uint8_t hour) const noexcept {
  if (hour_begin <= hour_end) return hour >= hour_begin && hour <= hour_end;
  return hour >= hour_begin || hour <= hour_end;  // wraps past midnight
}

bool PolicyTerm::permits(const FlowSpec& flow, AdId prev,
                         AdId next) const noexcept {
  if ((qos_mask & qos_bit(flow.qos)) == 0) return false;
  if ((uci_mask & uci_bit(flow.uci)) == 0) return false;
  if (!hour_in_window(flow.hour)) return false;
  if (!sources.contains(flow.src)) return false;
  if (!dests.contains(flow.dst)) return false;
  if (!prev_hops.contains(prev)) return false;
  if (!next_hops.contains(next)) return false;
  return true;
}

void PolicyTerm::encode(wire::Writer& w) const {
  w.u32(id);
  w.u32(owner.v);
  sources.encode(w);
  dests.encode(w);
  prev_hops.encode(w);
  next_hops.encode(w);
  w.u8(qos_mask);
  w.u8(uci_mask);
  w.u8(hour_begin);
  w.u8(hour_end);
  w.u32(cost);
}

std::optional<PolicyTerm> PolicyTerm::decode(wire::Reader& r) {
  PolicyTerm t;
  t.id = r.u32();
  t.owner = AdId{r.u32()};
  t.sources = AdSet::decode(r);
  t.dests = AdSet::decode(r);
  t.prev_hops = AdSet::decode(r);
  t.next_hops = AdSet::decode(r);
  t.qos_mask = r.u8();
  t.uci_mask = r.u8();
  t.hour_begin = r.u8();
  t.hour_end = r.u8();
  t.cost = r.u32();
  if (!r.ok()) return std::nullopt;
  if (t.hour_begin > 23 || t.hour_end > 23) return std::nullopt;
  return t;
}

std::string PolicyTerm::describe(const Topology& topo) const {
  std::string out = "PT#" + std::to_string(id) + "@" + topo.ad(owner).name;
  auto set_desc = [&](const char* label, const AdSet& s) {
    out += " ";
    out += label;
    out += "=";
    if (s.is_any()) {
      out += "*";
    } else {
      out += "{";
      for (std::size_t i = 0; i < s.members().size(); ++i) {
        if (i) out += ",";
        out += topo.ad(s.members()[i]).name;
      }
      out += "}";
    }
  };
  set_desc("src", sources);
  set_desc("dst", dests);
  set_desc("prev", prev_hops);
  set_desc("next", next_hops);
  char buf[96];
  std::snprintf(buf, sizeof buf, " qos=%02x uci=%02x hours=[%u,%u] cost=%u",
                qos_mask, uci_mask, hour_begin, hour_end, cost);
  out += buf;
  return out;
}

PolicyTerm open_transit_term(AdId owner, std::uint32_t id,
                             std::uint32_t cost) {
  PolicyTerm t;
  t.id = id;
  t.owner = owner;
  t.cost = cost;
  return t;  // all sets default to "any", masks to all, window to full day
}

}  // namespace idr
