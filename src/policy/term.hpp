// Policy Terms (paper §4.2, §5.4.1, after Clark's RFC 1102).
//
// A Policy Term (PT) is advertised by a transit AD and states the
// conditions under which traffic may cross it: constraints on the source
// AD, destination AD, previous AD and next AD in the path, permitted QoS
// and user classes, a time-of-day window, and a cost (charging proxy).
// A flow may transit an AD arriving from `prev` and departing toward
// `next` iff at least one of the AD's PTs permits that combination.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "policy/flow.hpp"
#include "topology/graph.hpp"
#include "wire/codec.hpp"

namespace idr {

// A set of ADs: either "any AD" or an explicit sorted member list.
class AdSet {
 public:
  AdSet() = default;  // matches any AD

  static AdSet any() { return AdSet{}; }
  static AdSet of(std::vector<AdId> members);
  static AdSet none() { return of({}); }

  [[nodiscard]] bool is_any() const noexcept { return any_; }
  [[nodiscard]] bool contains(AdId id) const noexcept;
  [[nodiscard]] const std::vector<AdId>& members() const noexcept {
    return members_;
  }

  void encode(wire::Writer& w) const;
  static AdSet decode(wire::Reader& r);
  // decode() into this set, reusing its member buffer.
  void decode_from(wire::Reader& r);
  [[nodiscard]] std::size_t encoded_size() const noexcept {
    return any_ ? 1 : 3 + 4 * members_.size();
  }

  friend bool operator==(const AdSet&, const AdSet&) = default;

 private:
  void sort_members();

  bool any_ = true;
  std::vector<AdId> members_;  // sorted, unique
};

// Bitmask helpers for QoS / user-class sets.
inline constexpr std::uint8_t kAllQosMask = (1u << kQosCount) - 1;
inline constexpr std::uint8_t kAllUciMask = (1u << kUserClassCount) - 1;
constexpr std::uint8_t qos_bit(Qos q) noexcept {
  return static_cast<std::uint8_t>(1u << static_cast<std::uint8_t>(q));
}
constexpr std::uint8_t uci_bit(UserClass u) noexcept {
  return static_cast<std::uint8_t>(1u << static_cast<std::uint8_t>(u));
}

struct PolicyTerm {
  std::uint32_t id = 0;  // unique among the owner's terms
  AdId owner;            // transit AD advertising this term

  AdSet sources;    // source ADs allowed to use this term
  AdSet dests;      // destination ADs reachable through this term
  AdSet prev_hops;  // ADs traffic may arrive from
  AdSet next_hops;  // ADs traffic may depart toward

  std::uint8_t qos_mask = kAllQosMask;
  std::uint8_t uci_mask = kAllUciMask;
  std::uint8_t hour_begin = 0;   // inclusive time-of-day window; a window
  std::uint8_t hour_end = 23;    // with begin > end wraps past midnight

  std::uint32_t cost = 1;  // charging/metric proxy for this transit service

  // True iff this term allows `flow` to cross `owner`, arriving from
  // `prev` and departing toward `next`.
  [[nodiscard]] bool permits(const FlowSpec& flow, AdId prev,
                             AdId next) const noexcept;

  [[nodiscard]] bool hour_in_window(std::uint8_t hour) const noexcept;

  void encode(wire::Writer& w) const;
  static std::optional<PolicyTerm> decode(wire::Reader& r);
  // Fixed fields: id, owner, the two masks, the two hours, cost.
  [[nodiscard]] std::size_t encoded_size() const noexcept {
    return 16 + sources.encoded_size() + dests.encoded_size() +
           prev_hops.encoded_size() + next_hops.encoded_size();
  }

  [[nodiscard]] std::string describe(const Topology& topo) const;

  friend bool operator==(const PolicyTerm&, const PolicyTerm&) = default;
};

// Convenience constructors for the common policy shapes.
PolicyTerm open_transit_term(AdId owner, std::uint32_t id = 0,
                             std::uint32_t cost = 1);

}  // namespace idr
