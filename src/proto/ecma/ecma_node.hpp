// ECMA/NIST inter-AD routing (paper §5.1.1): distance vector, hop-by-hop,
// policy embedded in topology via the partial ordering's up/down rule.
//
// Mechanics implemented exactly as the paper describes:
//  * every link is up or down per the global PartialOrder;
//  * a route's shape must be up*down* (once down, never up again);
//  * routing updates carry a "down-only" flag so neighbors can tell which
//    routes remain usable after a down-link traversal;
//  * each AD keeps, per (destination, QoS), its best valid route of any
//    shape and its best down-only route -- the two FIBs hop-by-hop
//    forwarding needs, because a packet that has traversed a down link may
//    only follow down-only routes;
//  * per-QoS FIBs; a neighbor that does not support a QoS gets an
//    infinite metric for it;
//  * destination-specific export filters (an AD may serve transit for a
//    subset of destinations only).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "policy/flow.hpp"
#include "policy/term.hpp"
#include "proto/common/policy_dv_node.hpp"
#include "proto/ecma/partial_order.hpp"
#include "util/dense_map.hpp"

namespace idr {

// The update-timing knobs come from PolicyDvConfig. Damping is per
// (dst, qos): a suppressed key is advertised at infinity. With graceful
// restart a crashed neighbor's routes are stale-flagged -- kept in the
// FIB and excluded from re-advertisement -- instead of poisoned, and
// whatever its resync has not refreshed by grace expiry is poisoned then.
struct EcmaConfig : PolicyDvConfig {
  std::uint8_t qos_mask = kAllQosMask;  // QoS classes this AD supports
  // Destinations this AD will advertise transit for (empty = all).
  std::unordered_set<std::uint32_t> export_dsts;
  // Stub behaviour: advertise only own reachability (no transit routes).
  bool stub = false;
  // Originate reachability for this AD at all. At paper scale (~1e5 ADs)
  // all-pairs DV state is infeasible and unnecessary; the scale profile
  // has only a sampled set of beacon ADs originate, so RIBs stay
  // O(beacons) while every AD still participates in transit.
  bool originate = true;
  // Receiver-side Byzantine defense (the sender-side up/down rule is what
  // a misconfigured or lying AD violates): every incoming advertisement is
  // checked against static-topology lower bounds -- a claimed metric below
  // the sender's static distance to dst is impossible, a down-only claim
  // below the sender's static down-links-only distance is a leaked
  // down-then-up route, and a transit advertisement from a stub/multihomed
  // role (or a hybrid for a non-neighbor dst) violates its known role.
  // Rejections are counted via Network::note_defense_rejection.
  bool receiver_order_check = false;
};

// The update timing comes from PolicyDvNode; ECMA adds the two-slot
// up/down RIB, the help heuristic and the receiver-side order check.
class EcmaNode : public PolicyDvNode {
 public:
  // All nodes share one immutable PartialOrder (computed by the central
  // authority before the protocol starts -- the paper's deployment model).
  EcmaNode(const PartialOrder* order, EcmaConfig config)
      : PolicyDvNode(config.damping),
        order_(order),
        config_(std::move(config)) {}

  void start() override;
  void on_message(AdId from, std::span<const std::uint8_t> bytes) override;
  void on_link_change(AdId neighbor, bool up) override;

  // Forwarding decision for a packet toward dst with the given QoS that
  // has (or has not) already traversed a down link. Returns the neighbor
  // to forward to and whether the packet's gone-down flag must be set.
  struct Forwarding {
    AdId via;
    bool sets_gone_down;
  };
  [[nodiscard]] std::optional<Forwarding> forward(AdId dst, Qos qos,
                                                  bool gone_down) const;

  // Metric of an unreachable (dst, qos); distance() returns it too.
  static constexpr std::uint16_t kInfinity = 64;

  [[nodiscard]] std::uint16_t distance(AdId dst, Qos qos) const;
  [[nodiscard]] std::size_t fib_entries() const noexcept;
  [[nodiscard]] const PartialOrder& order() const noexcept { return *order_; }

  static constexpr std::uint8_t kMsgUpdate = 1;

 protected:
  [[nodiscard]] const PolicyDvConfig& dv_config() const noexcept override {
    return config_;
  }
  // encode_for ignores the neighbor (full-table updates, receiver-side
  // usability filtering), so one encode serves every adjacency.
  void advertise(MsgClass cls = MsgClass::kUpdate) override;
  // Poisons the RIB slots still stale-flagged through `neighbor`.
  void flush_stale(AdId neighbor) override;

 private:
  struct Route {
    std::uint16_t metric = 0xffff;
    AdId via;
    bool down_only = false;
    // Graceful-restart retention: the via is restarting; keep forwarding
    // over this route but stop advertising it until refreshed or flushed.
    bool stale = false;
    [[nodiscard]] bool valid() const noexcept { return metric < kInfinity; }
  };
  struct Entry {
    Route best;       // best valid route of any shape (up*down*)
    Route best_down;  // best route using down links only
  };

  [[nodiscard]] static std::uint64_t key(AdId dst, Qos qos) noexcept {
    return (static_cast<std::uint64_t>(dst.v) << 8) |
           static_cast<std::uint8_t>(qos);
  }

  // Accounts a change to key `k` (a damping flap when `flap`) and returns
  // whether it alters what we advertise: a change confined to an
  // already-suppressed key does not (the key encodes at infinity either
  // way) -- this is where damping cuts the flap cascade -- while the
  // crossing INTO suppression does, since that update is the withdrawal
  // neighbors key off.
  bool change_is_advertised(std::uint64_t k, bool flap);
  // Poisons every RIB slot `hit` selects; withdraws if that changed what
  // we advertise.
  template <typename Hit>
  void poison(Hit&& hit);
  [[nodiscard]] bool advertisable(AdId dst) const;
  // Damping is consulted via the pure would_suppress only: all releases
  // are performed by the release timer, which always re-broadcasts. The
  // update is in update_writer()'s buffer: valid until the next encode
  // on this thread.
  [[nodiscard]] const std::vector<std::uint8_t>& encode_for(
      AdId neighbor) const;

  // Static per-sender distance lower bounds for the receiver-side
  // defense, computed lazily over the full (state-independent) topology:
  // live distances can only be >= these, so any advertisement below them
  // is a provable lie.
  struct SenderBound {
    std::vector<std::uint16_t> dist;       // any-shape hops from sender
    std::vector<std::uint16_t> down_dist;  // down-links-only hops
  };
  [[nodiscard]] const SenderBound& sender_bound(AdId from);
  [[nodiscard]] bool defense_accepts(const SenderBound& bound, AdId from,
                                     AdId dst, bool adv_down_only,
                                     std::uint16_t adv) const;
  std::unordered_map<std::uint32_t, SenderBound> sender_bounds_;
  [[nodiscard]] bool neighbor_is_below(AdId neighbor) const {
    // Link self -> neighbor is a down link from our perspective.
    return !order_->is_up(self(), neighbor);
  }

  const PartialOrder* order_;
  EcmaConfig config_;
  // Struct-of-arrays FIB keyed by (dst, qos); contiguous iteration is the
  // encode hot path and insertion-order walks keep runs deterministic.
  DenseMap<std::uint64_t, Entry> rib_;
  // Last advertised route per neighbor direction is recomputed on demand;
  // full-table triggered updates keep the protocol simple and honest.
};

}  // namespace idr
