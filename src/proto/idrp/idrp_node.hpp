// IDRP / BGP-2 style protocol (paper §5.2, §5.2.1): distance vector
// (path vector) hop-by-hop routing with explicit policy attributes.
//
//  * Updates carry the full AD path; a receiver discards any route whose
//    path already contains it (loop suppression without a partial order).
//  * Updates carry policy attributes aggregated along the path: the set
//    of source ADs permitted to use the route, permitted QoS/UCI classes,
//    a time-of-day mask and accumulated cost. An AD re-advertising a
//    route intersects these with its own Policy Terms, possibly yielding
//    several differently-constrained routes per destination.
//  * Each AD may keep and advertise multiple routes per destination
//    (capped by routes_per_dest); the paper's scaling objection is that
//    this cap must grow with policy granularity, which the
//    policy-granularity bench measures.
//  * Per-neighbor full-table updates with implicit withdrawal (a route
//    absent from the latest update from a neighbor is gone).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_set>
#include <vector>

#include "policy/database.hpp"
#include "policy/flow.hpp"
#include "policy/term.hpp"
#include "proto/common/policy_dv_node.hpp"
#include "util/dense_map.hpp"

namespace idr {

// Hour-of-day bitmask helpers (bit h set = hour h permitted).
constexpr std::uint32_t kAllHoursMask = 0x00ffffffu;
std::uint32_t hour_window_mask(std::uint8_t begin, std::uint8_t end) noexcept;

// Policy attributes of an advertised route, aggregated along the path.
struct RouteAttrs {
  AdSet sources;  // source ADs permitted to use the route
  std::uint8_t qos_mask = kAllQosMask;
  std::uint8_t uci_mask = kAllUciMask;
  std::uint32_t hour_mask = kAllHoursMask;
  std::uint32_t cost = 0;

  [[nodiscard]] bool permits(const FlowSpec& flow) const noexcept;
  // True iff `this` permits every flow `other` permits (and is therefore
  // redundant if also no better in length/cost terms).
  [[nodiscard]] bool covers(const RouteAttrs& other) const noexcept;
  [[nodiscard]] bool usable() const noexcept;  // permits anything at all

  void encode(wire::Writer& w) const;
  // Decodes into this object, reusing its buffers (check r.ok()).
  void decode_from(wire::Reader& r);

  friend bool operator==(const RouteAttrs&, const RouteAttrs&) = default;
};

struct IdrpRoute {
  AdId dst;
  std::vector<AdId> path;  // next hop first, dst last; never contains self
  RouteAttrs attrs;

  void encode(wire::Writer& w) const;
  static std::optional<IdrpRoute> decode(wire::Reader& r);
  // decode() into this route, reusing its buffers; false on a short read.
  bool decode_from(wire::Reader& r);

  friend bool operator==(const IdrpRoute&, const IdrpRoute&) = default;
};

// The update-timing knobs come from PolicyDvConfig. Damping is per
// destination: a suppressed destination is omitted from updates
// (implicit withdrawal). With graceful restart a crashed neighbor's
// Adj-RIB-in is retained (no reselect, so the identical-update
// suppression keeps downstream quiet) instead of erased, until a fresh
// full-table update from the resynced neighbor replaces it or grace
// expires.
struct IdrpConfig : PolicyDvConfig {
  // Max routes retained/advertised per destination (paper: must grow with
  // policy granularity for sources to keep finding usable routes).
  std::uint32_t routes_per_dest = 4;
  // Receiver-side Byzantine defense (self-in-path suppression is always
  // on; this adds neighbor-consistency): the path must actually end at
  // the claimed destination, every consecutive pair on it must be
  // statically adjacent, and a transit route from a neighbor is clamped
  // to that neighbor's *registered* Policy Terms (the paper's §2.3
  // assurance model: policy registration is verifiable out of band) --
  // a route no registered term of the sender could have produced is
  // rejected. Rejections are counted via note_defense_rejection.
  bool defend = false;
  // Originate reachability for this AD. At paper scale only sampled
  // beacon ADs originate (all-pairs path-vector state is infeasible at
  // 1e5 ADs); every AD still re-advertises and carries transit.
  bool originate = true;
  // When our own Policy Terms are previous-hop-agnostic, every neighbor
  // off the advertised paths receives a byte-identical update; encode it
  // once and share the payload (paper scale: a regional AD has ~1e3 stub
  // neighbors). Off by default to keep per-neighbor encode exact.
  bool shared_updates = false;
};

// The update timing comes from PolicyDvNode; IDRP adds the path-vector
// RIBs, Policy Term export, the defence clamp and shared updates.
class IdrpNode : public PolicyDvNode {
 public:
  // `policies` is the global PolicySet; each node reads ONLY its own
  // terms from it (its configured import/export policy).
  IdrpNode(const PolicySet* policies, IdrpConfig config = {})
      : PolicyDvNode(config.damping), policies_(policies), config_(config) {}

  void start() override;
  void on_message(AdId from, std::span<const std::uint8_t> bytes) override;
  void on_link_change(AdId neighbor, bool up) override;

  // Forwarding: first selected route for dst whose attributes permit the
  // flow, whose next hop is reachable and -- when we are a transit AD for
  // this packet (`prev` is the adjacent AD it arrived from) -- for which
  // one of our own Policy Terms permits the actual (prev, next) pair.
  // Returns the next hop.
  [[nodiscard]] std::optional<AdId> forward(const FlowSpec& flow,
                                            AdId prev = kNoAd) const;

  // The selected route a source would use for this flow (full path view,
  // used by the DV+source-routing hybrid and by diagnostics).
  [[nodiscard]] const IdrpRoute* select(const FlowSpec& flow) const;

  // All selected routes for a destination (nullptr if none) -- used by
  // the DV+source-routing hybrid, which picks among them at the source.
  [[nodiscard]] const std::vector<IdrpRoute>* routes(AdId dst) const;

  [[nodiscard]] std::size_t loc_rib_routes() const noexcept;
  [[nodiscard]] std::size_t adj_rib_routes() const noexcept;
  [[nodiscard]] std::size_t routes_for(AdId dst) const;
  // Per-destination route selections made so far. A reselect chooses
  // only the destinations an update or a link change may have altered,
  // so this counts the selection work itself.
  [[nodiscard]] std::uint64_t selections() const noexcept {
    return selections_;
  }

  static constexpr std::uint8_t kMsgUpdate = 1;

 protected:
  [[nodiscard]] const PolicySet& policies() const noexcept {
    return *policies_;
  }
  [[nodiscard]] const PolicyDvConfig& dv_config() const noexcept override {
    return config_;
  }
  // Per-neighbor full tables, each sent only when it differs from the
  // last one that neighbor got; a refresh resends them all.
  void advertise(MsgClass cls = MsgClass::kUpdate) override;
  // Erases `neighbor`'s Adj-RIB-in unless its resync replaced it in time.
  void flush_stale(AdId neighbor) override;

 private:
  // Routes an update keeps, in per-thread scratch (idrp_node.cpp).
  struct KeptRoutes;
  // One neighbor's Adj-RIB-in: the routes of its latest full table, and
  // whether its link was usable at the last reselect. The loc-RIB was
  // built from the tables usable then, in their order.
  struct AdjRibIn {
    std::vector<IdrpRoute> routes;
    bool usable = false;
  };

  // Reselect the destinations an update or link change marked (in
  // idrp_node.cpp's per-thread scratch) and advertise if the advertised
  // table changed.
  void reselect_and_maybe_advertise();
  // Forget everything `neighbor` told us and reselect.
  void drop_neighbor(AdId neighbor);
  [[nodiscard]] bool link_usable(AdId neighbor) const;
  // Defense filter for one received route (config_.defend only): checks
  // neighbor consistency and clamps to the sender's registered terms,
  // appending the surviving copies to `kept`.
  void defend_and_keep(AdId from, const IdrpRoute& route, KeptRoutes& kept);
  // The update for `neighbor`, in update_writer()'s buffer: valid until
  // the next encode on this thread.
  [[nodiscard]] const std::vector<std::uint8_t>& encode_for(
      AdId neighbor) const;
  // rib_signature_ without the destinations damped now: they are left
  // out of updates, so a change confined to them is not advertisable.
  [[nodiscard]] std::uint64_t advertised_signature() const;

  const PolicySet* policies_;
  IdrpConfig config_;
  // Neighbors whose Adj-RIB-in is graceful-restart stale (retained while
  // the neighbor restarts; awaiting a resync update or the flush timer).
  std::unordered_set<std::uint32_t> stale_nbrs_;
  // Per neighbor (dense, insertion ordered: iteration order is a
  // function of the event sequence only).
  DenseMap<std::uint32_t, AdjRibIn> adj_rib_in_;
  // loc-RIB: selected routes per destination, in encode order: our own
  // origin first, then destinations by first appearance over the usable
  // Adj-RIBs-in.
  DenseMap<std::uint32_t, std::vector<IdrpRoute>> loc_rib_;
  // Order-independent hash of the loc-RIB: a seed XOR each destination's
  // routes hash, updated as selections change.
  std::uint64_t rib_signature_ = 0x9e3779b97f4a7c15ULL;
  std::uint64_t last_advertised_signature_ = 0;
  std::uint64_t selections_ = 0;
  // Per-neighbor hash of the last update actually sent; identical
  // re-advertisements are suppressed (real path-vector implementations
  // do the same, and it keeps triggered-update churn honest).
  DenseMap<std::uint32_t, std::uint64_t> last_sent_hash_;
};

}  // namespace idr
