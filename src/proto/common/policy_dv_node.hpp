// Distance-vector control plane shared by Table 1's distance-vector row:
// ECMA (paper §5.1, policy embedded in the partial order) and IDRP (§5.2,
// explicit policy attributes). The two differ only in how policy is
// expressed -- their RIBs, update encodings and import checks -- which is
// all a subclass adds. This base owns the update timing around them: MRAI
// coalescing, periodic refresh, the route-flap damper with its release
// timer, and the graceful-restart stale-flush retry.
#pragma once

#include <cstdint>

#include "proto/common/damping.hpp"
#include "proto/common/node.hpp"

namespace idr {

// The knobs the distance-vector base reads; EcmaConfig and IdrpConfig
// extend it with what their design point adds.
struct PolicyDvConfig {
  // Min route advertisement interval: coalesce change-triggered
  // advertisements into one update per window (0 = advertise
  // immediately, the historical behavior). At paper scale every beacon
  // arrival would otherwise trigger a separate full-table update.
  double mrai_ms = 0.0;
  // Re-send the full table every periodic_refresh_ms (0 disables).
  // Triggered updates ride an unreliable datagram service, so a lost (or
  // checksum-discarded) update would otherwise leave a neighbor stale
  // forever; the periodic refresh bounds that staleness.
  double periodic_refresh_ms = 0.0;
  // Route-flap damping (off by default): a route accrues penalty on every
  // selected-route change; a suppressed route stops being advertised
  // (local forwarding keeps it) until the penalty decays to the reuse
  // threshold, at which point the release timer re-advertises it.
  DampingConfig damping;
};

class PolicyDvNode : public ProtoNode {
 public:
  [[nodiscard]] FlapDamper& damper() noexcept { return damper_; }
  // GR accounting: stale state flushed at grace expiry resp. resync
  // tables sent toward a recovered neighbor.
  [[nodiscard]] std::uint64_t gr_stale_flushed() const noexcept {
    return gr_stale_flushed_;
  }
  [[nodiscard]] std::uint64_t gr_resyncs() const noexcept {
    return gr_resyncs_;
  }

 protected:
  explicit PolicyDvNode(const DampingConfig& damping) : damper_(damping) {}

  // The design point's config, which extends PolicyDvConfig.
  [[nodiscard]] virtual const PolicyDvConfig& dv_config() const noexcept = 0;
  // Send the current table to every live neighbor.
  virtual void advertise(MsgClass cls = MsgClass::kUpdate) = 0;
  // Grace expired for `neighbor`: flush whatever its resync has not
  // refreshed.
  virtual void flush_stale(AdId neighbor) = 0;

  // The writer this thread encodes every update into, cleared: one
  // buffer grown once, not one per update. An update is copied out
  // exactly sized (the network keeps in-flight payloads resident, so
  // slack would be memory) before the next encode on the thread.
  [[nodiscard]] static wire::Writer& update_writer();

  // Advertise now, or once at the end of the MRAI window.
  void trigger_advertise();
  // advertise(kRefresh) every periodic_refresh_ms.
  void schedule_refresh();
  // Arm the release timer for the damper's earliest pending release.
  void maybe_schedule_release_check();
  // flush_stale(neighbor) just past grace expiry, retried while a
  // re-crash keeps extending the neighbor's grace window.
  void schedule_stale_flush(AdId neighbor);

  FlapDamper damper_;
  std::uint64_t gr_stale_flushed_ = 0;
  std::uint64_t gr_resyncs_ = 0;

 private:
  bool advertise_scheduled_ = false;      // an MRAI window is already open
  bool release_check_scheduled_ = false;  // a damping release timer is set
};

}  // namespace idr
