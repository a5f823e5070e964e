// Route-flap damping for the DV family (RFC 2439 shape, per-route
// figure of merit): every time a route's selected state changes the
// route accrues a fixed penalty; the penalty decays exponentially with
// `half_life_ms`. While the penalty is at or above the suppress
// threshold the route is SUPPRESSED: the node keeps using it for its
// own forwarding (local repair is not the problem flapping causes) but
// stops advertising it, so the churn a flapping link generates dies at
// the first damping hop instead of re-triggering a network-wide update
// wave per transition. Once the penalty decays to the reuse threshold
// the route is released and re-advertised. The penalty, thresholds and
// ceiling are constants in damping.cpp.
//
// The damper composes with MRAI batching: flaps are recorded at
// RIB-apply time (every selected-state change counts, even several
// within one MRAI window), while suppression is evaluated at encode
// time (whatever update the MRAI window finally emits reflects the
// then-current suppression state).
//
// Off by default (enabled = false): no flat-topology transcript changes.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/engine.hpp"
#include "util/dense_map.hpp"

namespace idr {

struct DampingConfig {
  bool enabled = false;
  double half_life_ms = 1'000.0;
};

// The penalty ceiling bounds how long a route stays suppressed after its
// last flap: half_life_ms * log2(max penalty / reuse threshold).
[[nodiscard]] SimTime max_suppression_ms(const DampingConfig& config);

struct DampingStats {
  std::uint64_t flaps = 0;            // selected-state changes recorded
  std::uint64_t suppress_events = 0;  // below -> at/above suppress crossings
  std::uint64_t reuse_events = 0;     // suppressed -> released crossings
  SimTime suppressed_ms = 0.0;        // total route-suppression time
};

class FlapDamper {
 public:
  explicit FlapDamper(DampingConfig config) : config_(config) {}

  [[nodiscard]] bool enabled() const noexcept { return config_.enabled; }

  // Record one selected-state change for the route keyed `key` at `now`.
  // Returns true when this flap pushed the route INTO suppression: that
  // crossing must still be advertised (the withdrawal neighbors key off);
  // only changes to an already-suppressed route stay silent.
  bool note_flap(std::uint64_t key, SimTime now);

  // Is the route currently suppressed? Decays the penalty to `now` and
  // performs the reuse-threshold release as a side effect, so callers
  // (encode paths, release timers) always see the up-to-date state.
  [[nodiscard]] bool suppressed(std::uint64_t key, SimTime now);

  // Pure suppression query (no release bookkeeping): true while the
  // key's decayed penalty still holds it above the reuse threshold.
  // Signature / change-gating paths use this so a const verdict never
  // mutates damper state.
  [[nodiscard]] bool would_suppress(std::uint64_t key, SimTime now) const;

  // Earliest time any currently-suppressed route will cross the reuse
  // threshold; < 0 when nothing is suppressed. Drives the release timer
  // that re-advertises damped routes (without it a released route would
  // stay withheld until the next unrelated trigger).
  [[nodiscard]] SimTime next_release_eta(SimTime now) const;

  // Decay and release every route whose penalty has reached the reuse
  // threshold; returns how many were released. Release timers call this
  // directly: the encode paths only query keys they still carry, so a
  // route that dropped out of the table (an IDRP destination with no
  // surviving candidate, say) would otherwise stay suppressed forever
  // and pin the timer.
  std::size_t release_due(SimTime now);

  [[nodiscard]] std::size_t suppressed_count(SimTime now);
  [[nodiscard]] const DampingStats& stats() const noexcept { return stats_; }
  // Every key that has flapped at least once, in first-flap order; only
  // these can be suppressed.
  [[nodiscard]] const std::vector<std::uint64_t>& tracked_keys()
      const noexcept {
    return routes_.keys();
  }

 private:
  struct RouteState {
    double penalty = 0.0;
    SimTime updated_at = 0.0;
    bool suppressed = false;
    SimTime suppressed_since = 0.0;
  };

  [[nodiscard]] double decayed(const RouteState& s, SimTime now) const;
  // ms from now until `s` decays to the reuse threshold.
  [[nodiscard]] SimTime release_delay(const RouteState& s,
                                      SimTime now) const;

  DampingConfig config_;
  DampingStats stats_;
  DenseMap<std::uint64_t, RouteState> routes_;
};

}  // namespace idr
