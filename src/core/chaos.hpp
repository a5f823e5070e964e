// Chaos harness: runs one of the paper's four design points over the
// Figure 1 internetwork while links flap, nodes crash and restart cold,
// and every frame is subject to adversarial delivery faults (loss,
// corruption, duplication, reordering) -- with the instantaneous
// link-state oracle switched OFF, so protocols must detect failures from
// their own keepalive hold timers. An InvariantMonitor sweeps forwarding
// state throughout and classifies loops / black holes / stale routes as
// transient (within the reconvergence window of a fault) or persistent
// (a real correctness failure).
//
// The whole run is a pure function of ChaosParams::seed: same seed, same
// fault schedule, same message trace, byte-identical counters. The soak
// tool runs every design point twice per seed and fails loudly if the
// counter fingerprints differ.
//
// Orthogonal to the delivery faults, a Byzantine schedule can mark whole
// ADs as misbehaving (false-origin hijack, route leak, path-attribute
// tampering, forwarding black hole). With defenses off the run measures
// blast radius; with defenses on every design point's receiver-side
// defense is armed, detected traffic-droppers are quarantined after a
// detection delay, and a PolicyComplianceAuditor checks that no honest
// (src, dst) pair is left persistently polluted.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "proto/common/counters.hpp"
#include "proto/common/damping.hpp"
#include "sim/invariants.hpp"
#include "sim/network.hpp"

namespace idr {

class FailureInjector;
struct ScaleProfile;

// Transit-policy shape for the run. Byzantine route-leak experiments need
// kProviderCustomer: with fully open policies there is no transit promise
// a leaker could break.
enum class PolicyMode : std::uint8_t {
  kOpen = 0,
  kProviderCustomer = 1,
};

struct ByzantineParams {
  // How many ADs misbehave (drawn from the transit-capable ADs on an
  // independent seeded stream; 0 disables the Byzantine layer).
  std::size_t count = 0;
  // Arm the per-design-point defenses (ECMA receiver-side partial-order
  // enforcement, IDRP neighbor-consistency clamping, LS/LSHH origin
  // authentication, ORWG registry-validated synthesis) and quarantine
  // misbehaving ADs a fixed detection delay after the misbehavior's
  // onset (both constants in core/chaos.cpp).
  bool defended = false;
  // Misbehavior kinds assigned round-robin to the chosen ADs; empty =
  // the full taxonomy {leak, false-origin, black hole, tamper}.
  std::vector<Misbehavior> kinds;
};

// The churn processes, keepalive, refresh and monitor cadences of the
// run are fixed (core/chaos.cpp); these are what callers vary.
struct ChaosParams {
  std::uint64_t seed = 1;
  SimTime horizon_ms = 10'000.0;

  PolicyMode policy_mode = PolicyMode::kOpen;
  ByzantineParams byzantine;
  // Honest (src, dst) pairs the policy-compliance auditor samples (0 =
  // every pair); its sweeps begin at the misbehavior's onset.
  std::size_t audit_sample_pairs = 48;

  // Churn is injected in [0, horizon * churn_fraction]; the rest of the
  // run is a quiet tail in which every violation counts as persistent
  // once the reconvergence window has elapsed.
  double churn_fraction = 0.4;

  FaultConfig faults{
      .loss_rate = 0.0,  // corruption + checksum already behaves as loss
      .corrupt_rate = 0.02,
      .duplicate_rate = 0.02,
      .reorder_rate = 0.05,
      .reorder_extra_ms = 5.0,
      // The modeled datagram checksum catches every flip; mangled frames
      // are counted and dropped at the interface. Decoder robustness
      // against frames that evade the checksum is covered separately by
      // the wire fuzz tests.
      .corrupt_deliver_fraction = 0.0,
  };
};

struct ChaosResult {
  std::string arch;
  InvariantStats invariants;
  Counters totals;
  std::size_t link_failures = 0;     // link-down events injected
  std::size_t node_crashes = 0;      // crash events injected
  std::uint64_t counter_fingerprint = 0;  // FNV-1a over per-AD counters

  // Byzantine layer (empty / zero when byzantine.count == 0).
  std::vector<ByzantineSpec> byzantine;
  bool defended = false;
  AuditStats audit;
  std::uint64_t defense_rejections = 0;
};

// Run `arch` ("ecma" | "idrp" | "ls-hbh" | "orwg") through the seeded
// churn schedule over the Figure 1 topology with open policies.
ChaosResult run_chaos(const std::string& arch, const ChaosParams& params);

// --- Paper-scale failure & recovery ----------------------------------
//
// Storm scenario families over the core/scale_profile deployment (pure
// hierarchy, ~1e2 transit core, beacon-originated DV destinations).
// Failure detection uses the instantaneous link-state oracle instead of
// keepalives: storms are injected as link transitions (a node outage is
// all of its links going dark), and per-link keepalive probing at 1e4+
// ADs would drown the event queue in liveness traffic that run_chaos
// already soaks at small scale.

enum class StormFamily : std::uint8_t {
  kFlapStorm = 0,      // seeded per-link flap processes on transit links
  kWithdrawStorm = 1,  // batches of beacon stubs going dark and returning
  kPartition = 2,      // a regional subtree cut off the backbone, healed
  kCoreOutage = 3,     // a transit-core (backbone) node failure + repair
  // Staggered transit-core node crash/restart cycles driven through the
  // crash oracle (Network::set_crash_notifications), with graceful
  // restart and ingress overload protection as A/B knobs. Benched by
  // the restart matrix (BENCH_restart.json), not the chaos-scale one.
  kRestartStorm = 4,
};

[[nodiscard]] const char* to_string(StormFamily family);
// All four families, in enum order (bench/soak iteration order).
[[nodiscard]] const std::vector<StormFamily>& storm_families();

// Restart storm: this many seeded-shuffled transit ADs crash (soft state
// lost) in each of this many waves, staggered; each restarts cold
// restart_down_ms later. Failure detection uses the crash oracle. The
// other storms' shapes and the monitor cadence are fixed in
// core/chaos.cpp.
inline constexpr std::size_t kRestartStormNodes = 8;
inline constexpr std::uint32_t kRestartStormWaves = 2;

struct ScaleChaosParams {
  std::uint64_t seed = 0x5ca1eULL;  // profile seed (the scale matrix's)
  std::uint32_t target_ads = 10'000;
  StormFamily storm = StormFamily::kFlapStorm;

  // Flap storm: cycles of each flapping link's process. Suppression needs
  // ~3 transitions per link to engage, so the cycle count sets how much
  // of the storm the damped tail amortizes.
  std::uint32_t flap_cycles = 10;
  SimTime restart_down_ms = 300.0;  // restart storm: outage per crash

  // Recovery knobs, all off by default (existing behavior unchanged).
  DampingConfig damping{};      // DV family (ECMA, IDRP)
  SimTime ls_holddown_ms = 0.0; // LS family (LS-HbH, ORWG)
  GrConfig gr{};                // graceful restart (restart storm)
  OverloadConfig overload{};    // bounded class-prioritized ingress queues
};

struct ScaleChaosResult {
  std::string arch;
  StormFamily storm = StormFamily::kFlapStorm;
  std::uint32_t ads = 0;
  std::uint32_t transit_ads = 0;
  std::uint32_t beacons = 0;  // originating DV destinations

  InvariantStats invariants;
  // Deduplicated persistent violations with their probe walks -- what a
  // failing gate prints for diagnosis.
  std::vector<InvariantFinding> persistent_findings;
  Counters totals;
  std::uint64_t counter_fingerprint = 0;

  SimTime converge_ms = 0.0;     // cold start -> drained queue
  SimTime storm_begin_ms = 0.0;  // first scheduled transition
  SimTime storm_end_ms = 0.0;    // last scheduled transition
  SimTime horizon_ms = 0.0;
  std::size_t storm_transitions = 0;  // link down events injected

  // Control-plane churn: messages sent inside / after the storm window,
  // and the normalized updates/sec over the storm (sim time).
  std::uint64_t updates_during_storm = 0;
  std::uint64_t updates_after_storm = 0;
  double updates_per_sec_storm = 0.0;

  // Storm-class reconvergence (from the last transition to the first
  // all-clean sweep); < 0 = never reconverged (a gate failure).
  SimTime reconverge_ms = -1.0;

  // Recovery-mechanism accounting, aggregated over all nodes.
  std::uint64_t flaps_recorded = 0;       // DV damper state changes
  std::uint64_t routes_suppressed = 0;    // suppress-threshold crossings
  std::uint64_t routes_reused = 0;        // reuse-threshold releases
  SimTime suppressed_ms_total = 0.0;      // damped-route unreachability
  std::size_t suppressed_at_end = 0;      // still damped at the horizon
  std::uint64_t ls_originations_suppressed = 0;  // hold-down no-op windows

  // Restart-storm accounting (all zero for the link-event families).
  std::size_t node_crashes = 0;       // crash events injected
  OverloadStats overload;             // ingress queueing, drops by class
  std::uint64_t gr_recoveries = 0;    // grace windows ended by a restart
  std::uint64_t gr_flushes = 0;       // grace windows that expired
  std::uint64_t gr_stale_flushed = 0; // DV stale entries/RIBs poisoned
  std::uint64_t gr_resyncs = 0;       // resyncs toward recovered nodes
  std::uint64_t gr_retained = 0;      // LS adjacency retentions entered
  std::uint64_t gr_memoized = 0;      // ORWG cache answers inside grace
};

// Schedules the storm's transitions on `injector` from `t0` on; the links,
// beacons or transit ADs it hits are drawn from a PRNG seeded by
// params.seed. Returns the time of the last scheduled transition.
SimTime schedule_storm(const ScaleChaosParams& params,
                       const ScaleProfile& profile, FailureInjector& injector,
                       SimTime t0);

// Run one storm family over the scale profile for `arch`. Deterministic
// in (arch, params): same seed, same storm schedule, same fingerprint.
ScaleChaosResult run_scale_chaos(const std::string& arch,
                                 const ScaleChaosParams& params);

}  // namespace idr
