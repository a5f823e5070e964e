// Paper-scale failure & recovery (soak label): run_scale_chaos at 1e3
// ADs must carry a regional partition/heal cleanly for every design
// point -- zero persistent invariant violations, a finite storm-class
// reconvergence time, and a deterministic counter fingerprint -- and
// the damped DV flap storm and the held-down LS flap storm must both stay
// clean and measurably cut the update churn against the plain run. Every
// run is pinned against tests/pins.hpp's recorded values.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/chaos.hpp"
#include "core/design_harness.hpp"
#include "pins.hpp"

namespace idr {
namespace {

ScaleChaosParams scale_params(StormFamily storm) {
  ScaleChaosParams params;
  params.target_ads = 1'000;
  params.storm = storm;
  return params;
}

// Pins recorded on commit 8102046 (see tests/pins.hpp).
using Pins = std::map<std::string, RunPin>;
const Pins kPartitionPins = {
    {"ecma", {0xaf57a47a5806268dull, 13188, 0, 0}},
    {"idrp", {0x990116891229cfc2ull, 26677, 3, 0}},
    {"ls-hbh", {0xe4ae7d374b1ba16ull, 3413, 0, 0}},
    {"orwg", {0x44a7ab4eb786995ull, 3413, 0, 0}}};
const Pins kRestartColdPins = {
    {"ecma", {0x5eeb9e1c90a52d36ull, 78217, 44, 0}},
    {"idrp", {0xf822fca3c7bac673ull, 58508, 29, 0}},
    {"ls-hbh", {0x99a1a0fc467d4922ull, 16723, 13, 0}},
    {"orwg", {0x607a416363d1672full, 16723, 17, 0}}};
const Pins kRestartGrPins = {
    {"ecma", {0x674de06f7720c77dull, 25984, 16, 0}},
    {"idrp", {0x6727fb0587bd27b4ull, 12953, 2, 0}},
    {"ls-hbh", {0x3f63279c1629a987ull, 12366, 0, 0}},
    {"orwg", {0x2024c228aa986ffbull, 12366, 0, 0}}};
const Pins kGraceExpiryPins = {
    {"ecma", {0x1eca4f1ccdad049eull, 61623, 51, 0}},
    {"idrp", {0x39afee9e71a517d3ull, 57354, 25, 0}},
    {"ls-hbh", {0x32c8fa610ddd6b74ull, 15545, 5, 0}},
    {"orwg", {0x358a2678bba8d3d7ull, 15545, 12, 0}}};
const Pins kFlapUndampedPins = {
    {"ecma", {0xd26b766742a89fafull, 146192, 43, 0}},
    {"idrp", {0x7d5387c3c5a7f0b1ull, 55078, 0, 0}}};
const Pins kFlapDampedPins = {
    {"ecma", {0x56061c99d8a33e88ull, 52835, 165, 0}},
    {"idrp", {0xa4fdb409b468373bull, 18427, 90, 0}}};
const Pins kFlapPlainLsPins = {
    {"ls-hbh", {0x630a6e3fd70d907full, 42158, 6, 0}},
    {"orwg", {0x51cb6db5e23866b9ull, 42158, 2, 0}}};
const Pins kFlapHeldLsPins = {
    {"ls-hbh", {0x69c9547291b51fc9ull, 8204, 53, 0}},
    {"orwg", {0x32a9ab24c45b14f1ull, 8204, 53, 0}}};

TEST(ChaosScale, PartitionHealsCleanlyAtOneThousandAds) {
  for (const std::string& arch : design_point_names()) {
    SCOPED_TRACE(arch);
    const ScaleChaosResult result =
        run_scale_chaos(arch, scale_params(StormFamily::kPartition));
    expect_pinned(result, kPartitionPins.at(arch));
    EXPECT_GT(result.storm_transitions, 0u);
    EXPECT_EQ(result.invariants.persistent_violations(), 0u)
        << "partition/heal left persistent forwarding damage";
    EXPECT_GE(result.reconverge_ms, 0.0) << "never reconverged";
    // The heal is a distinct transition: reconvergence is measured from
    // the LAST transition, so it must fit inside the partition window.
    EXPECT_LE(result.reconverge_ms, 3'000.0);
  }
}

TEST(ChaosScale, RestartStormGracefulRestartProtectsContinuity) {
  // The restart-storm A/B at 1e3 ADs, all four design points: with
  // graceful restart + bounded ingress queues on, forwarding continuity
  // through the staggered transit crashes must beat the cold-restart
  // baseline and every grace window must end in a recovery handover
  // (grace > outage), with zero persistent damage on both sides.
  for (const std::string& arch : design_point_names()) {
    SCOPED_TRACE(arch);
    ScaleChaosParams cold = scale_params(StormFamily::kRestartStorm);
    ScaleChaosParams gr = cold;
    gr.gr.enabled = true;
    gr.gr.grace_ms = 2'000.0;  // > restart_down_ms: recovery within grace
    gr.overload.queue_limit = 64;

    const ScaleChaosResult off = run_scale_chaos(arch, cold);
    const ScaleChaosResult on = run_scale_chaos(arch, gr);
    expect_pinned(off, kRestartColdPins.at(arch));
    expect_pinned(on, kRestartGrPins.at(arch));
    EXPECT_GT(off.node_crashes, 0u);
    EXPECT_EQ(off.invariants.persistent_violations(), 0u);
    EXPECT_EQ(on.invariants.persistent_violations(), 0u);
    EXPECT_GT(on.gr_recoveries, 0u) << "no grace window saw its recovery";
    EXPECT_EQ(on.gr_flushes, 0u) << "grace > outage must never flush";
    EXPECT_GT(on.invariants.continuity(), off.invariants.continuity())
        << "GR must keep probes flowing that cold restart black-holes";
    EXPECT_GE(on.invariants.continuity(), 0.95);
    // The bounded queues were armed and respected.
    EXPECT_GT(on.overload.enqueued, 0u);
    EXPECT_LE(on.overload.peak_depth, gr.overload.queue_limit);
  }
}

TEST(ChaosScale, RestartStormGraceExpiryFlushesStaleState) {
  // Grace window SHORTER than the outage: every window must expire into
  // a stale flush, and the flush must leave no persistent stale route
  // behind once the network reconverges.
  for (const std::string& arch : design_point_names()) {
    SCOPED_TRACE(arch);
    ScaleChaosParams params = scale_params(StormFamily::kRestartStorm);
    params.gr.enabled = true;
    params.gr.grace_ms = 150.0;
    params.restart_down_ms = 600.0;
    const ScaleChaosResult result = run_scale_chaos(arch, params);
    expect_pinned(result, kGraceExpiryPins.at(arch));
    EXPECT_GT(result.gr_flushes, 0u) << "no grace window ever expired";
    EXPECT_EQ(result.gr_recoveries, 0u)
        << "grace < outage must never hand over to a live control plane";
    EXPECT_EQ(result.invariants.persistent_violations(), 0u)
        << "stale state survived the flush";
    EXPECT_GE(result.reconverge_ms, 0.0) << "never reconverged";
  }
}

TEST(ChaosScale, PartitionRunsAreDeterministic) {
  const ScaleChaosParams params = scale_params(StormFamily::kPartition);
  const ScaleChaosResult a = run_scale_chaos("ecma", params);
  const ScaleChaosResult b = run_scale_chaos("ecma", params);
  expect_pinned(a, kPartitionPins.at("ecma"));
  EXPECT_EQ(a.counter_fingerprint, b.counter_fingerprint);
  EXPECT_EQ(a.reconverge_ms, b.reconverge_ms);
  EXPECT_EQ(a.updates_during_storm, b.updates_during_storm);
}

TEST(ChaosScale, DampedFlapStormStaysCleanAndCutsChurn) {
  for (const std::string& arch : {std::string("ecma"), std::string("idrp")}) {
    SCOPED_TRACE(arch);
    ScaleChaosParams off = scale_params(StormFamily::kFlapStorm);
    ScaleChaosParams on = off;
    on.damping.enabled = true;
    on.damping.half_life_ms = 500.0;

    const ScaleChaosResult undamped = run_scale_chaos(arch, off);
    const ScaleChaosResult damped = run_scale_chaos(arch, on);
    expect_pinned(undamped, kFlapUndampedPins.at(arch));
    expect_pinned(damped, kFlapDampedPins.at(arch));
    EXPECT_EQ(undamped.invariants.persistent_violations(), 0u);
    EXPECT_EQ(damped.invariants.persistent_violations(), 0u)
        << "damping must not black-hole released routes";
    EXPECT_GE(damped.reconverge_ms, 0.0);
    EXPECT_GT(damped.routes_suppressed, 0u) << "damping never engaged";
    EXPECT_EQ(damped.suppressed_at_end, 0u)
        << "suppressed routes must be released by the quiet tail";
    EXPECT_LT(damped.updates_during_storm, undamped.updates_during_storm)
        << "damping must reduce storm churn";
  }
}

TEST(ChaosScale, LsHoldDownFlapStormStaysCleanAndCutsChurn) {
  // The LS family's counterpart of damping: a 150 ms origination
  // hold-down coalesces the flapping links' transitions, and a window
  // that ends where it began (the link flapped down and back) originates
  // nothing at all.
  for (const std::string& arch :
       {std::string("ls-hbh"), std::string("orwg")}) {
    SCOPED_TRACE(arch);
    ScaleChaosParams plain = scale_params(StormFamily::kFlapStorm);
    ScaleChaosParams held = plain;
    held.ls_holddown_ms = 150.0;

    const ScaleChaosResult off = run_scale_chaos(arch, plain);
    const ScaleChaosResult on = run_scale_chaos(arch, held);
    expect_pinned(off, kFlapPlainLsPins.at(arch));
    expect_pinned(on, kFlapHeldLsPins.at(arch));
    EXPECT_EQ(off.invariants.persistent_violations(), 0u);
    EXPECT_EQ(on.invariants.persistent_violations(), 0u)
        << "held-down originations must still converge";
    EXPECT_GE(on.reconverge_ms, 0.0);
    EXPECT_EQ(off.ls_originations_suppressed, 0u);
    EXPECT_GT(on.ls_originations_suppressed, 0u)
        << "no hold-down window ever ended unchanged";
    EXPECT_GE(off.updates_during_storm, 5 * on.updates_during_storm)
        << "hold-down must cut storm churn at least 5x";
  }
}

}  // namespace
}  // namespace idr
