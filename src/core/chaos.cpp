#include "core/chaos.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "core/design_harness.hpp"
#include "core/scale_profile.hpp"
#include "policy/generator.hpp"
#include "proto/common/policy_dv_node.hpp"
#include "proto/ecma/partial_order.hpp"
#include "proto/orwg/orwg_node.hpp"
#include "sim/failure.hpp"
#include "topology/figure1.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

namespace idr {

namespace {

// --- run_chaos: churn processes, liveness and refresh ------------------
// Exponential up/down times of each link's and each AD's churn process.
constexpr SimTime kLinkMeanUptimeMs = 1'500.0;
constexpr SimTime kLinkMeanDowntimeMs = 250.0;
constexpr SimTime kNodeMeanUptimeMs = 4'000.0;
constexpr SimTime kNodeMeanDowntimeMs = 300.0;
// The link-state oracle is off: failure detection is the keepalive
// machinery's job. 4 misses: with ~2% frame corruption a 3-miss hold
// timer false-positives a healthy neighbor once in a few hundred seconds.
constexpr KeepaliveConfig kKeepalive{.interval_ms = 30.0,
                                     .miss_threshold = 4};
// Periodic full-state refresh per node; bounds the staleness left by a
// lost/corrupted triggered update.
constexpr double kPeriodicRefreshMs = 300.0;
// Byzantine ADs misbehave from this time on; a defended run quarantines
// each one this long after its onset.
constexpr SimTime kByzantineOnsetMs = 1'000.0;
constexpr SimTime kDetectionDelayMs = 400.0;

// --- run_scale_chaos: storm shapes -------------------------------------
constexpr SimTime kStormOnsetDelayMs = 200.0;  // quiet gap after convergence
constexpr SimTime kStormTailMs = 4'000.0;      // min quiet tail after the storm
// Flap storm: this many transit-transit links each run a seeded flap
// process (random phase) with this period and duty.
constexpr std::size_t kFlapLinks = 8;
constexpr SimTime kFlapPeriodMs = 200.0;
constexpr double kFlapDuty = 0.5;
// Withdrawal storm: this many beacon access links drop for
// kWithdrawDownMs, in kWithdrawWaves waves kWithdrawGapMs apart.
constexpr std::size_t kWithdrawBeacons = 8;
constexpr SimTime kWithdrawDownMs = 400.0;
constexpr std::uint32_t kWithdrawWaves = 2;
constexpr SimTime kWithdrawGapMs = 400.0;
// Partition / core outage: time the uplink(s) stay down before healing.
constexpr SimTime kOutageMs = 600.0;
// Restart storm: crashes kRestartStaggerMs apart within a wave; the next
// wave starts kRestartGapMs after the previous wave's first restart.
constexpr SimTime kRestartGapMs = 500.0;
constexpr SimTime kRestartStaggerMs = 40.0;

}  // namespace

ChaosResult run_chaos(const std::string& arch, const ChaosParams& params) {
  Figure1 fig = build_figure1();
  Topology& topo = fig.topo;
  const PolicySet policies = params.policy_mode == PolicyMode::kProviderCustomer
                                 ? make_provider_customer_policies(topo)
                                 : make_open_policies(topo);

  Engine engine;
  Network net(engine, topo);

  // --- Byzantine schedule (independent seeded stream, so the fault /
  // churn schedules of non-Byzantine runs with the same seed are
  // untouched) ---------------------------------------------------------
  const bool defended =
      params.byzantine.defended && params.byzantine.count > 0;
  std::vector<std::uint64_t> lsa_keys;
  std::vector<ByzantineSpec> byz_schedule;
  if (params.byzantine.count > 0) {
    std::uint64_t byz_state = params.seed ^ 0xb42a47f00dULL;
    Prng byz_prng(splitmix64(byz_state));
    std::vector<AdId> candidates;
    for (const Ad& ad : topo.ads()) {
      if (topo.can_transit(ad.id)) candidates.push_back(ad.id);
    }
    byz_prng.shuffle(candidates);
    const std::size_t count =
        std::min(params.byzantine.count, candidates.size());
    static constexpr Misbehavior kTaxonomy[] = {
        Misbehavior::kRouteLeak, Misbehavior::kFalseOrigin,
        Misbehavior::kBlackHole, Misbehavior::kTamper};
    std::vector<bool> is_byz(topo.ad_count(), false);
    for (std::size_t i = 0; i < count; ++i) is_byz[candidates[i].v] = true;
    // Hijack victims: honest stub/multi-homed ADs (the paper's "edge"
    // ADs -- the classic victims of a false-origin announcement).
    std::vector<AdId> honest_stubs;
    for (const Ad& ad : topo.ads()) {
      if (is_stub_role(topo, ad.id) && !is_byz[ad.id.v]) {
        honest_stubs.push_back(ad.id);
      }
    }
    for (std::size_t i = 0; i < count; ++i) {
      ByzantineSpec spec;
      spec.ad = candidates[i];
      spec.kind =
          params.byzantine.kinds.empty()
              ? kTaxonomy[i % 4]
              : params.byzantine.kinds[i % params.byzantine.kinds.size()];
      spec.start_ms = kByzantineOnsetMs;
      if (spec.kind == Misbehavior::kFalseOrigin && !honest_stubs.empty()) {
        spec.victim = byz_prng.pick(honest_stubs);
      }
      byz_schedule.push_back(spec);
    }
  }
  if (defended) lsa_keys = make_lsa_keys(params.seed, topo.ad_count());

  // --- per-design-point node factory (also used for cold restarts) ----
  OrderResult order;
  if (arch == "ecma") {
    order = compute_partial_order(topo, {});
    IDR_CHECK_MSG(order.ok, "structural ordering conflict on Figure 1");
  }
  Network::NodeFactory factory = make_design_factory(
      arch, topo, policies, &order,
      adversarial_design_config(kPeriodicRefreshMs, defended, policies,
                                lsa_keys));

  net.set_node_factory(factory);
  for (const Ad& ad : topo.ads()) net.attach(ad.id, factory(ad.id));
  net.set_link_notifications(false);
  std::uint64_t seed_state = params.seed;
  net.set_faults(params.faults, splitmix64(seed_state));
  net.set_keepalive(kKeepalive);
  for (const ByzantineSpec& spec : byz_schedule) {
    net.set_misbehavior(spec);
    if (defended) {
      // Containment: the defenses' rejection counters make misbehavior
      // visible; kDetectionDelayMs later the misbehaving AD is
      // administratively quarantined (modeled operator response).
      engine.at(spec.start_ms + kDetectionDelayMs,
                [&net, ad = spec.ad] { net.quarantine(ad); });
    }
  }
  net.start_all();

  // --- probe + ground truth -------------------------------------------
  InvariantMonitor::ProbeFn probe =
      make_pair_probe(make_design_probe(arch, net, topo));
  InvariantMonitor::ReachableFn reachable =
      make_design_reachable(arch, net, topo, policies, &order);

  InvariantMonitor monitor(net,
                           {.cadence_ms = 100.0,
                            .reconverge_window_ms = 1'500.0,
                            .sample_pairs = 48},
                           probe);
  monitor.set_reachable_fn(reachable);
  const std::size_t link_cls = monitor.register_fault_class("link");
  const std::size_t node_cls = monitor.register_fault_class("node");
  // Link and node faults share the monitor's one reconvergence window.
  net.set_churn_observer(
      [&monitor, link_cls, node_cls](Network::ChurnKind kind) {
        monitor.note_fault(
            kind == Network::ChurnKind::kNode ? node_cls : link_cls, -1.0);
      });
  monitor.start(params.horizon_ms);

  // --- policy-compliance auditor (Byzantine runs only) ----------------
  std::unique_ptr<PolicyComplianceAuditor> auditor;
  if (!byz_schedule.empty()) {
    // Pollution is measured against what SHOULD be reachable: the
    // topology with every AD behaving (droppers included), minus
    // anything containment already quarantined.
    auditor = std::make_unique<PolicyComplianceAuditor>(
        net,
        AuditConfig{.onset_ms = kByzantineOnsetMs,
                    .sample_pairs = params.audit_sample_pairs},
        probe,
        make_design_reachable(arch, net, topo, policies, &order,
                              /*quarantine_only=*/true),
        make_design_compliance(arch, topo, policies, &order));
    auditor->start(params.horizon_ms);
  }

  // --- seeded churn schedule ------------------------------------------
  FailureInjector injector(net);
  const SimTime churn_end = params.horizon_ms * params.churn_fraction;
  Prng link_prng(splitmix64(seed_state));
  Prng node_prng(splitmix64(seed_state));
  injector.random_failures(link_prng, kLinkMeanUptimeMs, kLinkMeanDowntimeMs,
                           churn_end);
  injector.random_crashes(node_prng, kNodeMeanUptimeMs, kNodeMeanDowntimeMs,
                          churn_end);

  // Keepalives reschedule forever, so drive to the horizon rather than
  // draining the queue.
  engine.run_until(params.horizon_ms);

  ChaosResult result;
  result.arch = arch;
  result.invariants = monitor.stats();
  result.totals = net.total();
  result.link_failures = injector.failures_injected();
  result.node_crashes = injector.crashes_injected();
  result.counter_fingerprint = counter_fingerprint(net, topo);
  result.byzantine = byz_schedule;
  result.defended = defended;
  if (auditor) result.audit = auditor->stats();
  result.defense_rejections = result.totals.defense_rejections;
  return result;
}

// --- Paper-scale failure & recovery ----------------------------------

const char* to_string(StormFamily family) {
  switch (family) {
    case StormFamily::kFlapStorm: return "flap-storm";
    case StormFamily::kWithdrawStorm: return "withdraw-storm";
    case StormFamily::kPartition: return "partition";
    case StormFamily::kCoreOutage: return "core-outage";
    case StormFamily::kRestartStorm: return "restart-storm";
  }
  return "?";
}

const std::vector<StormFamily>& storm_families() {
  static const std::vector<StormFamily> kAll = {
      StormFamily::kFlapStorm, StormFamily::kWithdrawStorm,
      StormFamily::kPartition, StormFamily::kCoreOutage,
      StormFamily::kRestartStorm};
  return kAll;
}

ScaleChaosResult run_scale_chaos(const std::string& arch,
                                 const ScaleChaosParams& params) {
  ScaleProfile profile = make_scale_profile(params.target_ads, params.seed);
  Topology& topo = profile.topo;

  Engine engine(SchedulerKind::kCalendar);
  Network net(engine, topo);
  // The storm's recovery knobs on top of the scale preset.
  DesignConfig config = scale_design_config(profile);
  config.ecma.damping = params.damping;
  config.idrp.damping = params.damping;
  config.lshh.link_holddown_ms = params.ls_holddown_ms;
  config.orwg.link_holddown_ms = params.ls_holddown_ms;
  Network::NodeFactory factory = make_design_factory(
      arch, topo, profile.policies, &profile.order, config);
  net.set_node_factory(factory);
  for (const Ad& ad : topo.ads()) net.attach(ad.id, factory(ad.id));
  // Storms are pure link events and failure detection is the oracle's
  // job here: per-link keepalive probing at 1e4+ ADs would bury the
  // storm under liveness traffic (run_chaos soaks the keepalive path
  // at Figure 1 scale).
  net.set_link_notifications(true);
  net.set_graceful_restart(params.gr);
  if (params.storm == StormFamily::kRestartStorm) {
    // Node outages are real crashes here, observed through the crash
    // oracle (the GR restart-signaling model: down = enter grace, up =
    // recovery signal triggering the resync).
    net.set_crash_notifications(true);
  }
  net.start_all();

  ScaleChaosResult result;
  result.arch = arch;
  result.storm = params.storm;
  result.ads = static_cast<std::uint32_t>(topo.ad_count());
  result.transit_ads = static_cast<std::uint32_t>(profile.transits.size());
  result.beacons = static_cast<std::uint32_t>(profile.beacons.size());

  // Cold convergence first: the storm hits a settled network.
  engine.run();
  IDR_CHECK_MSG(engine.empty(), "scale chaos: cold start did not converge");
  result.converge_ms = engine.now();
  if (params.storm == StormFamily::kRestartStorm &&
      params.overload.enabled()) {
    // Arm the bounded ingress queues on the settled network: the storm,
    // not cold bring-up, is the overload scenario under test.
    net.set_overload(params.overload);
  }

  // --- monitor: beacon destinations, stratified source slice ----------
  InvariantConfig inv{.cadence_ms = 250.0,
                      .reconverge_window_ms = 1'500.0,
                      .dst_pool = profile.beacons};
  const std::size_t step = std::max<std::size_t>(1, topo.ad_count() / 256);
  for (std::size_t v = 0; v < topo.ad_count(); v += step) {
    inv.src_pool.push_back(AdId{static_cast<std::uint32_t>(v)});
  }
  InvariantMonitor monitor(
      net, inv, make_pair_probe(make_design_probe(arch, net, topo)));
  // Pure hierarchy: every live path is up*down*-shaped, so BFS ground
  // truth (the monitor's default) is exact for all four design points.
  const std::size_t storm_cls =
      monitor.register_fault_class(to_string(params.storm));

  // Storm-class reconvergence window, measured from the LAST transition
  // of the storm (every transition extends the deadline).
  SimTime window = 3'000.0;  // partition, core outage, restart storm
  if (params.storm == StormFamily::kFlapStorm ||
      params.storm == StormFamily::kWithdrawStorm) {
    window = 2'000.0;
  }
  if (params.storm == StormFamily::kRestartStorm && params.gr.enabled) {
    // The grace window is designed-in retention: a flush at its expiry
    // legitimately re-opens convergence that long after the crash.
    window += params.gr.grace_ms;
  }
  if (params.damping.enabled) {
    // A damped route is EXPECTED to stay dark past the last transition:
    // its unreachability window is bounded by the worst-case release
    // time, so fold that bound into the grace window rather than calling
    // the mechanism's designed behavior a persistent violation.
    window += max_suppression_ms(params.damping) + 200.0;
  }
  window += params.ls_holddown_ms;  // held-down originations lag the fault

  net.set_churn_observer([&monitor, storm_cls, window](Network::ChurnKind) {
    monitor.note_fault(storm_cls, window);
  });

  // --- storm schedule --------------------------------------------------
  FailureInjector injector(net);
  const SimTime t0 = result.converge_ms + kStormOnsetDelayMs;
  result.storm_begin_ms = t0;

  // Churn snapshot at storm begin: scheduled BEFORE any injector event
  // at the same timestamp (same-time events run in insertion order).
  std::uint64_t msgs_at_begin = 0;
  engine.at(t0,
            [&net, &msgs_at_begin] { msgs_at_begin = net.total().msgs_sent; });

  const SimTime last = schedule_storm(params, profile, injector, t0);
  result.storm_end_ms = last;

  // Storm-window churn is measured to a fixed settle probe shortly after
  // the last transition, so the damped/undamped comparison integrates
  // the same interval.
  const SimTime settle_at = last + 200.0;
  std::uint64_t msgs_at_settle = 0;
  engine.at(settle_at, [&net, &msgs_at_settle] {
    msgs_at_settle = net.total().msgs_sent;
  });

  const SimTime horizon = last + std::max(kStormTailMs, window + 1'000.0);
  result.horizon_ms = horizon;
  monitor.start(horizon);

  // No keepalives, no periodic refresh: the queue drains once every
  // storm reaction, release timer and monitor sweep has fired.
  engine.run();
  IDR_CHECK_MSG(engine.empty(), "scale chaos: run hit the event cap");

  result.invariants = monitor.stats();
  result.persistent_findings = monitor.persistent_findings();
  result.totals = net.total();
  result.counter_fingerprint = counter_fingerprint(net, topo);
  result.storm_transitions =
      injector.failures_injected() + injector.crashes_injected();
  result.node_crashes = injector.crashes_injected();
  result.overload = net.overload_stats();
  result.gr_recoveries = net.gr_recoveries();
  result.gr_flushes = net.gr_flushes();
  result.updates_during_storm = msgs_at_settle - msgs_at_begin;
  result.updates_after_storm = result.totals.msgs_sent - msgs_at_settle;
  result.updates_per_sec_storm =
      settle_at > t0 ? result.updates_during_storm / ((settle_at - t0) / 1e3)
                     : 0.0;

  const auto& cls_stats = result.invariants.fault_classes[storm_cls];
  if (monitor.awaiting_clean_sweep()) {
    result.reconverge_ms = -1.0;  // never reconverged before the horizon
  } else if (cls_stats.reconverge_ms.count() > 0) {
    result.reconverge_ms = cls_stats.reconverge_ms.max();
  } else {
    result.reconverge_ms = 0.0;  // no sweep ever saw the storm dirty
  }

  const SimTime end_now = engine.now();
  for (const Ad& ad : topo.ads()) {
    Node* node = net.node(ad.id);
    if (auto* dv = dynamic_cast<PolicyDvNode*>(node)) {
      FlapDamper& damper = dv->damper();
      const DampingStats& ds = damper.stats();
      result.flaps_recorded += ds.flaps;
      result.routes_suppressed += ds.suppress_events;
      result.routes_reused += ds.reuse_events;
      result.suppressed_ms_total += ds.suppressed_ms;
      result.suppressed_at_end += damper.suppressed_count(end_now);
      result.gr_stale_flushed += dv->gr_stale_flushed();
      result.gr_resyncs += dv->gr_resyncs();
    } else if (auto* ls = dynamic_cast<PolicyLsNode*>(node)) {
      result.ls_originations_suppressed += ls->originations_suppressed();
      result.gr_retained += ls->gr_retained();
      result.gr_resyncs += ls->gr_resyncs();
      if (auto* orwg = dynamic_cast<OrwgNode*>(ls)) {
        result.gr_memoized += orwg->gr_memoized();
      }
    }
  }
  return result;
}

SimTime schedule_storm(const ScaleChaosParams& params,
                       const ScaleProfile& profile, FailureInjector& injector,
                       SimTime t0) {
  const Topology& topo = profile.topo;
  SimTime last = t0;
  std::uint64_t storm_state = params.seed ^ 0x73746f726dULL;  // "storm"
  Prng prng(splitmix64(storm_state));

  switch (params.storm) {
    case StormFamily::kFlapStorm: {
      std::vector<LinkId> core_links;
      for (const Link& l : topo.links()) {
        if (topo.can_transit(l.a) && topo.can_transit(l.b)) {
          core_links.push_back(l.id);
        }
      }
      prng.shuffle(core_links);
      const std::size_t n = std::min(kFlapLinks, core_links.size());
      IDR_CHECK_MSG(n > 0, "scale chaos: no transit-transit links to flap");
      const SimTime down_ms = kFlapPeriodMs * kFlapDuty;
      for (std::size_t i = 0; i < n; ++i) {
        // Random phase so the per-link processes interleave instead of
        // beating in lockstep.
        const SimTime phase =
            kFlapPeriodMs * (static_cast<double>(prng.below(1024)) / 1024.0);
        injector.flap_link(core_links[i], t0 + phase, kFlapPeriodMs,
                           kFlapDuty, params.flap_cycles);
        last = std::max(last, t0 + phase +
                                  (params.flap_cycles - 1) * kFlapPeriodMs +
                                  down_ms);
      }
      break;
    }
    case StormFamily::kWithdrawStorm: {
      std::vector<AdId> pool = profile.beacons;
      prng.shuffle(pool);
      const std::size_t n = std::min(kWithdrawBeacons, pool.size());
      IDR_CHECK_MSG(n > 0, "scale chaos: no beacons to withdraw");
      for (std::uint32_t w = 0; w < kWithdrawWaves; ++w) {
        const SimTime wave_at = t0 + w * (kWithdrawDownMs + kWithdrawGapMs);
        for (std::size_t i = 0; i < n; ++i) {
          // Single-homed stubs: the one access link is the beacon's
          // entire attachment; down = the destination goes dark.
          const auto adjs = topo.neighbors(pool[i]);
          IDR_CHECK_MSG(!adjs.empty(), "beacon with no access link");
          injector.fail_link_at(adjs.front().link, wave_at, kWithdrawDownMs);
        }
        last = std::max(last, wave_at + kWithdrawDownMs);
      }
      break;
    }
    case StormFamily::kPartition: {
      // Cut the first regional's entire transit attachment (uplink plus
      // any core laterals): its campus subtree is off the backbone until
      // the heal.
      AdId regional = kNoAd;
      for (const Ad& ad : topo.ads()) {
        if (ad.cls == AdClass::kRegional) {
          regional = ad.id;
          break;
        }
      }
      IDR_CHECK_MSG(regional.valid(), "scale chaos: no regional AD");
      std::size_t cut = 0;
      for (const Adjacency& adj : topo.neighbors(regional)) {
        if (topo.can_transit(adj.neighbor)) {
          injector.fail_link_at(adj.link, t0, kOutageMs);
          ++cut;
        }
      }
      IDR_CHECK_MSG(cut > 0, "scale chaos: regional had no uplink");
      last = t0 + kOutageMs;
      break;
    }
    case StormFamily::kCoreOutage: {
      AdId backbone = kNoAd;
      for (const Ad& ad : topo.ads()) {
        if (ad.cls == AdClass::kBackbone) {
          backbone = ad.id;
          break;
        }
      }
      IDR_CHECK_MSG(backbone.valid(), "scale chaos: no backbone AD");
      injector.fail_node_links_at(backbone, t0, kOutageMs);
      last = t0 + kOutageMs;
      break;
    }
    case StormFamily::kRestartStorm: {
      std::vector<AdId> pool = profile.transits;
      prng.shuffle(pool);
      const std::size_t n = std::min(kRestartStormNodes, pool.size());
      IDR_CHECK_MSG(n > 0, "scale chaos: no transit ADs to restart");
      for (std::uint32_t w = 0; w < kRestartStormWaves; ++w) {
        const SimTime wave_at =
            t0 + w * (params.restart_down_ms + kRestartGapMs);
        for (std::size_t i = 0; i < n; ++i) {
          // Staggered, not synchronized: each AD's crash lands a little
          // after the previous one's, the overload queues see a rolling
          // wave rather than one impulse.
          const SimTime at = wave_at + i * kRestartStaggerMs;
          injector.crash_node_at(pool[i], at, params.restart_down_ms);
          last = std::max(last, at + params.restart_down_ms);
        }
      }
      break;
    }
  }
  return last;
}

}  // namespace idr
