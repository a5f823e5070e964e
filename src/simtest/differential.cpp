#include "simtest/differential.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "core/design_harness.hpp"
#include "core/synthesis.hpp"
#include "proto/ecma/partial_order.hpp"
#include "sim/engine.hpp"
#include "sim/failure.hpp"
#include "sim/network.hpp"
#include "util/prng.hpp"

namespace idr {

const char* to_string(DiffViolation v) {
  switch (v) {
    case DiffViolation::kIllegalPath: return "illegal-path";
    case DiffViolation::kLoop: return "loop";
    case DiffViolation::kBlackHole: return "black-hole";
    case DiffViolation::kStaleRoute: return "stale-route";
    case DiffViolation::kNondeterminism: return "nondeterminism";
  }
  return "?";
}

std::vector<std::string> DiffResult::signatures() const {
  std::vector<std::string> out;
  for (const ArchDiffResult& a : archs) {
    for (const DiffFinding& f : a.violations) out.push_back(f.signature());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

namespace {

// Ground-truth search budget per flow (tri-state: exhaustion reports the
// flow as unknown rather than guessing).
constexpr std::uint64_t kOracleBudget = 2'000'000;
// Invariant-monitor sweep cadence during the run.
constexpr SimTime kMonitorCadenceMs = 100.0;

// Endpoint the conformance claims do not cover: dead, quarantined or
// misbehaving ADs get no availability guarantees.
bool skip_endpoint(const Network& net, AdId ad) {
  return !net.alive(ad) || net.is_quarantined(ad) || net.misbehaving(ad);
}

bool path_is_fresh(const Network& net, const Topology& topo,
                   const std::vector<AdId>& path) {
  for (const AdId ad : path) {
    if (!net.alive(ad)) return false;
  }
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const auto link = topo.find_link(path[i], path[i + 1]);
    if (!link || !topo.link(*link).up) return false;
  }
  return true;
}

// Transit-side legality only: loop-free, live links, every intermediate
// AD willing per its Policy Terms -- but the *source's* route-selection
// criteria (avoid list, hop budget) are NOT checked. A path that is
// transit-legal yet source-illegal is precisely the divergence the paper
// sanctions for hop-by-hop designs: "policies of the source ... cannot be
// supported by hop-by-hop routing" (§5.2).
bool transit_legal(const Topology& topo, const PolicySet& policies,
                   const FlowSpec& flow, const std::vector<AdId>& path) {
  if (path.size() < 2 || path.front() != flow.src || path.back() != flow.dst) {
    return false;
  }
  std::vector<bool> seen(topo.ad_count(), false);
  for (const AdId ad : path) {
    if (seen[ad.v]) return false;
    seen[ad.v] = true;
  }
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const auto link = topo.find_link(path[i], path[i + 1]);
    if (!link || !topo.link(*link).up) return false;
  }
  for (std::size_t i = 1; i + 1 < path.size(); ++i) {
    if (!policies.ad_permits_transit(topo, path[i], flow, path[i - 1],
                                     path[i + 1])) {
      return false;
    }
  }
  return true;
}

// Tri-state ground truth for one flow over the network's *current* state:
// honors the source's route-selection criteria and routes around dead /
// quarantined / traffic-dropping ADs, exactly what a correct protocol
// could still have converged to.
RouteExistence flow_truth(const Network& net, const Topology& topo,
                          const PolicySet& policies, const FlowSpec& flow) {
  const SourcePolicy& sp = policies.source_policy(flow.src);
  SynthesisOptions options;
  options.max_hops = sp.max_hops;
  options.avoid = sp.avoid;
  options.first_found = true;
  options.expansion_budget = kOracleBudget;
  for (const Ad& ad : topo.ads()) {
    if (ad.id == flow.src || ad.id == flow.dst) continue;
    if (!net.alive(ad.id) || net.is_quarantined(ad.id) ||
        net.drops_traffic(ad.id, flow.dst)) {
      options.avoid.push_back(ad.id);
    }
  }
  const GroundTruthView view(topo, policies);
  const SynthesisResult r = synthesize_route(view, flow, options);
  if (r.found()) return RouteExistence::kExists;
  return r.outcome == SynthesisOutcome::kBudget ? RouteExistence::kUnknown
                                                : RouteExistence::kNone;
}

struct ArchRunOutput {
  ArchDiffResult result;
  std::vector<Probe> probes;  // per flow, for the determinism cross-check
  bool order_conflict = false;
};

ArchRunOutput run_one(const std::string& arch, const SimCase& c,
                      const DiffOptions& options) {
  ArchRunOutput out;
  out.result.arch = arch;
  out.result.flows_total = c.flows.size();

  // The Network mutates link state; every run gets a private copy so the
  // SimCase itself stays pristine (and re-runnable).
  Topology topo = c.topo;
  const PolicySet& policies = c.policies;

  OrderResult order;
  if (arch == "ecma") {
    order = compute_partial_order(topo, {});
    if (!order.ok) {
      // Structurally unorderable world: ECMA cannot be configured at all.
      // Treated as "no claims checked" rather than a protocol violation.
      out.order_conflict = true;
      out.result.flows_skipped = c.flows.size();
      return out;
    }
  }

  Engine engine(options.scheduler);
  EngineBackend backend;
  backend.shards = options.shards;
  backend.threads = options.threads;
  backend.lookahead_ms = options.lookahead_ms;
  apply_engine_backend(engine, topo, backend);
  Network net(engine, topo);

  std::vector<ByzantineSpec> byz;
  for (const SimEvent& e : c.events) {
    if (e.kind != SimEvent::Kind::kByzantine) continue;
    ByzantineSpec spec;
    spec.ad = e.ad;
    spec.kind = e.misbehavior;
    spec.victim = e.victim;
    spec.start_ms = e.at_ms;
    byz.push_back(spec);
  }
  const bool defended = !byz.empty();
  std::vector<std::uint64_t> lsa_keys;
  if (defended) lsa_keys = make_lsa_keys(c.seed, topo.ad_count());

  Network::NodeFactory factory = make_design_factory(
      arch, topo, policies, &order,
      adversarial_design_config(c.periodic_refresh_ms, defended, policies,
                                lsa_keys));
  net.set_node_factory(factory);
  for (const Ad& ad : topo.ads()) net.attach(ad.id, factory(ad.id));

  // Failures are detected the deployable way: no oracle link
  // notifications, only keepalive timeouts plus periodic refresh.
  net.set_link_notifications(false);
  FaultConfig faults;
  faults.duplicate_rate = c.duplicate_rate;
  faults.reorder_rate = c.reorder_rate;
  faults.reorder_extra_ms = c.reorder_extra_ms;
  std::uint64_t seed_state = c.seed;
  net.set_faults(faults, splitmix64(seed_state));
  if (c.keepalive_interval_ms > 0.0) {
    KeepaliveConfig keepalive;
    keepalive.interval_ms = c.keepalive_interval_ms;
    keepalive.miss_threshold = c.keepalive_misses;
    net.set_keepalive(keepalive);
  }
  net.start_all();

  FlowProbeFn flow_probe = make_design_probe(arch, net, topo);
  if (options.inject_probe_bug && arch == "ls-hbh") {
    // Known-bad defect for shrinker acceptance: consult the default-class
    // FIB regardless of the flow's actual traffic class.
    flow_probe = [inner = std::move(flow_probe)](const FlowSpec& flow) {
      FlowSpec blunted = flow;
      blunted.qos = Qos::kDefault;
      blunted.uci = UserClass::kResearch;
      blunted.hour = 12;
      return inner(blunted);
    };
  }
  InvariantMonitor::ProbeFn pair_probe = make_pair_probe(flow_probe);

  InvariantMonitor monitor(net, {.cadence_ms = kMonitorCadenceMs},
                           pair_probe);
  monitor.set_reachable_fn(
      make_design_reachable(arch, net, topo, policies, &order));
  net.set_churn_observer(
      [&monitor](Network::ChurnKind) { monitor.note_fault(); });
  monitor.start(c.horizon_ms);

  // --- scripted schedule ------------------------------------------------
  FailureInjector injector(net);
  for (const SimEvent& e : c.events) {
    switch (e.kind) {
      case SimEvent::Kind::kLinkDown: {
        const auto link = topo.find_link(e.a, e.b);
        if (link) {
          injector.fail_link_at(
              *link, e.at_ms,
              e.repair_ms > e.at_ms ? e.repair_ms - e.at_ms : 0.0);
        }
        break;
      }
      case SimEvent::Kind::kCrash:
        injector.crash_node_at(
            e.ad, e.at_ms,
            e.repair_ms > e.at_ms ? e.repair_ms - e.at_ms : 0.0);
        break;
      case SimEvent::Kind::kByzantine:
        break;  // configured below
      case SimEvent::Kind::kLinkFlap: {
        const auto link = topo.find_link(e.a, e.b);
        if (link) {
          injector.flap_link(*link, e.at_ms, e.period_ms, /*duty=*/0.5,
                             e.cycles);
        }
        break;
      }
      case SimEvent::Kind::kRestartStorm:
        injector.restart_storm(e.ad, e.at_ms, e.period_ms, /*duty=*/0.5,
                               e.cycles);
        break;
    }
  }
  for (const ByzantineSpec& spec : byz) {
    net.set_misbehavior(spec);
    // Onset and containment both perturb the world: give the monitor its
    // reconvergence grace window around each.
    engine.at(spec.start_ms, [&monitor] { monitor.note_fault(); });
    engine.at(spec.start_ms + c.detection_delay_ms,
              [&net, ad = spec.ad, &monitor] {
                net.quarantine(ad);
                monitor.note_fault();
              });
  }

  engine.run_until(c.horizon_ms);

  // --- classification at the horizon ------------------------------------
  PathComplianceFn ecma_compliant;
  if (arch == "ecma") {
    ecma_compliant = make_design_compliance(arch, topo, policies, &order);
  }
  auto add_violation = [&](DiffViolation kind, const FlowSpec& flow,
                           std::vector<AdId> path, std::string detail) {
    DiffFinding f;
    f.arch = arch;
    f.kind = kind;
    f.flow = flow;
    f.path = std::move(path);
    f.detail = std::move(detail);
    out.result.violations.push_back(std::move(f));
  };

  for (const FlowSpec& flow : c.flows) {
    if (skip_endpoint(net, flow.src) || skip_endpoint(net, flow.dst)) {
      ++out.result.flows_skipped;
      out.probes.emplace_back();  // placeholder keeps indices aligned
      continue;
    }
    const Probe probe = flow_probe(flow);
    out.probes.push_back(probe);
    switch (probe.outcome) {
      case ProbeOutcome::kLooped:
        add_violation(DiffViolation::kLoop, flow, probe.path,
                      "forwarding loop at the horizon");
        break;
      case ProbeOutcome::kDelivered: {
        if (!path_is_fresh(net, topo, probe.path)) {
          add_violation(DiffViolation::kStaleRoute, flow, probe.path,
                        "delivered across dead links or crashed ADs");
          break;
        }
        if (arch == "ecma") {
          if (!ecma_compliant(flow.src, flow.dst, probe.path)) {
            add_violation(DiffViolation::kIllegalPath, flow, probe.path,
                          "violates the up*down* partial-order shape");
          } else if (policies.path_is_legal(topo, flow, probe.path)) {
            ++out.result.delivered_legal;
          } else {
            // Policy-blind delivery: ECMA's topology-embedded policy
            // cannot express Policy Terms (the paper's expressiveness
            // critique) -- sanctioned divergence, not a bug.
            ++out.result.expected_divergences;
          }
        } else if (policies.path_is_legal(topo, flow, probe.path)) {
          ++out.result.delivered_legal;
        } else if ((arch == "idrp" || arch == "ls-hbh") &&
                   transit_legal(topo, policies, flow, probe.path)) {
          // Source criteria violated but transit policy honored: the
          // hop-by-hop designs have no channel for remote source
          // preferences (§5.2) -- sanctioned divergence.
          ++out.result.expected_divergences;
        } else {
          add_violation(DiffViolation::kIllegalPath, flow, probe.path,
                        "delivered path violates ground-truth policy");
        }
        break;
      }
      case ProbeOutcome::kBlackHole: {
        if (arch == "ecma") {
          if (ecma_reachable(net, topo, order.order, flow.src, flow.dst)) {
            add_violation(DiffViolation::kBlackHole, flow, probe.path,
                          "ECMA-reachable destination not forwarded to");
          } else {
            // Not ECMA-expressible; does a Policy-Term route exist that
            // ECMA cannot represent (expressiveness gap), or is the pair
            // genuinely partitioned?
            switch (flow_truth(net, topo, policies, flow)) {
              case RouteExistence::kExists:
                ++out.result.expected_divergences;
                break;
              case RouteExistence::kNone:
                ++out.result.agreed_no_route;
                break;
              case RouteExistence::kUnknown:
                ++out.result.unknown;
                break;
            }
          }
          break;
        }
        switch (flow_truth(net, topo, policies, flow)) {
          case RouteExistence::kNone:
            ++out.result.agreed_no_route;
            break;
          case RouteExistence::kUnknown:
            ++out.result.unknown;
            break;
          case RouteExistence::kExists:
            if (arch == "orwg") {
              // The paper's completeness claim: the source-routing
              // architecture finds a valid route whenever one exists.
              add_violation(DiffViolation::kBlackHole, flow, probe.path,
                            "legal route exists but ORWG found none");
            } else {
              // Hop-by-hop route unavailability -- the sanctioned miss.
              ++out.result.expected_divergences;
            }
            break;
        }
        break;
      }
    }
  }

  // --- persistent mid-run findings from the invariant monitor -----------
  out.result.invariants = monitor.stats();
  for (const InvariantFinding& f : monitor.persistent_findings()) {
    FlowSpec flow;  // monitor probes run at the default traffic class
    flow.src = f.src;
    flow.dst = f.dst;
    switch (f.kind) {
      case InvariantKind::kLoop:
        add_violation(DiffViolation::kLoop, flow, f.path,
                      "persistent loop during the run");
        break;
      case InvariantKind::kStaleRoute:
        add_violation(DiffViolation::kStaleRoute, flow, f.path,
                      "persistent stale route during the run");
        break;
      case InvariantKind::kBlackHole:
        // Availability mid-run is only a hard claim for the designs
        // held to completeness; for them, confirm against the final
        // state before calling it genuine (later churn may have
        // removed the route again).
        if (arch == "ecma") {
          if (ecma_reachable(net, topo, order.order, f.src, f.dst)) {
            add_violation(DiffViolation::kBlackHole, flow, f.path,
                          "persistent black hole during the run");
          }
        } else if (arch == "orwg") {
          if (flow_truth(net, topo, policies, flow) ==
              RouteExistence::kExists) {
            add_violation(DiffViolation::kBlackHole, flow, f.path,
                          "persistent black hole during the run");
          }
        } else {
          ++out.result.expected_divergences;  // HbH miss
        }
        break;
    }
  }

  out.result.fingerprint = counter_fingerprint(net, topo);
  out.result.events_processed = engine.events_processed();
  return out;
}

bool same_probes(const std::vector<Probe>& a, const std::vector<Probe>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].outcome != b[i].outcome || a[i].path != b[i].path) return false;
  }
  return true;
}

}  // namespace

DiffResult run_differential(const SimCase& c, const DiffOptions& options) {
  DiffResult result;
  result.name = c.name;
  result.seed = c.seed;
  const std::vector<std::string>& archs =
      options.archs.empty() ? design_point_names() : options.archs;
  for (const std::string& arch : archs) {
    ArchRunOutput first = run_one(arch, c, options);
    if (options.check_determinism && !first.order_conflict) {
      const ArchRunOutput second = run_one(arch, c, options);
      if (first.result.fingerprint != second.result.fingerprint ||
          first.result.events_processed != second.result.events_processed ||
          !same_probes(first.probes, second.probes)) {
        DiffFinding f;
        f.arch = arch;
        f.kind = DiffViolation::kNondeterminism;
        f.detail = "two runs of seed " + std::to_string(c.seed) +
                   " diverged (fingerprint " +
                   std::to_string(first.result.fingerprint) + " vs " +
                   std::to_string(second.result.fingerprint) + ")";
        first.result.violations.push_back(std::move(f));
      }
    }
    result.archs.push_back(std::move(first.result));
  }
  return result;
}

}  // namespace idr
