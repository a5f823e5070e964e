#include "sim/invariants.hpp"

#include <algorithm>
#include <queue>
#include <utility>

namespace idr {

const char* to_string(InvariantKind kind) {
  switch (kind) {
    case InvariantKind::kLoop: return "loop";
    case InvariantKind::kBlackHole: return "black-hole";
    case InvariantKind::kStaleRoute: return "stale-route";
  }
  return "?";
}

namespace {

// Seeds of the monitor's per-sweep pair sampling and of the auditor's
// fixed pair sample.
constexpr std::uint64_t kMonitorSampleSeed = 0x5eedf00dULL;
constexpr std::uint64_t kAuditSampleSeed = 0xbadc0de5ULL;
constexpr SimTime kAuditCadenceMs = 100.0;

}  // namespace

InvariantMonitor::InvariantMonitor(Network& net, InvariantConfig config,
                                   ProbeFn probe)
    : net_(net),
      config_(std::move(config)),
      probe_(std::move(probe)),
      sample_prng_(kMonitorSampleSeed) {
  stats_.fault_classes.push_back(FaultClassStats{.name = "fault"});
}

std::size_t InvariantMonitor::register_fault_class(std::string name) {
  stats_.fault_classes.push_back(FaultClassStats{.name = std::move(name)});
  return stats_.fault_classes.size() - 1;
}

void InvariantMonitor::start(SimTime until_ms) {
  until_ms_ = until_ms;
  // Cold start is itself a network-wide event: every node boots with an
  // empty RIB and the first updates are still in flight (and subject to
  // the same loss/corruption as any other frame). Grant the initial
  // convergence the same grace window a fault gets, and measure it.
  note_fault();
  schedule_next();
}

void InvariantMonitor::schedule_next() {
  const SimTime next = net_.engine().now() + config_.cadence_ms;
  if (next > until_ms_) return;
  net_.engine().at(next, [this] {
    sweep();
    schedule_next();
  });
}

void InvariantMonitor::note_fault() {
  note_fault(0, -1.0);
}

void InvariantMonitor::note_fault(std::size_t fault_class, SimTime window_ms) {
  if (fault_class >= stats_.fault_classes.size()) fault_class = 0;
  const SimTime window =
      window_ms < 0.0 ? config_.reconverge_window_ms : window_ms;
  const SimTime now = net_.engine().now();
  last_fault_at_ = now;
  // Deadline form: with a constant window this is exactly the historical
  // "now - last_fault > window" rule; per-class windows just take the max
  // deadline over overlapping faults.
  settle_deadline_ = std::max(settle_deadline_, now + window);
  current_class_ = fault_class;
  ++stats_.fault_classes[fault_class].faults;
  awaiting_clean_sweep_ = true;
}

bool InvariantMonitor::default_reachable(AdId src, AdId dst) const {
  if (!net_.alive(src) || !net_.alive(dst)) return false;
  const Topology& topo = net_.topo();
  std::vector<bool> seen(topo.ad_count(), false);
  std::queue<AdId> q;
  q.push(src);
  seen[src.v] = true;
  while (!q.empty()) {
    const AdId cur = q.front();
    q.pop();
    if (cur == dst) return true;
    for (const Adjacency& adj : topo.live_neighbors(cur)) {
      // An AD inside its graceful-restart grace window still forwards
      // (frozen FIB), so ground truth keeps routing through it.
      if (seen[adj.neighbor.v] || !net_.usable(adj.neighbor)) continue;
      seen[adj.neighbor.v] = true;
      q.push(adj.neighbor);
    }
  }
  return false;
}

bool InvariantMonitor::path_is_fresh(const std::vector<AdId>& path) const {
  // A delivered path is fresh only if every hop crosses a live link and
  // every AD on it is alive (or gracefully restarting: an in-grace AD's
  // frozen FIB is sanctioned forwarding state, not a stale lie);
  // otherwise the FIB entries that produced it are stale (pointing at
  // dead infrastructure).
  const Topology& topo = net_.topo();
  for (const AdId ad : path) {
    if (!net_.usable(ad)) return false;
  }
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const auto link = topo.find_link(path[i], path[i + 1]);
    if (!link || !topo.link(*link).up) return false;
  }
  return true;
}

bool InvariantMonitor::continuity_reachable(AdId src, AdId dst) const {
  // The GR promise as a reachability oracle: would this pair be
  // connected if every crashed AD still forwarded from its pre-crash
  // FIB? BFS over up links, ignoring transit aliveness entirely (but
  // endpoints must be alive -- nobody originates or terminates traffic
  // while down). Cold-restart runs are measured against the same oracle,
  // which is exactly how they show the continuity gap.
  if (!net_.alive(src) || !net_.alive(dst)) return false;
  const Topology& topo = net_.topo();
  std::vector<bool> seen(topo.ad_count(), false);
  std::queue<AdId> q;
  q.push(src);
  seen[src.v] = true;
  while (!q.empty()) {
    const AdId cur = q.front();
    q.pop();
    if (cur == dst) return true;
    for (const Adjacency& adj : topo.live_neighbors(cur)) {
      if (seen[adj.neighbor.v] || net_.is_quarantined(adj.neighbor)) continue;
      seen[adj.neighbor.v] = true;
      q.push(adj.neighbor);
    }
  }
  return false;
}

void InvariantMonitor::sweep() {
  const Topology& topo = net_.topo();
  const std::size_t n = topo.ad_count();
  ++stats_.sweeps;
  const SimTime now = net_.engine().now();
  const bool settled = last_fault_at_ < 0.0 || now > settle_deadline_;
  // Forwarding-continuity accounting is live whenever some AD is crashed
  // or riding out a grace window (down_count covers cold restarts, which
  // never enter grace).
  const bool node_churn = net_.down_count() > 0 || net_.in_grace_count() > 0;

  std::uint64_t violations = 0;
  std::uint64_t probes_this_sweep = 0;
  // Each persistent (src, dst, kind) counts once for the run: re-observing
  // the same broken pair on every sweep would make soak logs unbounded.
  auto persistent_once = [&](AdId src, AdId dst, InvariantKind kind,
                             const Probe& probe, std::uint64_t& counter) {
    const std::uint64_t key = (static_cast<std::uint64_t>(kind) << 56) |
                              (static_cast<std::uint64_t>(src.v) << 28) |
                              static_cast<std::uint64_t>(dst.v);
    if (persistent_seen_.insert(key).second) {
      ++counter;
      findings_.push_back(InvariantFinding{
          .kind = kind, .src = src, .dst = dst, .path = probe.path,
          .at_ms = now});
    }
  };
  auto classify = [&](AdId src, AdId dst) {
    if (!net_.alive(src) || !net_.alive(dst)) return;  // no one to ask
    // Misbehaving endpoints are the liar's own problem: availability
    // invariants are only claimed between honest ADs.
    if (net_.misbehaving(src) || net_.misbehaving(dst)) return;
    ++stats_.probes;
    ++probes_this_sweep;
    const Probe probe = probe_(src, dst);
    const bool reachable =
        reachable_ ? reachable_(src, dst) : default_reachable(src, dst);
    if (node_churn && continuity_reachable(src, dst)) {
      ++stats_.continuity_probes;
      if (probe.outcome == ProbeOutcome::kDelivered &&
          path_is_fresh(probe.path)) {
        ++stats_.continuity_ok;
      }
    }
    switch (probe.outcome) {
      case ProbeOutcome::kLooped:
        ++violations;
        if (settled) {
          persistent_once(src, dst, InvariantKind::kLoop, probe,
                          stats_.persistent_loops);
        } else {
          ++stats_.transient_loops;
        }
        break;
      case ProbeOutcome::kBlackHole:
        if (reachable) {
          ++violations;
          if (settled) {
            persistent_once(src, dst, InvariantKind::kBlackHole, probe,
                            stats_.persistent_black_holes);
          } else {
            ++stats_.transient_black_holes;
          }
        }
        break;
      case ProbeOutcome::kDelivered:
        if (!path_is_fresh(probe.path)) {
          ++violations;
          if (settled) {
            persistent_once(src, dst, InvariantKind::kStaleRoute, probe,
                            stats_.persistent_stale_routes);
          } else {
            ++stats_.transient_stale_routes;
          }
        }
        break;
    }
  };

  if (config_.sample_pairs == 0 || n * (n - 1) <= config_.sample_pairs) {
    for (std::uint32_t s = 0; s < n; ++s) {
      for (std::uint32_t d = 0; d < n; ++d) {
        if (s != d) classify(AdId{s}, AdId{d});
      }
    }
  } else if (!config_.dst_pool.empty()) {
    // Scale sampling: destinations from the beacon set, sources from the
    // caller's slice of the stub population (uniform when it is empty).
    for (std::size_t i = 0; i < config_.sample_pairs; ++i) {
      const AdId s =
          config_.src_pool.empty()
              ? AdId{static_cast<std::uint32_t>(sample_prng_.below(n))}
              : config_.src_pool[sample_prng_.below(config_.src_pool.size())];
      const AdId d =
          config_.dst_pool[sample_prng_.below(config_.dst_pool.size())];
      if (d != s) classify(s, d);
    }
  } else {
    for (std::size_t i = 0; i < config_.sample_pairs; ++i) {
      const auto s = static_cast<std::uint32_t>(sample_prng_.below(n));
      auto d = static_cast<std::uint32_t>(sample_prng_.below(n - 1));
      if (d >= s) ++d;
      classify(AdId{s}, AdId{d});
    }
  }

  if (awaiting_clean_sweep_ && probes_this_sweep > 0 && violations > 0) {
    // Blast radius, attributed to the class of the most recent fault.
    const double frac = static_cast<double>(violations) /
                        static_cast<double>(probes_this_sweep);
    FaultClassStats& cls = stats_.fault_classes[current_class_];
    if (frac > cls.peak_blast) cls.peak_blast = frac;
  }
  if (violations == 0 && awaiting_clean_sweep_) {
    stats_.reconverge_ms.add(now - last_fault_at_);
    stats_.fault_classes[current_class_].reconverge_ms.add(now -
                                                           last_fault_at_);
    awaiting_clean_sweep_ = false;
  }
}

// --- PolicyComplianceAuditor -----------------------------------------

PolicyComplianceAuditor::PolicyComplianceAuditor(Network& net,
                                                 AuditConfig config,
                                                 ProbeFn probe,
                                                 ReachableFn honest_reachable,
                                                 ComplianceFn compliant)
    : net_(net),
      config_(config),
      probe_(std::move(probe)),
      honest_reachable_(std::move(honest_reachable)),
      compliant_(std::move(compliant)) {}

void PolicyComplianceAuditor::choose_pairs() {
  // Fix the honest pair sample once, up front: blast radius across sweeps
  // is only comparable if every sweep asks the same question. ADs with a
  // configured misbehavior (even one not yet active) are excluded --
  // compliance is only claimed between honest parties.
  const Topology& topo = net_.topo();
  std::vector<AdId> honest;
  for (const Ad& ad : topo.ads()) {
    if (net_.misbehavior_kind(ad.id) == Misbehavior::kNone) {
      honest.push_back(ad.id);
    }
  }
  const std::size_t h = honest.size();
  if (h < 2) return;
  const std::size_t all = h * (h - 1);
  if (config_.sample_pairs == 0 || all <= config_.sample_pairs) {
    for (const AdId s : honest) {
      for (const AdId d : honest) {
        if (s != d) pairs_.emplace_back(s, d);
      }
    }
    return;
  }
  Prng prng(kAuditSampleSeed);
  std::unordered_set<std::uint64_t> chosen;
  while (pairs_.size() < config_.sample_pairs) {
    const AdId s = honest[prng.below(h)];
    AdId d = honest[prng.below(h)];
    if (s == d) continue;
    const std::uint64_t key =
        (static_cast<std::uint64_t>(s.v) << 32) | d.v;
    if (!chosen.insert(key).second) continue;
    pairs_.emplace_back(s, d);
  }
}

void PolicyComplianceAuditor::start(SimTime until_ms) {
  until_ms_ = until_ms;
  choose_pairs();
  schedule_next();
}

void PolicyComplianceAuditor::schedule_next() {
  // Sweeps only run from misbehavior onset: before it everyone is honest
  // and the InvariantMonitor already covers plain availability.
  const SimTime base = std::max(net_.engine().now(), config_.onset_ms);
  const SimTime next = base + kAuditCadenceMs;
  if (next > until_ms_) return;
  net_.engine().at(next, [this] {
    sweep();
    schedule_next();
  });
}

void PolicyComplianceAuditor::record(AdId src, AdId dst,
                                     ViolationKind kind) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(kind) << 56) |
      (static_cast<std::uint64_t>(src.v) << 28) |
      static_cast<std::uint64_t>(dst.v);
  if (!seen_.insert(key).second) return;
  switch (kind) {
    case ViolationKind::kHijack: ++stats_.hijacked_pairs; break;
    case ViolationKind::kLeak: ++stats_.leaked_pairs; break;
    case ViolationKind::kBlackHole: ++stats_.black_holed_pairs; break;
    case ViolationKind::kCollateral: ++stats_.collateral_pairs; break;
  }
}

PolicyComplianceAuditor::ViolationKind
PolicyComplianceAuditor::classify_delivered(
    AdId dst, const std::vector<AdId>& path) const {
  // Delivered but policy-illegal. If an active hijacker of this very dst
  // sits on the path it captured the traffic; otherwise somebody leaked.
  for (const AdId hop : path) {
    if (net_.misbehaving_as(hop, Misbehavior::kFalseOrigin) &&
        net_.misbehavior_victim(hop) == dst) {
      return ViolationKind::kHijack;
    }
  }
  return ViolationKind::kLeak;
}

PolicyComplianceAuditor::ViolationKind PolicyComplianceAuditor::classify_failed(
    AdId dst, const std::vector<AdId>& path) const {
  // An honest-reachable pair failed. A false-origin attack on this dst
  // explains it even when the hijacker is not on the walk (forged state
  // can divert or kill the route anywhere).
  for (const ByzantineSpec& spec : net_.byzantine_specs()) {
    if (spec.kind == Misbehavior::kFalseOrigin && spec.victim == dst &&
        net_.misbehaving(spec.ad)) {
      return ViolationKind::kHijack;
    }
  }
  for (const AdId hop : path) {
    switch (net_.active_misbehavior(hop)) {
      case Misbehavior::kBlackHole:
        return ViolationKind::kBlackHole;
      case Misbehavior::kRouteLeak:
      case Misbehavior::kTamper:
        return ViolationKind::kLeak;
      case Misbehavior::kFalseOrigin:
        return ViolationKind::kHijack;
      case Misbehavior::kNone:
        break;
    }
  }
  return ViolationKind::kCollateral;
}

void PolicyComplianceAuditor::sweep() {
  ++stats_.sweeps;
  std::size_t polluted = 0;
  std::size_t asked = 0;
  for (const auto& [src, dst] : pairs_) {
    if (!net_.alive(src) || !net_.alive(dst)) continue;
    ++asked;
    ++stats_.probes;
    const Probe probe = probe_(src, dst);
    if (probe.outcome == ProbeOutcome::kDelivered) {
      if (compliant_(src, dst, probe.path)) continue;
      ++polluted;
      record(src, dst, classify_delivered(dst, probe.path));
    } else {
      if (!honest_reachable_(src, dst)) continue;
      ++polluted;
      record(src, dst, classify_failed(dst, probe.path));
    }
  }
  last_sweep_pollution_ =
      asked == 0 ? 0.0
                 : static_cast<double>(polluted) / static_cast<double>(asked);
  if (last_sweep_pollution_ > stats_.peak_pollution) {
    stats_.peak_pollution = last_sweep_pollution_;
  }
  if (polluted > 0) last_polluted_at_ = net_.engine().now();
}

AuditStats PolicyComplianceAuditor::stats() const {
  AuditStats out = stats_;
  out.final_pollution = last_sweep_pollution_;
  if (out.sweeps == 0) {
    out.containment_ms = -1.0;  // never audited: no containment claim
  } else if (last_sweep_pollution_ > 0.0) {
    out.containment_ms = -1.0;  // still polluted at the end
  } else if (last_polluted_at_ < 0.0) {
    out.containment_ms = 0.0;  // never polluted at all
  } else {
    out.containment_ms =
        std::max(0.0, last_polluted_at_ - config_.onset_ms);
  }
  return out;
}

}  // namespace idr
