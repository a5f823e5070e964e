// Continuous invariant checking under fault injection.
//
// The paper's comparative claims (loop-freedom, route availability,
// convergence) are only meaningful if they hold *while* the inter-AD
// topology churns (§2.2), not just after a single scripted failure. The
// InvariantMonitor sweeps the network on a configurable cadence: for a
// deterministic sample of (src, dst) pairs it asks the harness to walk
// the protocol's current forwarding choice hop by hop (the ProbeFn) and
// classifies the result against ground-truth reachability:
//
//   * forwarding loop  -- the walk revisited an AD;
//   * black hole       -- the walk gave up although a ground-truth path
//                         exists (over live links between live nodes);
//   * stale route      -- the walk "delivered" but crossed a down link or
//                         a crashed node, i.e. the FIB is lying.
//
// A violation observed within reconverge_window_ms of the most recent
// injected fault is transient (the protocol is allowed to be wrong while
// news propagates); outside that window it is persistent -- a real
// correctness failure. The monitor also records time-to-reconverge: the
// delay from each fault burst to the first subsequent all-clean sweep.
//
// The monitor is protocol-agnostic: walking FIBs is supplied by the
// harness (ProbeFn), and ground-truth reachability can be overridden
// (ReachableFn) for designs whose legal path set is narrower than the
// live topology -- ECMA's up*down* shape rule, for example.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/network.hpp"
#include "util/prng.hpp"
#include "util/stats.hpp"

namespace idr {

enum class ProbeOutcome : std::uint8_t {
  kDelivered = 0,  // walk reached dst; path holds the hops src..dst
  kLooped = 1,     // walk revisited an AD (or exceeded the hop budget)
  kBlackHole = 2,  // some node had no forwarding choice toward dst
};

struct Probe {
  ProbeOutcome outcome = ProbeOutcome::kBlackHole;
  std::vector<AdId> path;  // hops visited, starting at src
};

// What a sweep found wrong with one (src, dst) pair.
enum class InvariantKind : std::uint8_t {
  kLoop = 0,        // forwarding walk revisited an AD
  kBlackHole = 1,   // walk gave up although ground truth has a route
  kStaleRoute = 2,  // delivered over a down link or through a dead AD
};

[[nodiscard]] const char* to_string(InvariantKind kind);

// A structured record of one persistent violation: the offending pair
// plus the forwarding walk that exhibited it, so shrinkers and tests can
// key on (kind, src, dst, path) instead of parsing log strings. Findings
// are deduplicated exactly like the persistent counters; transient
// violations are counted, not recorded.
struct InvariantFinding {
  InvariantKind kind = InvariantKind::kLoop;
  AdId src;
  AdId dst;
  std::vector<AdId> path;  // hops the probe walked, starting at src
  SimTime at_ms = 0.0;     // sweep time that first observed it
};

struct InvariantConfig {
  SimTime cadence_ms = 50.0;
  // Violations within this window after the latest fault are transient.
  SimTime reconverge_window_ms = 500.0;
  // (src, dst) pairs sampled per sweep (from a fixed seed); 0 = probe
  // every ordered pair.
  std::size_t sample_pairs = 64;
  // When non-empty, sampled destinations are drawn from this pool instead
  // of the whole AD space (paper scale: only beacon ADs are originated
  // destinations, so probing arbitrary dsts would report vacuous
  // black holes).
  std::vector<AdId> dst_pool{};
  // When non-empty (and dst_pool is too), sampled sources are drawn from
  // this pool instead of uniformly over all ADs -- the scale runs pass a
  // stratified slice of the stub population so every region of the
  // hierarchy is probed at every sweep.
  std::vector<AdId> src_pool{};
};

// Per-failure-class accounting: each registered class gets its own
// reconvergence summary and blast radius (peak fraction of one sweep's
// probes found violating while that class's fault was the most recent).
// Class 0 is the implicit default used by the plain note_fault().
struct FaultClassStats {
  std::string name;
  std::uint64_t faults = 0;
  Summary reconverge_ms{};  // fault of this class -> first all-clean sweep
  double peak_blast = 0.0; // max per-sweep violating probe fraction
};

struct InvariantStats {
  std::uint64_t sweeps = 0;
  std::uint64_t probes = 0;
  std::uint64_t transient_loops = 0;
  std::uint64_t transient_black_holes = 0;
  std::uint64_t transient_stale_routes = 0;
  // Persistent counters are deduplicated: each (src, dst, kind) triple
  // counts once for the whole run no matter how many sweeps re-observe
  // it, so long soak logs stay bounded.
  std::uint64_t persistent_loops = 0;
  std::uint64_t persistent_black_holes = 0;
  std::uint64_t persistent_stale_routes = 0;
  Summary reconverge_ms;  // fault burst -> first all-clean sweep
  // Indexed by the class id returned by register_fault_class(); entry 0
  // is the default class.
  std::vector<FaultClassStats> fault_classes;
  // Forwarding continuity through node churn: while any AD is crashed or
  // in a graceful-restart grace window, every probe whose pair would be
  // connected if crashed ADs still forwarded (the GR promise) counts
  // here; it is "ok" when it actually delivered over a fresh-or-in-grace
  // path. Cold restarts black-hole these probes, GR keeps them flowing
  // over the frozen FIB -- the ratio is the paper-scale continuity
  // number BENCH_restart.json tracks. Both zero when no node churn
  // happened (or when probing never overlapped it).
  std::uint64_t continuity_probes = 0;
  std::uint64_t continuity_ok = 0;

  [[nodiscard]] double continuity() const noexcept {
    return continuity_probes == 0
               ? 1.0
               : static_cast<double>(continuity_ok) /
                     static_cast<double>(continuity_probes);
  }

  [[nodiscard]] std::uint64_t persistent_violations() const noexcept {
    return persistent_loops + persistent_black_holes +
           persistent_stale_routes;
  }
  [[nodiscard]] std::uint64_t transient_violations() const noexcept {
    return transient_loops + transient_black_holes + transient_stale_routes;
  }
};

class InvariantMonitor {
 public:
  using ProbeFn = std::function<Probe(AdId src, AdId dst)>;
  using ReachableFn = std::function<bool(AdId src, AdId dst)>;

  InvariantMonitor(Network& net, InvariantConfig config, ProbeFn probe);

  // Override ground-truth reachability (default: BFS over live links
  // between alive nodes).
  void set_reachable_fn(ReachableFn fn) { reachable_ = std::move(fn); }

  // Sweep on the cadence until `until_ms` (inclusive of the first sweep
  // one cadence from now).
  void start(SimTime until_ms);

  // The fault injector (or chaos driver) reports each injected fault so
  // the monitor can distinguish transient from persistent violations and
  // time reconvergence. The plain form charges the default class (0)
  // with the configured reconverge_window_ms.
  void note_fault();

  // Per-failure-class form: a named class (from register_fault_class)
  // with its own grace window -- a 1e4-AD partition heal legitimately
  // needs a longer window than a single link flap. window_ms < 0 falls
  // back to config_.reconverge_window_ms. Settling is deadline-based:
  // overlapping faults extend the deadline to the max over all of them.
  void note_fault(std::size_t fault_class, SimTime window_ms);

  // Register a failure class for per-class reconvergence / blast-radius
  // stats; returns its id (class 0, "fault", always exists).
  std::size_t register_fault_class(std::string name);

  // Run one sweep immediately (also used by the periodic schedule).
  void sweep();

  [[nodiscard]] const InvariantStats& stats() const noexcept {
    return stats_;
  }

  // True while a fault burst has not yet been followed by an all-clean
  // sweep -- the drivers' "never reconverged" signal at the horizon.
  [[nodiscard]] bool awaiting_clean_sweep() const noexcept {
    return awaiting_clean_sweep_;
  }

  // Persistent violation records (the ones that outlived the
  // reconvergence window), ordered by observation time -- what shrinker
  // predicates and test assertions key on.
  [[nodiscard]] const std::vector<InvariantFinding>& persistent_findings()
      const noexcept {
    return findings_;
  }

 private:
  [[nodiscard]] bool default_reachable(AdId src, AdId dst) const;
  [[nodiscard]] bool path_is_fresh(const std::vector<AdId>& path) const;
  [[nodiscard]] bool continuity_reachable(AdId src, AdId dst) const;
  void schedule_next();

  Network& net_;
  InvariantConfig config_;
  ProbeFn probe_;
  ReachableFn reachable_;
  Prng sample_prng_;
  InvariantStats stats_;
  SimTime until_ms_ = 0.0;
  SimTime last_fault_at_ = -1.0;  // <0: no fault yet
  SimTime settle_deadline_ = -1.0;  // max over faults of (at + window)
  std::size_t current_class_ = 0;   // class of the most recent fault
  bool awaiting_clean_sweep_ = false;
  // (src, dst, kind) triples already counted as persistent.
  std::unordered_set<std::uint64_t> persistent_seen_;
  std::vector<InvariantFinding> findings_;
};

// --- Policy-compliance auditing under Byzantine faults ----------------
//
// The InvariantMonitor above asks "does forwarding work?"; the auditor
// asks the paper's sharper question: "does forwarding *comply with
// policy*?". On a cadence it walks the same forwarding probes over a
// fixed sample of honest (src, dst) pairs and checks every delivered
// path against ground truth (the configured policy databases / the ECMA
// partial order), and every failed probe against honest reachability.
// Violations are classified by the misbehavior that explains them:
//
//   * hijack     -- traffic for a false-origin victim captured/killed;
//   * leak       -- a delivered path that violates someone's transit
//                   policy, or a failure attributable to a leaking or
//                   tampering AD on the probe's walk;
//   * black hole -- a failure attributable to an advertising-but-
//                   dropping AD on the walk;
//   * collateral -- an honest pair broken with no misbehaving AD on the
//                   walk (pollution spread beyond the liar's neighbors).
//
// Blast radius is the per-sweep fraction of sampled pairs polluted
// (peak and final reported); time-to-containment is the interval from
// misbehavior onset to the start of the clean suffix of sweeps (0 if
// never polluted, -1 if still polluted at the end -- not contained).

// Sweeps run every 100 ms; the pair sample comes from a fixed seed.
struct AuditConfig {
  SimTime onset_ms = 0.0;  // audit sweeps begin after misbehavior onset
  // Honest (src, dst) pairs sampled (fixed at start); 0 = every pair.
  std::size_t sample_pairs = 48;
};

struct AuditStats {
  std::uint64_t sweeps = 0;
  std::uint64_t probes = 0;
  // Distinct polluted (src, dst) pairs per classification (deduped).
  std::uint64_t hijacked_pairs = 0;
  std::uint64_t leaked_pairs = 0;
  std::uint64_t black_holed_pairs = 0;
  std::uint64_t collateral_pairs = 0;
  double peak_pollution = 0.0;   // max per-sweep polluted fraction
  double final_pollution = 0.0;  // polluted fraction of the last sweep
  SimTime containment_ms = -1.0;

  [[nodiscard]] std::uint64_t violation_pairs() const noexcept {
    return hijacked_pairs + leaked_pairs + black_holed_pairs +
           collateral_pairs;
  }
  [[nodiscard]] bool contained() const noexcept {
    return containment_ms >= 0.0;
  }
};

class PolicyComplianceAuditor {
 public:
  using ProbeFn = InvariantMonitor::ProbeFn;
  using ReachableFn = InvariantMonitor::ReachableFn;
  // Is this delivered src..dst path legal under ground-truth policy?
  using ComplianceFn = std::function<bool(
      AdId src, AdId dst, const std::vector<AdId>& path)>;

  PolicyComplianceAuditor(Network& net, AuditConfig config, ProbeFn probe,
                          ReachableFn honest_reachable,
                          ComplianceFn compliant);

  void start(SimTime until_ms);
  void sweep();

  // Finalizes final_pollution / containment_ms from the sweep history.
  [[nodiscard]] AuditStats stats() const;

 private:
  enum class ViolationKind : std::uint8_t {
    kHijack = 0,
    kLeak = 1,
    kBlackHole = 2,
    kCollateral = 3,
  };

  void choose_pairs();
  void schedule_next();
  void record(AdId src, AdId dst, ViolationKind kind);
  [[nodiscard]] ViolationKind classify_delivered(
      AdId dst, const std::vector<AdId>& path) const;
  [[nodiscard]] ViolationKind classify_failed(
      AdId dst, const std::vector<AdId>& path) const;

  Network& net_;
  AuditConfig config_;
  ProbeFn probe_;
  ReachableFn honest_reachable_;
  ComplianceFn compliant_;
  std::vector<std::pair<AdId, AdId>> pairs_;
  AuditStats stats_;
  std::unordered_set<std::uint64_t> seen_;
  SimTime until_ms_ = 0.0;
  SimTime last_polluted_at_ = -1.0;
  double last_sweep_pollution_ = 0.0;
};

}  // namespace idr
