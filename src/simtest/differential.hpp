// DifferentialRunner: the back half of the deterministic simulation-
// testing loop. One SimCase is executed on each of the paper's four
// detailed design points (ECMA, IDRP, LS-HbH, ORWG) -- identical world,
// identical scripted schedule -- and every flow's final forwarding
// outcome is classified against ground truth:
//
//   * agreement            -- delivered a legal fresh route, or correctly
//                             found no route where none exists;
//   * expected divergence  -- a miss or policy-blind delivery the paper
//                             itself predicts (hop-by-hop route
//                             unavailability for IDRP/LS-HbH, ECMA's
//                             expressiveness gap, source-criteria
//                             violations no hop-by-hop design can honor);
//   * genuine violation    -- an illegal or stale delivered path, a
//                             forwarding loop, a black hole where the
//                             design's own ground truth has a route, or
//                             nondeterminism between two runs of the same
//                             seed;
//   * unknown              -- the oracle's search budget ran out.
//
// The expected/genuine split is the paper's comparison matrix turned into
// an executable conformance check: ORWG is held to completeness ("the
// source can discover a valid route if one in fact exists"), the
// hop-by-hop designs are not, and nobody is allowed to loop.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/oracle.hpp"
#include "sim/invariants.hpp"
#include "simtest/simcase.hpp"

namespace idr {

enum class DiffViolation : std::uint8_t {
  kIllegalPath = 0,     // delivered a path ground truth forbids
  kLoop = 1,            // forwarding loop at the horizon, or persistent
  kBlackHole = 2,       // no route delivered although one exists
  kStaleRoute = 3,      // delivered across dead links / crashed ADs
  kNondeterminism = 4,  // two runs of the same seed disagreed
};

[[nodiscard]] const char* to_string(DiffViolation v);

struct DiffFinding {
  std::string arch;
  DiffViolation kind = DiffViolation::kIllegalPath;
  FlowSpec flow;            // offending flow (monitor findings: default
                            // traffic class between src and dst)
  std::vector<AdId> path;   // forwarding walk that exhibited it
  std::string detail;

  // Shrinker predicates key on this: stable across AD renumbering.
  [[nodiscard]] std::string signature() const {
    return arch + ":" + to_string(kind);
  }
};

struct ArchDiffResult {
  std::string arch;
  std::size_t flows_total = 0;
  std::size_t flows_skipped = 0;  // dead / misbehaving endpoint
  std::size_t delivered_legal = 0;
  std::size_t agreed_no_route = 0;
  std::size_t expected_divergences = 0;
  std::size_t unknown = 0;  // oracle budget exhausted
  std::vector<DiffFinding> violations;
  std::uint64_t fingerprint = 0;       // counter fingerprint at horizon
  std::uint64_t events_processed = 0;  // DES events for the whole run
  InvariantStats invariants;
};

struct DiffOptions {
  // Design points to run; empty = all four.
  std::vector<std::string> archs;
  // Execute every (case, arch) twice and flag any difference in
  // fingerprint, event count or per-flow outcome as nondeterminism.
  bool check_determinism = true;
  // Testing the tester: make the LS-HbH probe ignore the flow's traffic
  // class (queries the default-class FIB for every flow), a seeded
  // known-bad defect the shrinker acceptance tests minimize.
  bool inject_probe_bug = false;
  // Event-scheduler backend; the engine-equivalence tests run the same
  // seed under both backends and require identical results.
  SchedulerKind scheduler = SchedulerKind::kCalendar;
  // Sharded-parallel backend: partition each case's topology into
  // `shards` conservative-window shards (1 = sequential reference).
  // threads == 0 drives the shards inline on the caller's thread, which
  // is byte-identical to the threaded run by construction; either way
  // the result must match the sequential backend exactly.
  std::uint32_t shards = 1;
  unsigned threads = 0;
  // Testing-only window-lookahead shrink; 0 keeps the topology minimum.
  double lookahead_ms = 0.0;
};

struct DiffResult {
  std::string name;
  std::uint64_t seed = 0;
  std::vector<ArchDiffResult> archs;

  [[nodiscard]] bool clean() const {
    for (const ArchDiffResult& a : archs) {
      if (!a.violations.empty()) return false;
    }
    return true;
  }
  [[nodiscard]] std::size_t violation_count() const {
    std::size_t n = 0;
    for (const ArchDiffResult& a : archs) n += a.violations.size();
    return n;
  }
  // Sorted unique "arch:kind" strings -- the shrinker's reproduction key.
  [[nodiscard]] std::vector<std::string> signatures() const;
};

DiffResult run_differential(const SimCase& c, const DiffOptions& options = {});

}  // namespace idr
