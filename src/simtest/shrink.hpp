// Delta-debugging shrinker for failing SimCases. Given a case on which a
// failure predicate holds (typically "these violation signatures
// reproduce under run_differential"), the shrinker minimizes across every
// dimension of the world while the predicate keeps holding:
//
//   * scripted events (ddmin over the schedule),
//   * probed flows (ddmin),
//   * policy terms (ddmin over the flattened database),
//   * links, then whole ADs (greedy structural removal with id remap),
//   * the time horizon (geometric shortening, down to 500 ms).
//
// The passes repeat to a fixpoint, so a 60-AD soak failure comes back as
// a handful of ADs and events -- small enough to read, check into
// data/simtest/ and replay forever as a regression test.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "simtest/differential.hpp"
#include "simtest/simcase.hpp"

namespace idr {

using FailurePredicate = std::function<bool(const SimCase&)>;

struct ShrinkResult {
  SimCase minimized;
  std::size_t checks = 0;  // predicate evaluations spent
  std::size_t rounds = 0;  // full fixpoint rounds completed
};

// Spends at most 400 predicate evaluations (each one is a differential
// run) and returns its best-so-far when they run out.
ShrinkResult shrink_sim_case(const SimCase& failing,
                             const FailurePredicate& fails);

// Canonical predicate: the given violation signatures ("arch:kind", as
// produced by DiffResult::signatures()) all still reproduce. Signatures
// survive AD renumbering, which src/dst-based keys would not.
FailurePredicate signature_predicate(std::vector<std::string> signatures,
                                     DiffOptions options);

}  // namespace idr
