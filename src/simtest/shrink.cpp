#include "simtest/shrink.hpp"

#include <algorithm>
#include <utility>

namespace idr {
namespace {

constexpr std::size_t kMaxChecks = 400;
constexpr SimTime kMinHorizonMs = 500.0;

// Zeller's ddmin, minimizing a list while `fails(subset)` keeps holding.
// `check` is the budget-counted predicate over candidate item subsets.
template <typename T>
std::vector<T> ddmin(std::vector<T> items,
                     const std::function<bool(const std::vector<T>&)>& check) {
  if (items.empty()) return items;
  std::size_t granularity = 2;
  while (items.size() >= 2) {
    const std::size_t chunk =
        std::max<std::size_t>(1, items.size() / granularity);
    bool reduced = false;
    for (std::size_t begin = 0; begin < items.size(); begin += chunk) {
      // Complement: everything except [begin, begin+chunk).
      std::vector<T> complement;
      complement.reserve(items.size());
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (i < begin || i >= begin + chunk) complement.push_back(items[i]);
      }
      if (complement.size() < items.size() && check(complement)) {
        items = std::move(complement);
        granularity = std::max<std::size_t>(2, granularity - 1);
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (granularity >= items.size()) break;
      granularity = std::min(items.size(), granularity * 2);
    }
  }
  // Final 1-minimality pass: drop single items while possible.
  if (items.size() == 1) {
    std::vector<T> empty;
    if (check(empty)) items.clear();
  }
  return items;
}

std::vector<PolicyTerm> all_terms(const SimCase& c) {
  std::vector<PolicyTerm> out;
  for (const Ad& ad : c.topo.ads()) {
    for (const PolicyTerm& term : c.policies.terms(ad.id)) {
      out.push_back(term);
    }
  }
  return out;
}

}  // namespace

FailurePredicate signature_predicate(std::vector<std::string> signatures,
                                     DiffOptions options) {
  std::sort(signatures.begin(), signatures.end());
  signatures.erase(std::unique(signatures.begin(), signatures.end()),
                   signatures.end());
  // Only the implicated design points need to run, and one run suffices
  // (determinism is a property of the original case, verified up front).
  if (options.archs.empty()) {
    std::vector<std::string> archs;
    for (const std::string& sig : signatures) {
      const std::size_t colon = sig.find(':');
      if (colon != std::string::npos) archs.push_back(sig.substr(0, colon));
    }
    std::sort(archs.begin(), archs.end());
    archs.erase(std::unique(archs.begin(), archs.end()), archs.end());
    options.archs = std::move(archs);
  }
  options.check_determinism = false;
  return [signatures = std::move(signatures),
          options = std::move(options)](const SimCase& c) {
    const std::vector<std::string> got =
        run_differential(c, options).signatures();
    return std::includes(got.begin(), got.end(), signatures.begin(),
                         signatures.end());
  };
}

ShrinkResult shrink_sim_case(const SimCase& failing,
                             const FailurePredicate& fails) {
  ShrinkResult result;
  result.minimized = failing;
  SimCase& best = result.minimized;

  auto check = [&](const SimCase& candidate) {
    if (result.checks >= kMaxChecks) return false;
    ++result.checks;
    return fails(candidate);
  };

  bool progress = true;
  while (progress && result.checks < kMaxChecks) {
    progress = false;
    ++result.rounds;

    // 1. Schedule events.
    if (!best.events.empty()) {
      const std::function<bool(const std::vector<SimEvent>&)> ev_check =
          [&](const std::vector<SimEvent>& subset) {
            return check(with_events(best, subset));
          };
      std::vector<SimEvent> events = ddmin(best.events, ev_check);
      if (events.size() < best.events.size()) {
        best = with_events(best, events);
        progress = true;
      }
    }

    // 2. Flows.
    if (!best.flows.empty()) {
      const std::function<bool(const std::vector<FlowSpec>&)> flow_check =
          [&](const std::vector<FlowSpec>& subset) {
            return check(with_flows(best, subset));
          };
      std::vector<FlowSpec> flows = ddmin(best.flows, flow_check);
      if (flows.size() < best.flows.size()) {
        best = with_flows(best, flows);
        progress = true;
      }
    }

    // 3. Policy terms.
    {
      const std::vector<PolicyTerm> terms = all_terms(best);
      if (!terms.empty()) {
        const std::function<bool(const std::vector<PolicyTerm>&)> term_check =
            [&](const std::vector<PolicyTerm>& subset) {
              return check(with_terms(best, subset));
            };
        std::vector<PolicyTerm> kept = ddmin(terms, term_check);
        if (kept.size() < terms.size()) {
          best = with_terms(best, kept);
          progress = true;
        }
      }
    }

    // 4. Links (greedy, highest id first so indices stay stable).
    for (std::size_t i = best.topo.link_count(); i-- > 0;) {
      if (result.checks >= kMaxChecks) break;
      const Link& link = best.topo.links()[i];
      SimCase candidate = remove_link(best, link.a, link.b);
      if (check(candidate)) {
        best = std::move(candidate);
        progress = true;
      }
    }

    // 5. Whole ADs (greedy; remove_ad renumbers, so restart the scan
    //    after every success).
    {
      bool removed = true;
      while (removed && best.topo.ad_count() > 2 &&
             result.checks < kMaxChecks) {
        removed = false;
        for (std::size_t i = best.topo.ad_count(); i-- > 0;) {
          if (result.checks >= kMaxChecks) break;
          SimCase candidate =
              remove_ad(best, AdId{static_cast<std::uint32_t>(i)});
          if (check(candidate)) {
            best = std::move(candidate);
            progress = true;
            removed = true;
            break;
          }
        }
      }
    }

    // 6. Horizon.
    while (best.horizon_ms > kMinHorizonMs && result.checks < kMaxChecks) {
      SimCase candidate = best;
      candidate.horizon_ms = std::max(kMinHorizonMs, best.horizon_ms * 0.7);
      if (candidate.horizon_ms >= best.horizon_ms) break;
      if (!check(candidate)) break;
      best = std::move(candidate);
      progress = true;
    }
  }
  return result;
}

}  // namespace idr
