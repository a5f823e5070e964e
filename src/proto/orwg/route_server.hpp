// ORWG Route Server (paper §5.4.1): synthesizes Policy Routes from the
// flooded policy/topology database on behalf of its AD's hosts.
//
// The paper prescribes "a combination of precomputation and on-demand
// computation": precomputation with pruning heuristics (bounded expansion
// budgets) covers popular destinations, and on-demand synthesis handles
// the misses. Synthesized routes are cached; because PRs are long-lived
// the cache is revalidated cheaply against the current database version
// (walk the path; check links and PTs still permit) instead of being
// recomputed, and only resynthesized when revalidation fails.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/synthesis.hpp"
#include "proto/orwg/lsdb.hpp"

namespace idr {

enum class SynthesisStrategy : std::uint8_t {
  kOnDemand = 0,    // synthesize at first use only
  kPrecompute = 1,  // bulk precompute; misses fail over to on-demand
  kHybrid = 2,      // precompute popular destinations + on-demand misses
};

struct RouteServerConfig {
  SynthesisStrategy strategy = SynthesisStrategy::kOnDemand;
  // Registered ground-truth policy (nullptr = trust LSA-advertised
  // terms). The route-leak defense for source-routed designs: routes
  // are synthesized and revalidated against what each AD *registered*,
  // so a lying LSA cannot attract other sources' Policy Routes.
  const PolicySet* registry = nullptr;
};

class RouteServer {
 public:
  RouteServer(AdId self, const PolicyLsdb* db, std::size_t ad_count,
              const SourcePolicy* source_policy, RouteServerConfig config)
      : self_(self),
        db_(db),
        ad_count_(ad_count),
        source_policy_(source_policy),
        config_(config) {}

  struct Result {
    std::vector<AdId> path;
    std::uint64_t cost = 0;
    bool from_cache = false;
  };

  // A Policy Route for the flow (flow.src must be this AD), from cache if
  // still valid, else synthesized on demand.
  [[nodiscard]] std::optional<Result> route(const FlowSpec& flow);

  // Fast repair (paper §5.4.1: PRs break when policy/topology changes):
  // synthesize around links a data-plane error reported dead, bypassing
  // the (possibly stale) cache; the fresh route replaces the cached one.
  [[nodiscard]] std::optional<Result> route_avoiding(
      const FlowSpec& flow,
      std::span<const std::pair<AdId, AdId>> dead_links);

  // Precompute routes toward the given destinations for the default
  // traffic class, under the pruned budget.
  void precompute(const std::vector<AdId>& dests);

  // Statistics.
  [[nodiscard]] std::uint64_t synth_calls() const noexcept {
    return synth_calls_;
  }
  [[nodiscard]] std::uint64_t cache_hits() const noexcept {
    return cache_hits_;
  }
  [[nodiscard]] std::uint64_t revalidations() const noexcept {
    return revalidations_;
  }
  [[nodiscard]] std::uint64_t total_expansions() const noexcept {
    return total_expansions_;
  }
  [[nodiscard]] std::size_t cache_size() const noexcept {
    return cache_.size();
  }

 private:
  struct CacheEntry {
    std::vector<AdId> path;
    std::uint64_t cost = 0;
    std::uint64_t db_version = 0;  // PolicyLsdb version at (re)validation
  };

  [[nodiscard]] static std::uint64_t cache_key(const FlowSpec& flow) noexcept {
    return (static_cast<std::uint64_t>(flow.dst.v) << 32) |
           traffic_class_of(flow).index();
  }
  [[nodiscard]] SynthesisOptions options(std::uint64_t budget) const;
  [[nodiscard]] bool still_valid(const FlowSpec& flow,
                                 const CacheEntry& entry) const;

  AdId self_;
  const PolicyLsdb* db_;
  std::size_t ad_count_;
  const SourcePolicy* source_policy_;
  RouteServerConfig config_;
  std::unordered_map<std::uint64_t, CacheEntry> cache_;
  std::uint64_t synth_calls_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t revalidations_ = 0;
  std::uint64_t total_expansions_ = 0;
};

// Path legality from a view's perspective (used for cache revalidation
// and by LSHH): loop-free, every consecutive hop is a live view link,
// every intermediate AD's advertised PTs permit the flow in context, and
// the path respects the supplied options (avoid list, hop budget).
bool view_path_is_legal(const SynthesisView& view, const FlowSpec& flow,
                        std::span<const AdId> path,
                        const SynthesisOptions& options);

}  // namespace idr
