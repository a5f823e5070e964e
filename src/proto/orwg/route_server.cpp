#include "proto/orwg/route_server.hpp"

#include <algorithm>
#include <unordered_set>

#include "util/check.hpp"

namespace idr {
namespace {

// Synthesis expansion budgets: a full search per on-demand request, and
// a pruned one per destination during precomputation (the paper's
// "heuristics to prune the search").
constexpr std::uint64_t kOnDemandBudget = 500'000;
constexpr std::uint64_t kPrecomputeBudget = 25'000;

}  // namespace

bool view_path_is_legal(const SynthesisView& view, const FlowSpec& flow,
                        std::span<const AdId> path,
                        const SynthesisOptions& options) {
  if (path.size() < 2) return false;
  if (path.front() != flow.src || path.back() != flow.dst) return false;
  if (path.size() > options.max_hops) return false;
  std::unordered_set<std::uint32_t> seen;
  for (const AdId& ad : path) {
    if (!seen.insert(ad.v).second) return false;
  }
  for (std::size_t i = 1; i + 1 < path.size(); ++i) {
    if (std::find(options.avoid.begin(), options.avoid.end(), path[i]) !=
        options.avoid.end()) {
      return false;
    }
  }
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    bool live = false;
    view.for_each_neighbor(path[i], [&](AdId nbr, std::uint32_t) {
      if (nbr == path[i + 1]) live = true;
    });
    if (!live) return false;
  }
  for (std::size_t i = 1; i + 1 < path.size(); ++i) {
    if (!view.transit_cost(path[i], flow, path[i - 1], path[i + 1])) {
      return false;
    }
  }
  return true;
}

SynthesisOptions RouteServer::options(std::uint64_t budget) const {
  SynthesisOptions opt;
  opt.max_hops = source_policy_->max_hops;
  opt.avoid = source_policy_->avoid;
  opt.minimize_cost = source_policy_->prefer_min_cost;
  opt.expansion_budget = budget;
  return opt;
}

bool RouteServer::still_valid(const FlowSpec& flow,
                              const CacheEntry& entry) const {
  const LsdbView view(*db_, ad_count_, config_.registry);
  return view_path_is_legal(view, flow, entry.path, options(0));
}

std::optional<RouteServer::Result> RouteServer::route(const FlowSpec& flow) {
  IDR_CHECK_MSG(flow.src == self_, "route server serves its own AD only");
  const std::uint64_t key = cache_key(flow);
  if (const auto it = cache_.find(key); it != cache_.end()) {
    CacheEntry& entry = it->second;
    if (entry.db_version == db_->version()) {
      ++cache_hits_;
      return Result{entry.path, entry.cost, /*from_cache=*/true};
    }
    // Database moved on: revalidate the cached PR (cheap) before falling
    // back to resynthesis (expensive).
    ++revalidations_;
    if (still_valid(flow, entry)) {
      entry.db_version = db_->version();
      ++cache_hits_;
      return Result{entry.path, entry.cost, /*from_cache=*/true};
    }
    cache_.erase(it);
  }

  ++synth_calls_;
  const LsdbView view(*db_, ad_count_, config_.registry);
  const SynthesisResult result =
      synthesize_route(view, flow, options(kOnDemandBudget));
  total_expansions_ += result.expansions;
  if (!result.found()) return std::nullopt;
  cache_[key] = CacheEntry{result.path, result.cost, db_->version()};
  return Result{result.path, result.cost, /*from_cache=*/false};
}

std::optional<RouteServer::Result> RouteServer::route_avoiding(
    const FlowSpec& flow,
    std::span<const std::pair<AdId, AdId>> dead_links) {
  IDR_CHECK_MSG(flow.src == self_, "route server serves its own AD only");
  ++synth_calls_;
  const LsdbView view(*db_, ad_count_, config_.registry);
  SynthesisOptions opt = options(kOnDemandBudget);
  opt.avoid_links.assign(dead_links.begin(), dead_links.end());
  const SynthesisResult result = synthesize_route(view, flow, opt);
  total_expansions_ += result.expansions;
  if (!result.found()) return std::nullopt;
  cache_[cache_key(flow)] =
      CacheEntry{result.path, result.cost, db_->version()};
  return Result{result.path, result.cost, /*from_cache=*/false};
}

void RouteServer::precompute(const std::vector<AdId>& dests) {
  if (config_.strategy == SynthesisStrategy::kOnDemand) return;
  const LsdbView view(*db_, ad_count_, config_.registry);
  for (AdId dst : dests) {
    if (dst == self_) continue;
    FlowSpec flow;
    flow.src = self_;
    flow.dst = dst;
    const std::uint64_t key = cache_key(flow);
    if (cache_.contains(key)) continue;
    ++synth_calls_;
    const SynthesisResult result =
        synthesize_route(view, flow, options(kPrecomputeBudget));
    total_expansions_ += result.expansions;
    if (result.found()) {
      cache_[key] = CacheEntry{result.path, result.cost, db_->version()};
    }
  }
}

}  // namespace idr
