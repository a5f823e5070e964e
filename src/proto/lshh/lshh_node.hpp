// Link state + hop-by-hop + explicit policy terms (paper §5.3).
//
// Policy LSAs flood to every AD, so any AD *can* compute a legal route
// for any (source, flow) -- but because forwarding is hop-by-hop, every
// AD along the route must repeat the source's computation and reach the
// identical answer. That imposes the two costs the paper identifies:
//   1. per-source computation/state at transit ADs (a spanning tree per
//      traffic source rather than one per destination), and
//   2. sources must publish their route-selection criteria in their LSAs
//      (otherwise other ADs cannot replicate their decision), giving up
//      the privacy that source routing would preserve.
// Both are measured by the policy-granularity bench. Consistency is
// achieved by the deterministic shared synthesis procedure; during
// database convergence, inconsistent answers (and hence transient loops
// or drops) are possible and are counted by the convergence bench.
#pragma once

#include <cstdint>
#include <optional>

#include "policy/database.hpp"
#include "proto/orwg/policy_ls_node.hpp"
#include "util/dense_map.hpp"

namespace idr {

struct LshhConfig : PolicyLsConfig {
  // Registered ground-truth policy for transit permission during path
  // synthesis (nullptr = trust the terms advertised in LSAs). This is
  // the route-leak defense: an AD cannot widen its transit policy by
  // advertising terms it never registered.
  const PolicySet* registry = nullptr;
};

// The link-state control plane comes from PolicyLsNode; LS-HbH adds the
// per-flow path cache, hop-by-hop synthesis, the published source
// policy and the re-flood tamper misbehavior.
class LshhNode : public PolicyLsNode {
 public:
  explicit LshhNode(const PolicySet* policies, LshhConfig config = {})
      : PolicyLsNode(policies, /*publishes_source_policy=*/true),
        config_(config) {}

  void on_link_change(AdId neighbor, bool up) override;

  // Hop-by-hop forwarding decision for a packet of `flow` currently at
  // this AD: recompute (or fetch from the per-flow cache) the globally
  // agreed path for the flow and return our successor on it. nullopt if
  // no legal route, or if this AD is not on the computed path (the
  // inconsistency case -- the packet is dropped).
  [[nodiscard]] std::optional<AdId> forward(const FlowSpec& flow);

  [[nodiscard]] std::uint64_t path_computations() const noexcept {
    return path_computations_;
  }
  [[nodiscard]] std::uint64_t cache_hits() const noexcept {
    return cache_hits_;
  }
  [[nodiscard]] std::size_t cache_entries() const noexcept {
    return cache_.size();
  }
  [[nodiscard]] std::uint64_t total_expansions() const noexcept {
    return total_expansions_;
  }

 protected:
  [[nodiscard]] const PolicyLsConfig& ls_config() const noexcept override {
    return config_;
  }
  void reflood(const PolicyLsa& lsa, AdId from) override;

 private:
  struct CacheEntry {
    std::optional<AdId> next;
    std::uint64_t db_version = 0;
    // Adjacency-liveness epoch at computation time. The database version
    // alone cannot invalidate a stub's cache: stubs keep no database, so
    // a next hop (or negative result) computed while the parent transit
    // was dead would otherwise be served forever once it returns.
    std::uint64_t live_epoch = 0;
  };

  // Our successor on the path the source of `flow` computes: same
  // database, same deterministic search, same (published) selection
  // criteria.
  [[nodiscard]] std::optional<AdId> agreed_next(const FlowSpec& flow);
  [[nodiscard]] std::optional<AdId> hierarchical_next(const FlowSpec& flow);
  [[nodiscard]] static std::uint64_t cache_key(const FlowSpec& flow) noexcept {
    // Source-specific key: hop-by-hop policy routing cannot collapse
    // sources (the paper's state-blowup point).
    return (static_cast<std::uint64_t>(flow.src.v) << 40) ^
           (static_cast<std::uint64_t>(flow.dst.v) << 12) ^
           traffic_class_of(flow).index();
  }

  LshhConfig config_;
  std::uint64_t live_epoch_ = 0;  // bumped on every on_link_change
  DenseMap<std::uint64_t, CacheEntry> cache_;
  std::uint64_t path_computations_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t total_expansions_ = 0;
};

}  // namespace idr
