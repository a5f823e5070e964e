#include "core/design_harness.hpp"

#include <memory>
#include <optional>
#include <queue>
#include <utility>

#include "core/synthesis.hpp"
#include "sim/shard.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

namespace idr {
namespace {

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) noexcept {
  h ^= v;
  return h * 0x100000001b3ULL;
}

// A node the ground-truth oracles must route around. Two notions:
//
//   * quarantine_only = false (the invariant monitor's view): also skip
//     ADs actively swallowing traffic toward this destination -- no
//     protocol can be blamed for failing to route through a Byzantine
//     black hole it has no way to detect;
//   * quarantine_only = true (the auditor's view): skip only quarantined
//     ADs. Blast radius must count pairs an active dropper breaks, so
//     "honest reachability" pretends the misbehaving AD would have
//     forwarded -- until containment administratively removes it.
//
// Misbehaving-but-forwarding ADs (leak, tamper) are never excluded:
// ground truth holds them to their registered policy, which is exactly
// what the defended protocols converge to.
bool unusable_for(const Network& net, AdId ad, AdId dst,
                  bool quarantine_only) {
  if (net.is_quarantined(ad)) return true;
  return !quarantine_only && net.drops_traffic(ad, dst);
}

}  // namespace

const std::vector<std::string>& design_point_names() {
  static const std::vector<std::string> kPoints = {"ecma", "idrp", "ls-hbh",
                                                   "orwg"};
  return kPoints;
}

void apply_engine_backend(Engine& engine, const Topology& topo,
                          const EngineBackend& backend) {
  if (backend.shards <= 1) return;
  ShardPlanOptions opts;
  opts.lookahead_override_ms = backend.lookahead_ms;
  engine.enable_sharding(make_shard_plan(topo, backend.shards, opts),
                         backend.threads);
}

bool is_stub_role(const Topology& topo, AdId ad) {
  const AdRole role = topo.ad(ad).role;
  return role == AdRole::kStub || role == AdRole::kMultiHomed;
}

void shape_ecma_role(EcmaConfig& config, const Topology& topo, AdId ad) {
  config.stub = is_stub_role(topo, ad);
  if (topo.ad(ad).role == AdRole::kHybrid) {
    for (const Adjacency& adj : topo.neighbors(ad)) {
      config.export_dsts.insert(adj.neighbor.v);
    }
  }
}

bool ecma_transits(const Topology& topo, AdId ad, AdId dst) {
  if (is_stub_role(topo, ad)) return false;
  return topo.ad(ad).role != AdRole::kHybrid ||
         topo.find_link(ad, dst).has_value();
}

DesignConfig adversarial_design_config(
    double periodic_refresh_ms, bool defended, const PolicySet& policies,
    const std::vector<std::uint64_t>& lsa_keys) {
  DesignConfig config;
  config.ecma.periodic_refresh_ms = periodic_refresh_ms;
  config.idrp.periodic_refresh_ms = periodic_refresh_ms;
  config.lshh.periodic_refresh_ms = periodic_refresh_ms;
  config.orwg.periodic_refresh_ms = periodic_refresh_ms;
  if (defended) {
    config.ecma.receiver_order_check = true;
    config.idrp.defend = true;
    config.lshh.lsa_keys = &lsa_keys;
    config.lshh.registry = &policies;
    config.orwg.lsa_keys = &lsa_keys;
    config.orwg.route_server.registry = &policies;
  }
  return config;
}

std::vector<std::uint64_t> make_lsa_keys(std::uint64_t seed,
                                         std::size_t ad_count) {
  std::uint64_t key_state = seed ^ 0x6b657973ULL;  // "keys"
  std::vector<std::uint64_t> keys(ad_count);
  for (auto& key : keys) {
    key = splitmix64(key_state);
    if (key == 0) key = 1;
  }
  return keys;
}

Network::NodeFactory make_design_factory(const std::string& arch,
                                         const Topology& topo,
                                         const PolicySet& policies,
                                         const OrderResult* order,
                                         const DesignConfig& config) {
  const std::vector<char>* originators = config.dv_originators;
  if (arch == "ecma") {
    IDR_CHECK_MSG(order != nullptr, "ecma factory needs the partial order");
    return [&topo, order, originators,
            base = config.ecma](AdId ad) -> std::unique_ptr<Node> {
      EcmaConfig ecma = base;
      shape_ecma_role(ecma, topo, ad);
      if (originators) ecma.originate = (*originators)[ad.v] != 0;
      return std::make_unique<EcmaNode>(&order->order, std::move(ecma));
    };
  }
  if (arch == "idrp") {
    return [&policies, originators,
            base = config.idrp](AdId ad) -> std::unique_ptr<Node> {
      IdrpConfig idrp = base;
      if (originators) idrp.originate = (*originators)[ad.v] != 0;
      return std::make_unique<IdrpNode>(&policies, std::move(idrp));
    };
  }
  if (arch == "ls-hbh") {
    return [&policies, base = config.lshh](AdId) -> std::unique_ptr<Node> {
      return std::make_unique<LshhNode>(&policies, base);
    };
  }
  if (arch == "orwg") {
    return [&policies, base = config.orwg](AdId) -> std::unique_ptr<Node> {
      return std::make_unique<OrwgNode>(&policies, base);
    };
  }
  IDR_CHECK_MSG(false, "unknown design point");
  return {};
}

FlowProbeFn make_design_probe(const std::string& arch, Network& net,
                              const Topology& topo) {
  if (arch == "ecma") {
    return [&net, &topo](const FlowSpec& flow) {
      bool gone_down = false;
      return walk_probe(
          net, topo, flow.src, flow.dst,
          [&](AdId cur, const std::vector<AdId>&) -> std::optional<AdId> {
            // forwarding_node: an in-grace AD answers from its frozen
            // pre-crash FIB (graceful restart); a hard-down AD is null.
            auto* node = static_cast<EcmaNode*>(net.forwarding_node(cur));
            if (!node) return std::nullopt;  // walked into a crashed AD
            const auto fwd = node->forward(flow.dst, flow.qos, gone_down);
            if (!fwd) return std::nullopt;
            gone_down = gone_down || fwd->sets_gone_down;
            return fwd->via;
          });
    };
  }
  if (arch == "idrp") {
    return [&net, &topo](const FlowSpec& flow) {
      return walk_probe(
          net, topo, flow.src, flow.dst,
          [&](AdId cur,
              const std::vector<AdId>& path) -> std::optional<AdId> {
            auto* node = static_cast<IdrpNode*>(net.forwarding_node(cur));
            if (!node) return std::nullopt;
            const AdId prev = path.size() >= 2 ? path[path.size() - 2] : kNoAd;
            return node->forward(flow, prev);
          });
    };
  }
  if (arch == "ls-hbh") {
    return [&net, &topo](const FlowSpec& flow) {
      return walk_probe(
          net, topo, flow.src, flow.dst,
          [&](AdId cur, const std::vector<AdId>&) -> std::optional<AdId> {
            auto* node = static_cast<LshhNode*>(net.forwarding_node(cur));
            if (!node) return std::nullopt;
            return node->forward(flow);
          });
    };
  }
  if (arch == "orwg") {
    // Source-routed: the route server answers at the source.
    return [&net](const FlowSpec& flow) {
      Probe p;
      auto* node = static_cast<OrwgNode*>(net.forwarding_node(flow.src));
      if (!node) return p;  // callers skip dead endpoints anyway
      auto path = node->policy_route(flow);
      if (!path) {
        p.path.push_back(flow.src);
        return p;  // kBlackHole
      }
      p.path = std::move(*path);
      // The setup would succeed, but a quarantined or traffic-dropping
      // AD on the source route swallows the data packets.
      for (std::size_t i = 1; i + 1 < p.path.size(); ++i) {
        if (net.is_quarantined(p.path[i]) ||
            net.drops_traffic(p.path[i], flow.dst)) {
          return p;  // kBlackHole
        }
      }
      p.outcome = ProbeOutcome::kDelivered;
      return p;
    };
  }
  IDR_CHECK_MSG(false, "unknown design point");
  return {};
}

InvariantMonitor::ProbeFn make_pair_probe(FlowProbeFn probe) {
  return [probe = std::move(probe)](AdId src, AdId dst) {
    FlowSpec flow;
    flow.src = src;
    flow.dst = dst;
    return probe(flow);
  };
}

bool ecma_reachable(const Network& net, const Topology& topo,
                    const PartialOrder& order, AdId src, AdId dst,
                    bool quarantine_only) {
  const std::size_t n = topo.ad_count();
  std::vector<bool> seen(n * 2, false);
  std::queue<std::pair<AdId, bool>> queue;
  queue.emplace(src, false);
  seen[src.v * 2] = true;
  while (!queue.empty()) {
    const auto [cur, gone_down] = queue.front();
    queue.pop();
    if (cur == dst) return true;
    if (cur != src && !ecma_transits(topo, cur, dst)) continue;
    for (const Adjacency& adj : topo.live_neighbors(cur)) {
      if (!net.usable(adj.neighbor)) continue;
      if (unusable_for(net, adj.neighbor, dst, quarantine_only)) continue;
      const bool hop_is_up = order.is_up(cur, adj.neighbor);
      if (gone_down && hop_is_up) continue;  // up after down: illegal shape
      const bool next_gone_down = gone_down || !hop_is_up;
      const std::size_t state = adj.neighbor.v * 2 + (next_gone_down ? 1 : 0);
      if (!seen[state]) {
        seen[state] = true;
        queue.emplace(adj.neighbor, next_gone_down);
      }
    }
  }
  return false;
}

bool policy_reachable(const Network& net, const Topology& topo,
                      const PolicySet& policies, AdId src, AdId dst,
                      bool quarantine_only) {
  FlowSpec flow;
  flow.src = src;
  flow.dst = dst;
  SynthesisOptions options;
  options.first_found = true;
  options.expansion_budget = 200'000;
  for (const Ad& ad : topo.ads()) {
    if (!net.usable(ad.id) || unusable_for(net, ad.id, dst, quarantine_only)) {
      options.avoid.push_back(ad.id);
    }
  }
  const GroundTruthView view(topo, policies);
  return synthesize_route(view, flow, options).found();
}

InvariantMonitor::ReachableFn make_design_reachable(
    const std::string& arch, const Network& net, const Topology& topo,
    const PolicySet& policies, const OrderResult* order,
    bool quarantine_only) {
  if (arch == "ecma") {
    IDR_CHECK_MSG(order != nullptr, "ecma reachability needs the order");
    return [&net, &topo, order, quarantine_only](AdId src, AdId dst) {
      return ecma_reachable(net, topo, order->order, src, dst,
                            quarantine_only);
    };
  }
  return [&net, &topo, &policies, quarantine_only](AdId src, AdId dst) {
    return policy_reachable(net, topo, policies, src, dst, quarantine_only);
  };
}

PathComplianceFn make_design_compliance(const std::string& arch,
                                        const Topology& topo,
                                        const PolicySet& policies,
                                        const OrderResult* order) {
  if (arch == "ecma") {
    // ECMA's policy is structural: the delivered walk must be up*down*
    // shaped and every intermediate must be transit-willing.
    IDR_CHECK_MSG(order != nullptr, "ecma compliance needs the order");
    return [&topo, order](AdId, AdId dst, const std::vector<AdId>& path) {
      bool gone_down = false;
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const AdId cur = path[i];
        if (i > 0 && !ecma_transits(topo, cur, dst)) return false;
        const bool up = order->order.is_up(cur, path[i + 1]);
        if (gone_down && up) return false;
        if (!up) gone_down = true;
      }
      return true;
    };
  }
  return [&topo, &policies](AdId src, AdId dst,
                            const std::vector<AdId>& path) {
    FlowSpec flow;
    flow.src = src;
    flow.dst = dst;
    return policies.path_is_legal(topo, flow, path);
  };
}

std::uint64_t counter_fingerprint(const Network& net, const Topology& topo) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Ad& ad : topo.ads()) {
    const Counters& c = net.counters(ad.id);
    h = fnv_mix(h, c.msgs_sent);
    h = fnv_mix(h, c.bytes_sent);
    h = fnv_mix(h, c.msgs_delivered);
    h = fnv_mix(h, c.msgs_dropped);
    h = fnv_mix(h, c.msgs_corrupted);
    h = fnv_mix(h, c.msgs_duplicated);
    h = fnv_mix(h, c.msgs_reordered);
    h = fnv_mix(h, c.malformed_dropped);
    h = fnv_mix(h, c.defense_rejections);
  }
  return h;
}

}  // namespace idr
