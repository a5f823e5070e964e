#include "core/adapters.hpp"

namespace idr {

// --- DV (RIP baseline) ---

void DvArchitecture::attach_nodes() {
  nodes_.clear();
  for (const Ad& ad : topo_.ads()) {
    auto node = std::make_unique<DvNode>(config_);
    nodes_.push_back(node.get());
    net_->attach(ad.id, std::move(node));
  }
}

Probe DvArchitecture::trace(const FlowSpec& flow) {
  return walk_probe(*net_, topo_, flow.src, flow.dst,
                    [&](AdId cur, const std::vector<AdId>&) {
                      return nodes_[cur.v]->next_hop(flow.dst);
                    });
}

std::size_t DvArchitecture::state_entries() const {
  std::size_t n = 0;
  for (const DvNode* node : nodes_) n += node->route_count();
  return n;
}

// --- LS (OSPF baseline) ---

void LsArchitecture::attach_nodes() {
  nodes_.clear();
  for (const Ad& ad : topo_.ads()) {
    auto node = std::make_unique<LsNode>();
    nodes_.push_back(node.get());
    net_->attach(ad.id, std::move(node));
  }
}

Probe LsArchitecture::trace(const FlowSpec& flow) {
  return walk_probe(*net_, topo_, flow.src, flow.dst,
                    [&](AdId cur, const std::vector<AdId>&) {
                      return nodes_[cur.v]->next_hop(flow.dst, flow.qos);
                    });
}

std::size_t LsArchitecture::state_entries() const {
  std::size_t n = 0;
  for (const LsNode* node : nodes_) n += node->fib_size();
  return n;
}

std::uint64_t LsArchitecture::computations() const {
  std::uint64_t n = 0;
  for (const LsNode* node : nodes_) n += node->spf_runs();
  return n;
}

// --- EGP ---

bool EgpArchitecture::applicable(const Topology& topo) const {
  return egp_applicable(topo);
}

void EgpArchitecture::attach_nodes() {
  IDR_CHECK_MSG(egp_applicable(topo_),
                "EGP requires an acyclic inter-AD topology");
  nodes_.clear();
  for (const Ad& ad : topo_.ads()) {
    auto node = std::make_unique<EgpNode>();
    if (is_stub_role(topo_, ad.id)) {
      // Stubs advertise only their own reachability.
      node->set_export_filter({ad.id.v});
    }
    nodes_.push_back(node.get());
    net_->attach(ad.id, std::move(node));
  }
}

Probe EgpArchitecture::trace(const FlowSpec& flow) {
  return walk_probe(*net_, topo_, flow.src, flow.dst,
                    [&](AdId cur, const std::vector<AdId>&) {
                      return nodes_[cur.v]->next_hop(flow.dst);
                    });
}

std::size_t EgpArchitecture::state_entries() const {
  std::size_t n = 0;
  for (const EgpNode* node : nodes_) {
    for (const Ad& ad : topo_.ads()) {
      if (node->next_hop(ad.id)) ++n;
    }
  }
  return n;
}

// --- ECMA ---

std::size_t EcmaArchitecture::state_entries() const {
  std::size_t n = 0;
  for (const EcmaNode* node : nodes_) n += node->fib_entries();
  return n;
}

// --- IDRP ---

std::size_t IdrpArchitecture::state_entries() const {
  std::size_t n = 0;
  for (const IdrpNode* node : nodes_) {
    n += node->loc_rib_routes() + node->adj_rib_routes();
  }
  return n;
}

// --- LSHH ---

std::size_t LshhArchitecture::state_entries() const {
  std::size_t n = 0;
  for (const LshhNode* node : nodes_) {
    n += node->cache_entries() + node->lsdb().size();
  }
  return n;
}

std::uint64_t LshhArchitecture::computations() const {
  std::uint64_t n = 0;
  for (const LshhNode* node : nodes_) n += node->path_computations();
  return n;
}

// --- ORWG ---

std::size_t OrwgArchitecture::state_entries() const {
  std::size_t n = 0;
  for (OrwgNode* node : nodes_) {
    n += node->route_server().cache_size() + node->gateway().installed() +
         node->lsdb().size();
  }
  return n;
}

std::uint64_t OrwgArchitecture::computations() const {
  std::uint64_t n = 0;
  for (OrwgNode* node : nodes_) n += node->route_server().synth_calls();
  return n;
}

// --- DV + source routing hybrid ---

void DvsrArchitecture::attach_nodes() {
  nodes_.clear();
  for (const Ad& ad : topo_.ads()) {
    auto node = std::make_unique<DvsrNode>(policies_, config_);
    nodes_.push_back(node.get());
    net_->attach(ad.id, std::move(node));
  }
}

Probe DvsrArchitecture::trace(const FlowSpec& flow) {
  Probe probe;
  auto path = nodes_[flow.src.v]->source_route(flow);
  if (!path) {
    probe.path.push_back(flow.src);
    return probe;  // kBlackHole
  }
  probe.path = std::move(*path);
  probe.outcome = ProbeOutcome::kDelivered;
  return probe;
}

std::size_t DvsrArchitecture::state_entries() const {
  std::size_t n = 0;
  for (const DvsrNode* node : nodes_) {
    n += node->loc_rib_routes() + node->adj_rib_routes();
  }
  return n;
}

std::vector<std::unique_ptr<RoutingArchitecture>> make_policy_architectures() {
  std::vector<std::unique_ptr<RoutingArchitecture>> archs;
  archs.push_back(std::make_unique<DvArchitecture>());
  archs.push_back(std::make_unique<LsArchitecture>());
  archs.push_back(std::make_unique<EcmaArchitecture>());
  archs.push_back(std::make_unique<IdrpArchitecture>());
  archs.push_back(std::make_unique<LshhArchitecture>());
  archs.push_back(std::make_unique<OrwgArchitecture>());
  archs.push_back(std::make_unique<DvsrArchitecture>());
  return archs;
}

}  // namespace idr
