// Concrete RoutingArchitecture adapters, one per protocol family -- the
// executable rows of the paper's Table 1 plus the pre-policy baselines
// of §3. Each adapter instantiates its protocol's nodes over the scenario
// topology and maps the common harness queries (trace / state /
// computations / header cost) onto the protocol's own structures; the
// four design points get their nodes and traces from core/design_harness.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "core/architecture.hpp"
#include "core/design_harness.hpp"
#include "proto/dv/dv_node.hpp"
#include "proto/dvsr/dvsr_node.hpp"
#include "proto/egp/egp_node.hpp"
#include "proto/ls/ls_node.hpp"
#include "util/check.hpp"

namespace idr {

// --- Pre-policy baselines (paper §3) ---

class DvArchitecture final : public RoutingArchitecture {
 public:
  explicit DvArchitecture(DvConfig config = {.split_horizon = true})
      : config_(config) {}
  [[nodiscard]] std::string name() const override {
    return config_.split_horizon ? "dv-rip" : "dv-plain";
  }
  [[nodiscard]] DesignPoint design_point() const override {
    return {Algorithm::kDistanceVector, Decision::kHopByHop,
            PolicyExpression::kNone};
  }
  [[nodiscard]] Probe trace(const FlowSpec& flow) override;
  [[nodiscard]] std::size_t state_entries() const override;
  [[nodiscard]] std::uint64_t computations() const override { return 0; }
  [[nodiscard]] std::size_t header_bytes(std::size_t) const override {
    return 9;  // type + src + dst
  }

 protected:
  void attach_nodes() override;

 private:
  DvConfig config_;
  std::vector<DvNode*> nodes_;
};

class LsArchitecture final : public RoutingArchitecture {
 public:
  [[nodiscard]] std::string name() const override { return "ls-ospf"; }
  [[nodiscard]] DesignPoint design_point() const override {
    return {Algorithm::kLinkState, Decision::kHopByHop,
            PolicyExpression::kNone};
  }
  [[nodiscard]] Probe trace(const FlowSpec& flow) override;
  [[nodiscard]] std::size_t state_entries() const override;
  [[nodiscard]] std::uint64_t computations() const override;
  [[nodiscard]] std::size_t header_bytes(std::size_t) const override {
    return 10;  // type + src + dst + qos
  }

 protected:
  void attach_nodes() override;

 private:
  std::vector<LsNode*> nodes_;
};

class EgpArchitecture final : public RoutingArchitecture {
 public:
  [[nodiscard]] std::string name() const override { return "egp"; }
  [[nodiscard]] DesignPoint design_point() const override {
    return {Algorithm::kDistanceVector, Decision::kHopByHop,
            PolicyExpression::kNone};
  }
  [[nodiscard]] bool applicable(const Topology& topo) const override;
  [[nodiscard]] Probe trace(const FlowSpec& flow) override;
  [[nodiscard]] std::size_t state_entries() const override;
  [[nodiscard]] std::uint64_t computations() const override { return 0; }
  [[nodiscard]] std::size_t header_bytes(std::size_t) const override {
    return 9;
  }

 protected:
  void attach_nodes() override;

 private:
  std::vector<EgpNode*> nodes_;
};

// --- The paper's four detailed design points (§5.1-§5.4) ---

// Nodes come from make_design_factory and traces from make_design_probe,
// the construction path and forwarding walk the adversarial and scale
// drivers use, so each adapter adds only what the analysis reads:
// state, computations and header cost.
template <typename NodeT>
class DesignArchitecture : public RoutingArchitecture {
 public:
  [[nodiscard]] Probe trace(const FlowSpec& flow) override {
    return probe_(flow);
  }
  [[nodiscard]] const std::vector<NodeT*>& nodes() const noexcept {
    return nodes_;
  }

 protected:
  void attach_nodes() override {
    if (name() == "ecma") {
      order_ = compute_partial_order(topo_, {});
      IDR_CHECK_MSG(order_.ok, "structural ordering conflict");
    }
    const Network::NodeFactory factory =
        make_design_factory(name(), topo_, *policies_, &order_, config_);
    nodes_.clear();
    for (const Ad& ad : topo_.ads()) {
      std::unique_ptr<Node> node = factory(ad.id);
      nodes_.push_back(static_cast<NodeT*>(node.get()));
      net_->attach(ad.id, std::move(node));
    }
    probe_ = make_design_probe(name(), *net_, topo_);
  }

  DesignConfig config_;
  OrderResult order_;  // ECMA's partial order (unused by the others)
  std::vector<NodeT*> nodes_;

 private:
  FlowProbeFn probe_;
};

// §5.1: distance vector, hop-by-hop, policy in topology (partial order).
class EcmaArchitecture final : public DesignArchitecture<EcmaNode> {
 public:
  [[nodiscard]] std::string name() const override { return "ecma"; }
  [[nodiscard]] DesignPoint design_point() const override {
    return {Algorithm::kDistanceVector, Decision::kHopByHop,
            PolicyExpression::kTopology};
  }
  [[nodiscard]] std::size_t state_entries() const override;
  [[nodiscard]] std::uint64_t computations() const override { return 0; }
  [[nodiscard]] std::size_t header_bytes(std::size_t) const override {
    return 11;  // type + src + dst + qos + gone-down marker
  }
  [[nodiscard]] const OrderResult& order_result() const noexcept {
    return order_;
  }
};

// §5.2: distance vector (path vector), hop-by-hop, explicit policy terms.
class IdrpArchitecture final : public DesignArchitecture<IdrpNode> {
 public:
  explicit IdrpArchitecture(IdrpConfig config = {}) {
    config_.idrp = std::move(config);
  }
  [[nodiscard]] std::string name() const override { return "idrp"; }
  [[nodiscard]] DesignPoint design_point() const override {
    return {Algorithm::kDistanceVector, Decision::kHopByHop,
            PolicyExpression::kPolicyTerms};
  }
  [[nodiscard]] std::size_t state_entries() const override;
  [[nodiscard]] std::uint64_t computations() const override { return 0; }
  [[nodiscard]] std::size_t header_bytes(std::size_t) const override {
    return 16;  // type + src + dst + qos + uci + hour + attr-class id
  }
};

// §5.3: link state, hop-by-hop, explicit policy terms.
class LshhArchitecture final : public DesignArchitecture<LshhNode> {
 public:
  [[nodiscard]] std::string name() const override { return "ls-hbh"; }
  [[nodiscard]] DesignPoint design_point() const override {
    return {Algorithm::kLinkState, Decision::kHopByHop,
            PolicyExpression::kPolicyTerms};
  }
  [[nodiscard]] std::size_t state_entries() const override;
  [[nodiscard]] std::uint64_t computations() const override;
  [[nodiscard]] std::size_t header_bytes(std::size_t) const override {
    return 15;  // type + src + dst + qos + uci + hour
  }
};

// §5.4: link state, source routing, explicit policy terms (ORWG/IDPR).
class OrwgArchitecture final : public DesignArchitecture<OrwgNode> {
 public:
  explicit OrwgArchitecture(OrwgConfig config = {}) {
    config_.orwg = std::move(config);
  }
  [[nodiscard]] std::string name() const override { return "orwg"; }
  [[nodiscard]] DesignPoint design_point() const override {
    return {Algorithm::kLinkState, Decision::kSourceRouting,
            PolicyExpression::kPolicyTerms};
  }
  [[nodiscard]] std::size_t state_entries() const override;
  [[nodiscard]] std::uint64_t computations() const override;
  // Established PRs forward on an 8-byte handle, not the full route.
  [[nodiscard]] std::size_t header_bytes(std::size_t) const override {
    return 27;  // type + handle + src + seq + timestamp + length
  }
  [[nodiscard]] std::size_t setup_header_bytes(std::size_t path_len) const {
    return 22 + 4 * path_len;  // setup carries the full policy route
  }
};

// §5.5.2: distance vector + source routing hybrid.
class DvsrArchitecture final : public RoutingArchitecture {
 public:
  explicit DvsrArchitecture(IdrpConfig config = {}) : config_(config) {}
  [[nodiscard]] std::string name() const override { return "dv-sr"; }
  [[nodiscard]] DesignPoint design_point() const override {
    return {Algorithm::kDistanceVector, Decision::kSourceRouting,
            PolicyExpression::kPolicyTerms};
  }
  [[nodiscard]] Probe trace(const FlowSpec& flow) override;
  [[nodiscard]] std::size_t state_entries() const override;
  [[nodiscard]] std::uint64_t computations() const override { return 0; }
  [[nodiscard]] std::size_t header_bytes(std::size_t path_len) const override {
    return 15 + 4 * path_len;  // every packet carries the source route
  }

 protected:
  void attach_nodes() override;

 private:
  IdrpConfig config_;
  std::vector<DvsrNode*> nodes_;
};

// All seven architectures (EGP excluded: it is inapplicable on cyclic
// topologies; instantiate it explicitly where a tree is guaranteed).
std::vector<std::unique_ptr<RoutingArchitecture>> make_policy_architectures();

}  // namespace idr
