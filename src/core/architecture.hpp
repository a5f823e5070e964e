// The executable design space (paper Table 1).
//
// Every inter-AD routing proposal is positioned by three decisions:
// routing algorithm (distance vector / link state), location of the
// routing decision (hop-by-hop / source), and expression of policy (in
// the topology / explicit policy terms). RoutingArchitecture is the
// common harness: build the protocol over a scenario topology, run the
// control plane to convergence inside the simulator, then interrogate the
// data plane -- what path would a given flow's packets actually take, how
// much state and computation does each AD hold, what does a packet header
// cost. The scenario runner compares every architecture against the
// ground-truth oracle on identical inputs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "policy/database.hpp"
#include "policy/flow.hpp"
#include "sim/engine.hpp"
#include "sim/invariants.hpp"
#include "sim/network.hpp"
#include "topology/graph.hpp"

namespace idr {

enum class Algorithm : std::uint8_t { kDistanceVector, kLinkState };
enum class Decision : std::uint8_t { kHopByHop, kSourceRouting };
enum class PolicyExpression : std::uint8_t {
  kNone,        // policy-blind baseline protocols (RIP/OSPF/EGP class)
  kTopology,    // policy embedded in topology (ECMA partial ordering)
  kPolicyTerms  // explicit policy terms in routing exchanges
};

struct DesignPoint {
  Algorithm algorithm;
  Decision decision;
  PolicyExpression policy;

  [[nodiscard]] std::string describe() const;
};

struct ConvergenceStats {
  SimTime time_ms = 0.0;        // last protocol delivery before quiescence
  std::uint64_t messages = 0;   // protocol messages sent
  std::uint64_t bytes = 0;      // encoded bytes sent
  std::size_t events = 0;       // simulator events processed
};

class RoutingArchitecture {
 public:
  virtual ~RoutingArchitecture() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual DesignPoint design_point() const = 0;

  // Instantiate protocol nodes over a private copy of `topo`, start them,
  // and run the control plane to quiescence. May be called once.
  void build(const Topology& topo, const PolicySet& policies);

  // Apply a link state change and re-run to quiescence; returns the
  // re-convergence cost alone.
  ConvergenceStats perturb(LinkId link, bool up);

  // Trace the AD-level path of one flow through the data plane: the
  // outcome, and the hops taken (src..dst once delivered).
  [[nodiscard]] virtual Probe trace(const FlowSpec& flow) = 0;

  // Total control/forwarding state entries across all ADs (RIB routes,
  // FIB entries, flow caches, PR handles -- whatever the architecture
  // keeps to forward packets).
  [[nodiscard]] virtual std::size_t state_entries() const = 0;

  // Route computations performed (SPF runs / syntheses); 0 for protocols
  // whose computation is implicit in update processing.
  [[nodiscard]] virtual std::uint64_t computations() const = 0;

  // Per-data-packet header bytes on a path of the given length.
  [[nodiscard]] virtual std::size_t header_bytes(
      std::size_t path_len) const = 0;

  // True if the protocol can run on this topology at all (EGP cannot on
  // cyclic graphs).
  [[nodiscard]] virtual bool applicable(const Topology& topo) const {
    (void)topo;
    return true;
  }

  [[nodiscard]] const ConvergenceStats& initial_convergence() const noexcept {
    return initial_convergence_;
  }
  [[nodiscard]] Network& network() { return *net_; }
  [[nodiscard]] Topology& topo() { return topo_; }
  [[nodiscard]] const PolicySet& policies() const { return *policies_; }
  [[nodiscard]] bool built() const noexcept { return net_ != nullptr; }

 protected:
  // Subclass hook: attach one node per AD to network().
  virtual void attach_nodes() = 0;

  Topology topo_;  // private copy; protocols mutate link state through it
  const PolicySet* policies_ = nullptr;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<Network> net_;
  ConvergenceStats initial_convergence_;
};

const char* to_string(Algorithm a) noexcept;
const char* to_string(Decision d) noexcept;
const char* to_string(PolicyExpression p) noexcept;

}  // namespace idr
