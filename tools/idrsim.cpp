// idrsim -- command-line front end to the inter-AD policy routing
// library: load a topology file and a policy file, run an architecture,
// and answer route queries / evaluate against the oracle / export DOT.
//
// Usage:
//   idrsim --topo t.topo [--policies p.pol] [--arch orwg] <command> ...
//
// Commands:
//   route <src> <dst> [qos] [uci] [hour]   trace a flow's path
//   oracle <src> <dst> [qos] [uci] [hour]  ground-truth best legal route
//   evaluate [flows]                       score the arch vs the oracle
//   census                                 topology statistics
//   dot <out.dot>                          Graphviz export
//
// Architectures: dv-plain dv-rip ls-ospf egp ecma idrp ls-hbh orwg dv-sr
//
// Example (one command):
//   idrsim --topo fig1.topo --policies aup.pol --arch orwg
//       route Campus-0 Campus-6 default research 12
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "core/adapters.hpp"
#include "core/metrics.hpp"
#include "core/oracle.hpp"
#include "core/scenario.hpp"
#include "policy/dsl.hpp"
#include "policy/generator.hpp"
#include "topology/algos.hpp"
#include "topology/dot.hpp"
#include "topology/parse.hpp"

namespace {

using namespace idr;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --topo FILE [--policies FILE] [--arch NAME] "
               "<route|oracle|evaluate|census|dot> ...\n",
               argv0);
  return 2;
}

std::string slurp(const std::string& path, bool& ok) {
  std::ifstream in(path);
  if (!in) {
    ok = false;
    return {};
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  ok = true;
  return buffer.str();
}

std::unique_ptr<RoutingArchitecture> make_arch(const std::string& name) {
  if (name == "dv-plain") {
    return std::make_unique<DvArchitecture>(DvConfig{.split_horizon = false});
  }
  if (name == "dv-rip") return std::make_unique<DvArchitecture>();
  if (name == "ls-ospf") return std::make_unique<LsArchitecture>();
  if (name == "egp") return std::make_unique<EgpArchitecture>();
  if (name == "ecma") return std::make_unique<EcmaArchitecture>();
  if (name == "idrp") return std::make_unique<IdrpArchitecture>();
  if (name == "ls-hbh") return std::make_unique<LshhArchitecture>();
  if (name == "orwg") return std::make_unique<OrwgArchitecture>();
  if (name == "dv-sr") return std::make_unique<DvsrArchitecture>();
  return nullptr;
}

std::optional<Qos> parse_qos(const std::string& s) {
  if (s == "default") return Qos::kDefault;
  if (s == "low-delay") return Qos::kLowDelay;
  if (s == "high-throughput") return Qos::kHighThroughput;
  if (s == "high-reliability") return Qos::kHighReliability;
  return std::nullopt;
}

std::optional<UserClass> parse_uci(const std::string& s) {
  if (s == "research") return UserClass::kResearch;
  if (s == "commercial") return UserClass::kCommercial;
  if (s == "government") return UserClass::kGovernment;
  return std::nullopt;
}

void print_path(const Topology& topo, const std::vector<AdId>& path) {
  for (std::size_t i = 0; i < path.size(); ++i) {
    std::printf("%s%s", i ? " > " : "", topo.ad(path[i]).name.c_str());
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string topo_path;
  std::string policy_path;
  std::string arch_name = "orwg";
  int i = 1;
  for (; i < argc; ++i) {
    if (std::strcmp(argv[i], "--topo") == 0 && i + 1 < argc) {
      topo_path = argv[++i];
    } else if (std::strcmp(argv[i], "--policies") == 0 && i + 1 < argc) {
      policy_path = argv[++i];
    } else if (std::strcmp(argv[i], "--arch") == 0 && i + 1 < argc) {
      arch_name = argv[++i];
    } else {
      break;
    }
  }
  if (topo_path.empty() || i >= argc) return usage(argv[0]);
  const std::string command = argv[i++];

  bool ok = false;
  const std::string topo_text = slurp(topo_path, ok);
  if (!ok) {
    std::fprintf(stderr, "cannot read %s\n", topo_path.c_str());
    return 1;
  }
  TopoParseResult parsed_topo = parse_topology(topo_text);
  if (std::holds_alternative<TopoParseError>(parsed_topo)) {
    std::fprintf(stderr, "%s: %s\n", topo_path.c_str(),
                 std::get<TopoParseError>(parsed_topo).describe().c_str());
    return 1;
  }
  Topology topo = std::get<Topology>(std::move(parsed_topo));

  PolicySet policies;
  if (policy_path.empty()) {
    policies = make_open_policies(topo);
  } else {
    const std::string policy_text = slurp(policy_path, ok);
    if (!ok) {
      std::fprintf(stderr, "cannot read %s\n", policy_path.c_str());
      return 1;
    }
    DslResult parsed = parse_policies(topo, policy_text);
    if (std::holds_alternative<DslError>(parsed)) {
      std::fprintf(stderr, "%s: %s\n", policy_path.c_str(),
                   std::get<DslError>(parsed).describe().c_str());
      return 1;
    }
    policies = std::get<PolicySet>(std::move(parsed));
  }

  auto parse_flow = [&](int base) -> std::optional<FlowSpec> {
    if (base + 1 >= argc) return std::nullopt;
    const auto src = find_ad_by_name(topo, argv[base]);
    const auto dst = find_ad_by_name(topo, argv[base + 1]);
    if (!src || !dst) {
      std::fprintf(stderr, "unknown AD name\n");
      return std::nullopt;
    }
    FlowSpec flow{*src, *dst};
    if (base + 2 < argc) {
      const auto qos = parse_qos(argv[base + 2]);
      if (!qos) {
        std::fprintf(stderr, "unknown qos\n");
        return std::nullopt;
      }
      flow.qos = *qos;
    }
    if (base + 3 < argc) {
      const auto uci = parse_uci(argv[base + 3]);
      if (!uci) {
        std::fprintf(stderr, "unknown uci\n");
        return std::nullopt;
      }
      flow.uci = *uci;
    }
    if (base + 4 < argc) {
      flow.hour = static_cast<std::uint8_t>(std::atoi(argv[base + 4]) % 24);
    }
    return flow;
  };

  if (command == "census") {
    std::printf("%zu ADs (%zu backbone, %zu regional, %zu metro, %zu campus)\n",
                topo.ad_count(), topo.count_ads(AdClass::kBackbone),
                topo.count_ads(AdClass::kRegional),
                topo.count_ads(AdClass::kMetro),
                topo.count_ads(AdClass::kCampus));
    std::printf("%zu links (%zu hierarchical, %zu lateral, %zu bypass)\n",
                topo.link_count(),
                topo.count_links(LinkClass::kHierarchical),
                topo.count_links(LinkClass::kLateral),
                topo.count_links(LinkClass::kBypass));
    std::printf("connected=%s cyclic=%s policy terms=%zu\n",
                is_connected(topo) ? "yes" : "no",
                has_cycle(topo) ? "yes" : "no", policies.total_terms());
    return 0;
  }

  if (command == "dot") {
    if (i >= argc) return usage(argv[0]);
    std::ofstream out(argv[i]);
    out << to_dot(topo);
    std::printf("wrote %s\n", argv[i]);
    return 0;
  }

  if (command == "oracle") {
    const auto flow = parse_flow(i);
    if (!flow) return usage(argv[0]);
    const Oracle oracle(topo, policies);
    const SynthesisResult best = oracle.best_route(*flow);
    if (!best.found()) {
      std::printf("no legal route (%s)\n",
                  best.outcome == SynthesisOutcome::kBudget ? "budget"
                                                            : "exhausted");
      return 3;
    }
    std::printf("cost=%llu expansions=%llu\n",
                static_cast<unsigned long long>(best.cost),
                static_cast<unsigned long long>(best.expansions));
    print_path(topo, best.path);
    return 0;
  }

  auto arch = make_arch(arch_name);
  if (!arch) {
    std::fprintf(stderr, "unknown architecture '%s'\n", arch_name.c_str());
    return 1;
  }
  if (!arch->applicable(topo)) {
    std::fprintf(stderr, "%s is not applicable to this topology\n",
                 arch_name.c_str());
    return 1;
  }

  if (command == "route") {
    const auto flow = parse_flow(i);
    if (!flow) return usage(argv[0]);
    arch->build(topo, policies);
    const Probe probe = arch->trace(*flow);
    if (probe.outcome == ProbeOutcome::kLooped) {
      std::printf("forwarding LOOPED\n");
      return 3;
    }
    if (probe.outcome != ProbeOutcome::kDelivered) {
      std::printf("no route\n");
      return 3;
    }
    const Oracle oracle(topo, policies);
    std::printf("legal=%s\n",
                oracle.is_legal(*flow, probe.path) ? "yes" : "NO");
    print_path(topo, probe.path);
    return 0;
  }

  if (command == "evaluate") {
    std::size_t flow_count = 64;
    if (i < argc) flow_count = static_cast<std::size_t>(std::atoi(argv[i]));
    Prng prng(1);
    const auto flows = sample_flows(topo, flow_count, prng);
    const ArchEvaluation eval =
        evaluate_architecture(*arch, topo, policies, flows);
    std::printf(
        "%s (%s)\n  flows=%zu oracle-routable=%zu found=%zu legal=%zu "
        "illegal=%zu looped=%zu missed=%zu availability=%.3f\n"
        "  convergence: %llu msgs, %.1f KB, t=%.1f ms; state=%zu "
        "computations=%llu\n",
        eval.arch.c_str(), eval.design_point.c_str(), eval.flows,
        eval.oracle_routes, eval.found, eval.legal, eval.illegal,
        eval.looped, eval.missed, eval.availability(),
        static_cast<unsigned long long>(eval.convergence.messages),
        static_cast<double>(eval.convergence.bytes) / 1024.0,
        eval.convergence.time_ms, eval.state,
        static_cast<unsigned long long>(eval.computations));
    return 0;
  }

  return usage(argv[0]);
}
