// E-conv -- convergence behaviour after inter-AD topology change (paper
// §4.3, §5.1.1, §2.2).
//
// The paper's claims: distance vector converges slowly and counts to
// infinity; ECMA's partial ordering "prevents the count to infinity
// phenomenon" and yields rapid convergence whose effect "weakens for ADs
// farther away"; link state floods and settles. Replayed here on (a) a
// deliberately pathological cyclic topology, (b) Figure 1, and (c) a
// generated 64-AD internet, measuring messages and simulated time to
// re-quiescence after a link failure.
#include <cstdio>

#include "core/adapters.hpp"
#include "core/scenario.hpp"
#include "topology/generator.hpp"
#include "policy/generator.hpp"
#include "topology/figure1.hpp"
#include "util/table.hpp"

namespace {

using namespace idr;

struct Case {
  std::string name;
  Topology topo;
  PolicySet policies;
  LinkId cut;
};

Case pathological_ring() {
  // A ring of transit ADs: the classic bad case for plain DV.
  Case c;
  c.name = "ring-8";
  std::vector<AdId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(c.topo.add_ad(AdClass::kRegional, AdRole::kTransit));
  }
  for (int i = 0; i < 8; ++i) {
    c.topo.add_link(ids[static_cast<std::size_t>(i)],
                    ids[static_cast<std::size_t>((i + 1) % 8)],
                    LinkClass::kLateral);
  }
  c.policies = make_open_policies(c.topo);
  c.cut = *c.topo.find_link(ids[0], ids[1]);
  return c;
}

Case figure1_case() {
  Case c;
  c.name = "figure-1";
  Figure1 fig = build_figure1();
  c.topo = fig.topo;
  c.policies = make_open_policies(c.topo);
  c.cut = *c.topo.find_link(fig.backbone_west, fig.backbone_east);
  return c;
}

Case generated_case() {
  Case c;
  c.name = "generated-64";
  Prng prng(7);
  c.topo = generate_topology_of_size(64, prng);
  c.policies = make_open_policies(c.topo);
  // Cut the first backbone-backbone link.
  for (const Link& l : c.topo.links()) {
    if (c.topo.ad(l.a).cls == AdClass::kBackbone &&
        c.topo.ad(l.b).cls == AdClass::kBackbone) {
      c.cut = l.id;
      break;
    }
  }
  return c;
}

void report() {
  std::printf("== E-conv: reconvergence after a link failure ==\n\n");
  Table table({"topology", "architecture", "initial msgs", "reconv msgs",
               "reconv KB", "reconv time(ms)"});

  for (Case c : {pathological_ring(), figure1_case(), generated_case()}) {
    auto run = [&](std::unique_ptr<RoutingArchitecture> arch) {
      arch->build(c.topo, c.policies);
      const auto initial = arch->initial_convergence();
      const auto recon = arch->perturb(c.cut, false);
      table.add_row(
          {c.name, arch->name(),
           Table::integer(static_cast<long long>(initial.messages)),
           Table::integer(static_cast<long long>(recon.messages)),
           Table::num(static_cast<double>(recon.bytes) / 1024.0, 4),
           Table::num(recon.time_ms, 4)});
    };
    run(std::make_unique<DvArchitecture>(DvConfig{.split_horizon = false}));
    run(std::make_unique<DvArchitecture>(DvConfig{.split_horizon = true}));
    run(std::make_unique<EcmaArchitecture>());
    run(std::make_unique<IdrpArchitecture>());
    run(std::make_unique<LshhArchitecture>());
    run(std::make_unique<OrwgArchitecture>());
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Reading: on the ring, plain DV pays the count-to-infinity tax\n"
      "(compare its reconv msgs against every other row); the ECMA\n"
      "partial ordering and the path vector suppress it; link-state\n"
      "flooding (ls-hbh, orwg) settles in one flood. EGP is absent: every\n"
      "topology here is cyclic, which EGP's admission check rejects.\n");
}

}  // namespace

int main() {
  report();
  return 0;
}
