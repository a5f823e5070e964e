// E-setup -- Policy Route setup cost and header amortization (paper
// §5.4.1).
//
// The paper's design avoids "the latency of the Policy Route setup
// process and the header-length overhead of the source route" by
// assigning a handle at setup time. This bench sends flows of increasing
// length over ORWG and reports the measured setup latency, per-packet
// overhead amortized over the flow, and the comparison against (a) a
// naive source-routing data plane that carries the full route in every
// packet (dv-sr style) and (b) the fixed hop-by-hop header.
#include <cstdio>

#include "core/adapters.hpp"
#include "core/scenario.hpp"
#include "policy/generator.hpp"
#include "topology/figure1.hpp"
#include "util/table.hpp"

namespace {

using namespace idr;

void report() {
  std::printf("== E-setup: PR setup amortization and header overhead ==\n\n");

  Figure1 fig = build_figure1();
  const PolicySet policies = make_open_policies(fig.topo);

  OrwgArchitecture orwg;
  orwg.build(fig.topo, policies);
  DvsrArchitecture dvsr;
  IdrpArchitecture idrp;

  const FlowSpec flow{fig.campus[0], fig.campus[6]};
  const auto route = orwg.trace(flow);
  const std::size_t path_len =
      route.outcome == ProbeOutcome::kDelivered ? route.path.size() : 6;
  std::printf("flow %s, policy route of %zu ADs\n\n",
              flow.describe(fig.topo).c_str(), path_len);

  Table table({"packets in flow", "setup latency(ms)",
               "orwg bytes/pkt (amortized)", "dv-sr bytes/pkt",
               "idrp hbh bytes/pkt", "PG validations"});
  for (const std::uint32_t packets : {1u, 10u, 100u, 1000u}) {
    // Fresh network per row so setup happens exactly once.
    OrwgArchitecture arch;
    arch.build(fig.topo, policies);
    auto* src = arch.nodes()[flow.src.v];
    auto* dst = arch.nodes()[flow.dst.v];
    arch.network().reset_counters();
    src->send_flow(flow, packets);
    arch.network().engine().run();

    const double setup_ms = src->setup_latency_ms().count() > 0
                                ? src->setup_latency_ms().mean()
                                : 0.0;
    // Overhead = header bytes per data packet + setup packets amortized.
    const double orwg_per_pkt =
        static_cast<double>(arch.setup_header_bytes(path_len)) /
            static_cast<double>(packets) +
        static_cast<double>(arch.header_bytes(path_len));
    std::uint64_t validations = 0;
    for (OrwgNode* node : arch.nodes()) {
      validations += node->gateway().data_validated();
    }
    table.add_row({
        Table::integer(packets),
        Table::num(setup_ms, 4),
        Table::num(orwg_per_pkt, 4),
        Table::integer(static_cast<long long>(dvsr.header_bytes(path_len))),
        Table::integer(static_cast<long long>(idrp.header_bytes(path_len))),
        Table::integer(static_cast<long long>(validations)),
    });
    if (dst->delivered() != packets) {
      std::printf("WARNING: delivered %llu of %u packets\n",
                  static_cast<unsigned long long>(dst->delivered()), packets);
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Reading: the setup packet's source-route header is paid once; by\n"
      "~10 packets the handle scheme beats carrying the route in every\n"
      "packet (dv-sr column), approaching the fixed hop-by-hop header\n"
      "while preserving source control. Setup latency equals one RTT over\n"
      "the policy route, as the paper's virtual-circuit analogy implies.\n");
}

}  // namespace

int main() {
  report();
  return 0;
}
