// Figure 1 -- "Example Internet Topology".
//
// Reproduces the paper's reference topology as a concrete instance and
// reports its census (AD classes, roles, link classes), plus the same
// census for generated internets at increasing scale, demonstrating the
// §2.1 model: hierarchy + persistent lateral and bypass links, stub /
// multi-homed / transit / hybrid roles, and the path diversity the
// non-hierarchical links create.
#include <cstdio>

#include "topology/algos.hpp"
#include "topology/figure1.hpp"
#include "topology/generator.hpp"
#include "util/table.hpp"

namespace {

using namespace idr;

void census_row(Table& table, const std::string& name, const Topology& t) {
  const DegreeStats deg = degree_stats(t);
  table.add_row({
      name,
      Table::integer(static_cast<long long>(t.ad_count())),
      Table::integer(static_cast<long long>(t.count_ads(AdClass::kBackbone))),
      Table::integer(static_cast<long long>(t.count_ads(AdClass::kRegional))),
      Table::integer(static_cast<long long>(t.count_ads(AdClass::kCampus))),
      Table::integer(static_cast<long long>(t.count_ads(AdRole::kStub))),
      Table::integer(
          static_cast<long long>(t.count_ads(AdRole::kMultiHomed))),
      Table::integer(static_cast<long long>(t.count_ads(AdRole::kHybrid))),
      Table::integer(static_cast<long long>(t.link_count())),
      Table::integer(
          static_cast<long long>(t.count_links(LinkClass::kLateral))),
      Table::integer(
          static_cast<long long>(t.count_links(LinkClass::kBypass))),
      Table::num(deg.mean, 3),
      has_cycle(t) ? "yes" : "no",
  });
}

void report() {
  std::printf("== Figure 1: example internet topology ==\n\n");
  Table table({"topology", "ADs", "bb", "reg", "campus", "stub", "mhomed",
               "hybrid", "links", "lateral", "bypass", "mean deg",
               "cyclic"});

  const Figure1 fig = build_figure1();
  census_row(table, "figure-1", fig.topo);
  for (std::uint32_t n : {64u, 256u, 1024u}) {
    Prng prng(1000 + n);
    census_row(table, "generated-" + std::to_string(n),
               generate_topology_of_size(n, prng));
  }
  std::printf("%s\n", table.render().c_str());

  // Path diversity created by lateral/bypass links (the property that
  // breaks EGP's tree assumption and motivates loop-free-by-design
  // routing).
  std::printf("Path diversity on figure-1 (edge-disjoint paths):\n");
  Table div({"pair", "disjoint paths", "shortest (ADs)"});
  const std::pair<AdId, AdId> pairs[] = {
      {fig.campus[0], fig.campus[6]},
      {fig.campus[2], fig.campus[4]},
      {fig.multihomed, fig.backbone_east},
      {fig.bypass_campus, fig.backbone_east},
  };
  for (const auto& [a, b] : pairs) {
    const auto sp = shortest_path_hops(fig.topo, a, b);
    div.add_row({fig.topo.ad(a).name + " <-> " + fig.topo.ad(b).name,
                 Table::integer(edge_disjoint_paths(fig.topo, a, b)),
                 sp ? Table::integer(static_cast<long long>(sp->size()))
                    : "inf"});
  }
  std::printf("%s\n", div.render().c_str());
}

}  // namespace

int main() {
  report();
  return 0;
}
