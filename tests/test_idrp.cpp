#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <set>

#include "core/scale_profile.hpp"
#include "flap_storm.hpp"
#include "policy/generator.hpp"
#include "proto/dvsr/dvsr_node.hpp"
#include "proto/idrp/idrp_node.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "topology/figure1.hpp"

namespace idr {
namespace {

TEST(HourMask, PlainAndWrappedWindows) {
  const std::uint32_t business = hour_window_mask(8, 18);
  EXPECT_TRUE(business & (1u << 8));
  EXPECT_TRUE(business & (1u << 18));
  EXPECT_FALSE(business & (1u << 7));
  const std::uint32_t night = hour_window_mask(22, 4);
  EXPECT_TRUE(night & (1u << 23));
  EXPECT_TRUE(night & (1u << 0));
  EXPECT_FALSE(night & (1u << 12));
  EXPECT_EQ(hour_window_mask(0, 23), kAllHoursMask);
}

TEST(RouteAttrs, PermitsChecksEveryDimension) {
  RouteAttrs attrs;
  attrs.sources = AdSet::of({AdId{1}});
  attrs.qos_mask = qos_bit(Qos::kDefault);
  attrs.uci_mask = uci_bit(UserClass::kResearch);
  attrs.hour_mask = hour_window_mask(8, 18);
  FlowSpec ok{AdId{1}, AdId{9}, Qos::kDefault, UserClass::kResearch, 12};
  EXPECT_TRUE(attrs.permits(ok));
  FlowSpec wrong_src = ok;
  wrong_src.src = AdId{2};
  EXPECT_FALSE(attrs.permits(wrong_src));
  FlowSpec wrong_hour = ok;
  wrong_hour.hour = 3;
  EXPECT_FALSE(attrs.permits(wrong_hour));
}

TEST(RouteAttrs, CoversIsSupersetRelation) {
  RouteAttrs wide;  // any/any/any
  RouteAttrs narrow;
  narrow.sources = AdSet::of({AdId{1}});
  narrow.qos_mask = 1;
  EXPECT_TRUE(wide.covers(narrow));
  EXPECT_FALSE(narrow.covers(wide));
  EXPECT_TRUE(wide.covers(wide));
}

TEST(RouteAttrs, UsableRejectsEmptyDimensions) {
  RouteAttrs attrs;
  EXPECT_TRUE(attrs.usable());
  attrs.qos_mask = 0;
  EXPECT_FALSE(attrs.usable());
  attrs.qos_mask = kAllQosMask;
  attrs.sources = AdSet::none();
  EXPECT_FALSE(attrs.usable());
}

class IdrpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fig_ = build_figure1();
    policies_ = make_open_policies(fig_.topo);
  }

  void run(IdrpConfig config = {}) {
    net_ = std::make_unique<Network>(engine_, fig_.topo);
    for (const Ad& ad : fig_.topo.ads()) {
      auto node = std::make_unique<IdrpNode>(&policies_, config);
      nodes_.push_back(node.get());
      net_->attach(ad.id, std::move(node));
    }
    net_->start_all();
    engine_.run();
  }

  std::optional<std::vector<AdId>> route(const FlowSpec& flow) {
    std::vector<AdId> path{flow.src};
    AdId cur = flow.src;
    std::size_t guard = 0;
    while (cur != flow.dst) {
      if (++guard > fig_.topo.ad_count()) return std::nullopt;
      const auto next = nodes_[cur.v]->forward(flow);
      if (!next) return std::nullopt;
      path.push_back(*next);
      cur = *next;
    }
    return path;
  }

  Figure1 fig_;
  PolicySet policies_;
  Engine engine_;
  std::unique_ptr<Network> net_;
  std::vector<IdrpNode*> nodes_;
};

TEST_F(IdrpTest, ConvergesAndRoutesAcrossBackbones) {
  run();
  FlowSpec flow{fig_.campus[0], fig_.campus[6]};
  const auto path = route(flow);
  ASSERT_TRUE(path.has_value());
  EXPECT_TRUE(policies_.path_is_legal(fig_.topo, flow, *path));
}

TEST_F(IdrpTest, PathsNeverContainLoops) {
  run();
  for (const Ad& src : fig_.topo.ads()) {
    for (const Ad& dst : fig_.topo.ads()) {
      if (src.id == dst.id) continue;
      FlowSpec flow{src.id, dst.id};
      const auto path = route(flow);
      if (!path) continue;
      std::set<std::uint32_t> seen;
      for (AdId ad : *path) EXPECT_TRUE(seen.insert(ad.v).second);
    }
  }
}

TEST_F(IdrpTest, StubsNeverTransit) {
  run();
  for (const Ad& src : fig_.topo.ads()) {
    for (const Ad& dst : fig_.topo.ads()) {
      if (src.id == dst.id) continue;
      const auto path = route(FlowSpec{src.id, dst.id});
      if (!path) continue;
      for (std::size_t i = 1; i + 1 < path->size(); ++i) {
        EXPECT_TRUE(fig_.topo.can_transit((*path)[i]));
      }
    }
  }
}

TEST_F(IdrpTest, AupPolicyBlocksCommercialTraffic) {
  apply_aup(policies_, fig_.backbone_west);
  apply_aup(policies_, fig_.backbone_east);
  run();
  // Research traffic crosses the backbones; commercial traffic cannot
  // (and no alternative path exists between west and east campuses).
  FlowSpec research{fig_.campus[0], fig_.campus[7], Qos::kDefault,
                    UserClass::kResearch, 12};
  FlowSpec commercial{fig_.campus[0], fig_.campus[7], Qos::kDefault,
                      UserClass::kCommercial, 12};
  EXPECT_TRUE(route(research).has_value());
  EXPECT_FALSE(route(commercial).has_value());
}

TEST_F(IdrpTest, SourceSpecificTransitRespected) {
  // BB-East only carries traffic sourced by campus0.
  policies_.clear_terms(fig_.backbone_east);
  PolicyTerm t = open_transit_term(fig_.backbone_east);
  t.sources = AdSet::of({fig_.campus[0]});
  policies_.add_term(t);
  run();
  FlowSpec allowed{fig_.campus[0], fig_.campus[7]};
  FlowSpec denied{fig_.campus[1], fig_.campus[7]};
  const auto ok = route(allowed);
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(policies_.path_is_legal(fig_.topo, allowed, *ok));
  // campus1 can still reach campus7? Only via BB-East... the lateral
  // campus1--campus2 link does not help (campus2 is a stub). So denied.
  EXPECT_FALSE(route(denied).has_value());
}

TEST_F(IdrpTest, ReconvergesAfterLinkFailure) {
  run();
  FlowSpec flow{fig_.campus[0], fig_.campus[6]};
  ASSERT_TRUE(route(flow).has_value());
  net_->set_link_state(
      *fig_.topo.find_link(fig_.backbone_west, fig_.backbone_east), false);
  engine_.run();
  const auto path = route(flow);
  ASSERT_TRUE(path.has_value());
  EXPECT_TRUE(policies_.path_is_legal(fig_.topo, flow, *path));
  // Must now cross the Reg-1 -- Reg-2 lateral link.
  bool lateral = false;
  for (std::size_t i = 0; i + 1 < path->size(); ++i) {
    if (((*path)[i] == fig_.regional[1] && (*path)[i + 1] == fig_.regional[2]) ||
        ((*path)[i] == fig_.regional[2] && (*path)[i + 1] == fig_.regional[1])) {
      lateral = true;
    }
  }
  EXPECT_TRUE(lateral);
}

TEST_F(IdrpTest, RoutesPerDestCapBounds) {
  IdrpConfig config;
  config.routes_per_dest = 1;
  run(config);
  for (IdrpNode* node : nodes_) {
    for (const Ad& ad : fig_.topo.ads()) {
      EXPECT_LE(node->routes_for(ad.id), 1u);
    }
  }
}

TEST_F(IdrpTest, RibCountsPositiveAfterConvergence) {
  run();
  for (IdrpNode* node : nodes_) {
    EXPECT_GT(node->loc_rib_routes(), 0u);
  }
}

class DvsrTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fig_ = build_figure1();
    policies_ = make_open_policies(fig_.topo);
    net_ = std::make_unique<Network>(engine_, fig_.topo);
    for (const Ad& ad : fig_.topo.ads()) {
      auto node = std::make_unique<DvsrNode>(&policies_);
      nodes_.push_back(node.get());
      net_->attach(ad.id, std::move(node));
    }
  }
  void converge() {
    net_->start_all();
    engine_.run();
  }

  Figure1 fig_;
  PolicySet policies_;
  Engine engine_;
  std::unique_ptr<Network> net_;
  std::vector<DvsrNode*> nodes_;
};

TEST_F(DvsrTest, ProducesLegalSourceRoutes) {
  converge();
  FlowSpec flow{fig_.campus[0], fig_.campus[6]};
  const auto path = nodes_[fig_.campus[0].v]->source_route(flow);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->front(), flow.src);
  EXPECT_EQ(path->back(), flow.dst);
  EXPECT_TRUE(policies_.path_is_legal(fig_.topo, flow, *path));
}

TEST_F(DvsrTest, HonorsPrivateAvoidList) {
  // The source refuses BB-West; hop-by-hop IDRP cannot honor this (the
  // criteria are private), but the DV+SR hybrid can -- if an advertised
  // candidate avoids it.
  policies_.source_policy(fig_.campus[0]).avoid.push_back(
      fig_.backbone_west);
  converge();
  FlowSpec flow{fig_.campus[0], fig_.campus[2]};
  const auto path = nodes_[fig_.campus[0].v]->source_route(flow);
  if (path.has_value()) {
    for (AdId ad : *path) EXPECT_NE(ad, fig_.backbone_west);
  }
}

TEST_F(DvsrTest, LimitedToAdvertisedCandidates) {
  // The paper's point (§5.5.2): the source only chooses among advertised
  // paths. With routes_per_dest = 1 the candidate set collapses and an
  // avoid-constrained source may find nothing even though a legal
  // alternative exists in the topology.
  policies_.source_policy(fig_.campus[0]).avoid.push_back(
      fig_.backbone_west);
  converge();
  FlowSpec flow{fig_.campus[0], fig_.campus[6]};
  const auto path = nodes_[fig_.campus[0].v]->source_route(flow);
  // campus0 sits under Reg-0 whose only parent is BB-West; every route
  // east must cross it, so no candidate qualifies.
  EXPECT_FALSE(path.has_value());
}

// --- the selection work gate ----------------------------------------------

// Per-destination selections summed over every AD: once the cold start
// drains, and over the flap storm after it.
struct SelectionPin {
  std::uint64_t converged = 0;
  std::uint64_t storm = 0;
  friend bool operator==(const SelectionPin&, const SelectionPin&) = default;
};

std::ostream& operator<<(std::ostream& os, const SelectionPin& pin) {
  return os << "{" << pin.converged << ", " << pin.storm << "}";
}

// An update reselects only the destinations whose routes it changed. On
// the 1e3-AD scale profile (cold start, then run_flap_storm) the counts
// are pinned exactly, and a storm update's selections are bounded far
// below a full reselect's one per loc-RIB destination: a build that
// reselects everything makes 64.1 per storm update here, this one 4.0.
TEST(IdrpSelectionGate, ScaleProfileColdStartAndFlapStorm) {
  ScaleProfile profile = make_scale_profile(1'000, kBenchProfileSeed);
  Engine engine;
  Network net(engine, profile.topo);
  const Network::NodeFactory factory = make_scale_factory("idrp", profile);
  for (const Ad& ad : profile.topo.ads()) net.attach(ad.id, factory(ad.id));
  const auto selections = [&] {
    std::uint64_t n = 0;
    for (const Ad& ad : profile.topo.ads()) {
      n += static_cast<const IdrpNode*>(net.node(ad.id))->selections();
    }
    return n;
  };
  net.start_all();
  engine.run();
  const std::uint64_t converged = selections();
  const std::uint64_t delivered = net.total().msgs_delivered;
  run_flap_storm(net, engine, profile.topo);
  const std::uint64_t storm_updates = net.total().msgs_delivered - delivered;
  const SelectionPin got{converged, selections() - converged};
  EXPECT_EQ(got, (SelectionPin{68700, 25923}));
  ASSERT_GT(storm_updates, 0u);
  EXPECT_LE(got.storm, 8 * storm_updates)
      << got.storm << " selections for " << storm_updates << " updates";
}

}  // namespace
}  // namespace idr
