// Paper-scale soak (soak label; CI's fast lane skips it with -LE soak):
// stand up the 1e4-AD hierarchical scale profile, converge all four
// design points on the calendar-queue engine, and hold them to the same
// bar as the small-world tests -- an invariant-monitor sweep over
// stub->beacon probes must find zero persistent violations (no loops, no
// black holes, no stale routes), and the whole run must fit in a bounded
// memory footprint.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <memory>
#include <string>

#include "core/design_harness.hpp"
#include "core/scale_profile.hpp"
#include "sim/engine.hpp"
#include "sim/invariants.hpp"
#include "sim/network.hpp"

namespace idr {
namespace {

constexpr std::uint32_t kTargetAds = 10'000;
constexpr std::uint64_t kProfileSeed = 0x5ca1eULL;  // the scale matrix's
constexpr std::size_t kSamplePairs = 128;
// Process-wide peak-RSS ceiling. The full four-arch sweep at 1e4 ADs
// peaks near 210 MB (BENCH_scale.json); 1 GiB leaves headroom without
// letting a superlinear regression through.
constexpr long kMaxRssKb = 1'048'576;

long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;  // KiB on Linux
}

TEST(ScaleSoak, AllDesignPointsConvergeCleanAtTenThousandAds) {
  ScaleProfile profile = make_scale_profile(kTargetAds, kProfileSeed);
  ASSERT_GE(profile.topo.ad_count(), kTargetAds * 9 / 10);

  for (const std::string& arch : design_point_names()) {
    SCOPED_TRACE(arch);
    Engine engine(SchedulerKind::kCalendar);
    Network net(engine, profile.topo);
    const auto factory = make_scale_factory(arch, profile);
    net.set_node_factory(factory);
    for (const Ad& ad : profile.topo.ads()) {
      net.attach(ad.id, factory(ad.id));
    }
    net.start_all();
    engine.run();
    ASSERT_TRUE(engine.empty()) << "did not converge";

    // Post-convergence sweep: sampled sources to beacon destinations
    // (the only originated DV destinations at paper scale). No faults
    // were injected, so any violation is persistent by definition.
    InvariantConfig config;
    config.sample_pairs = kSamplePairs;
    config.dst_pool = profile.beacons;
    const auto probe = make_design_probe(arch, net, profile.topo);
    InvariantMonitor monitor(net, config,
                             [&probe](AdId src, AdId dst) {
                               FlowSpec flow;
                               flow.src = src;
                               flow.dst = dst;
                               return probe(flow);
                             });
    monitor.sweep();
    const InvariantStats& stats = monitor.stats();
    EXPECT_EQ(stats.persistent_violations(), 0u);
    EXPECT_EQ(stats.transient_violations(), 0u);
    EXPECT_GE(stats.probes, kSamplePairs / 2);  // src==dst pairs skip
  }

  EXPECT_LT(peak_rss_kb(), kMaxRssKb);
}

}  // namespace
}  // namespace idr
