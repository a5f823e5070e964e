// Engine equivalence: every alternative backend must be observationally
// identical to the sequential reference. Two axes are cross-checked:
//
//  * scheduler: the calendar queue vs the reference binary heap, both
//    promising the same total order on (time, stream, seq);
//  * execution: the sharded-parallel engine (conservative lookahead
//    windows, 2/4/8 shards, inline and threaded) vs the sequential run.
//
// An entire differential run -- four design points, scripted
// churn/crash/Byzantine schedules, seeded message faults,
// invariant-monitor sweeps -- must come out byte-identical: every flow
// classification count, every violation record, every invariant finding,
// the counter fingerprints and the event totals. Any drift at all means
// a backend reordered two events and is not a drop-in replacement.
//
// The simtest cases never turn on graceful restart, overload queues,
// damping or hold-down, so a third axis runs each of those features on
// the 1e3-AD scale profile, sequential vs sharded: feature x backend.
#include <gtest/gtest.h>

#include <cstdint>
#include <iomanip>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/chaos.hpp"
#include "core/design_harness.hpp"
#include "core/scale_profile.hpp"
#include "sim/engine.hpp"
#include "sim/failure.hpp"
#include "sim/invariants.hpp"
#include "simtest/differential.hpp"
#include "simtest/scenario_generator.hpp"
#include "simtest/simcase.hpp"

namespace idr {
namespace {

constexpr std::uint64_t kSeeds = 32;  // acceptance floor: >= 32 seeds

void append_flow(std::ostringstream& out, const FlowSpec& flow) {
  out << flow.src.v << ">" << flow.dst.v << "/"
      << static_cast<int>(flow.qos) << "/" << static_cast<int>(flow.uci)
      << "/" << static_cast<int>(flow.hour);
}

// Full observable surface of one differential run, serialized. Two runs
// are equivalent iff these strings match byte for byte.
std::string transcript(const DiffResult& result) {
  std::ostringstream out;
  out << result.name << " seed=" << result.seed << "\n";
  for (const ArchDiffResult& a : result.archs) {
    out << a.arch << " flows=" << a.flows_total
        << " skipped=" << a.flows_skipped
        << " delivered=" << a.delivered_legal
        << " no-route=" << a.agreed_no_route
        << " expected=" << a.expected_divergences
        << " unknown=" << a.unknown << " fingerprint=" << a.fingerprint
        << " events=" << a.events_processed << "\n";
    for (const DiffFinding& v : a.violations) {
      out << "  violation " << to_string(v.kind) << " ";
      append_flow(out, v.flow);
      out << " path=[";
      for (const AdId hop : v.path) out << hop.v << " ";
      out << "] " << v.detail << "\n";
    }
    const InvariantStats& inv = a.invariants;
    out << "  invariants sweeps=" << inv.sweeps << " probes=" << inv.probes
        << " transient=" << inv.transient_loops << ","
        << inv.transient_black_holes << "," << inv.transient_stale_routes
        << " persistent=" << inv.persistent_loops << ","
        << inv.persistent_black_holes << "," << inv.persistent_stale_routes
        << "\n";
  }
  return out.str();
}

std::string run_transcript(std::uint64_t seed, DiffOptions options) {
  // Same-seed determinism of one backend is test_simtest's job; here
  // every run budget goes to the cross-backend comparison.
  options.check_determinism = false;
  return transcript(
      run_differential(generate_sim_case({.seed = seed}), options));
}

// The transcript of `seed` on `shards` inline shards (1 = the sequential
// calendar run, the reference), computed once per binary and shared by
// every comparison that needs it.
const std::string& inline_transcript(std::uint64_t seed,
                                     std::uint32_t shards) {
  static std::map<std::pair<std::uint64_t, std::uint32_t>, std::string>
      cache;
  const auto [it, fresh] = cache.try_emplace({seed, shards});
  if (fresh) {
    DiffOptions options;
    options.shards = shards;
    it->second = run_transcript(seed, options);
  }
  return it->second;
}

TEST(EngineEquivalence, CalendarAndHeapRunsAreByteIdentical) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE(seed);
    DiffOptions heap;
    heap.scheduler = SchedulerKind::kBinaryHeap;
    EXPECT_EQ(inline_transcript(seed, 1), run_transcript(seed, heap));
  }
}

TEST(EngineEquivalence, ShardedRunsAreByteIdenticalToSequential) {
  // The tentpole equivalence claim: for every seed and every shard count
  // the conservatively synchronized parallel engine produces the exact
  // sequential transcript. Shard count 1 is the sequential run itself;
  // 2/4/8 partition the case topology and drive the windows inline (the
  // threaded path is covered below -- it executes the same windows).
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE(seed);
    for (const std::uint32_t shards : {2u, 4u, 8u}) {
      SCOPED_TRACE(shards);
      EXPECT_EQ(inline_transcript(seed, shards), inline_transcript(seed, 1));
    }
  }
}

TEST(EngineEquivalence, ThreadedShardsMatchInlineShards) {
  // Real worker threads execute the same per-window schedule the inline
  // coordinator does; a handful of seeds here keeps the TSan job honest
  // without re-running the whole matrix under contention.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    for (const unsigned threads : {2u, 4u}) {
      SCOPED_TRACE(threads);
      DiffOptions options;
      options.shards = 4;
      options.threads = threads;
      EXPECT_EQ(run_transcript(seed, options), inline_transcript(seed, 4));
    }
  }
}

TEST(EngineEquivalence, MinimumLookaheadStressesTheWindowBoundary) {
  // Shrink the window lookahead to (nearly) the minimum legal value so
  // every window closes right at the next event: cross-shard deliveries
  // land exactly on window edges, the case the conservative-sync proof
  // leans on hardest. The transcript must still be byte-identical.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    DiffOptions options;
    options.shards = 4;
    options.lookahead_ms = 1e-3;  // far below any real link delay
    EXPECT_EQ(run_transcript(seed, options), inline_transcript(seed, 1));
  }
}

TEST(EngineEquivalence, TranscriptIsSensitiveToTheObservables) {
  // Guard the guard: the transcript must actually distinguish differing
  // results, or the test above proves nothing.
  DiffResult a;
  a.archs.emplace_back();
  a.archs.back().arch = "ecma";
  a.archs.back().fingerprint = 1;
  DiffResult b = a;
  b.archs.back().fingerprint = 2;
  EXPECT_NE(transcript(a), transcript(b));
  b = a;
  b.archs.back().violations.push_back(
      DiffFinding{"ecma", DiffViolation::kLoop, {}, {}, ""});
  EXPECT_NE(transcript(a), transcript(b));
  b = a;
  b.archs.back().invariants.persistent_loops = 1;
  EXPECT_NE(transcript(a), transcript(b));
}

// --- feature x backend, on the 1e3-AD scale profile ---------------------

constexpr std::uint64_t kProfileSeed = 0x5ca1eULL;

TEST(EngineEquivalence, ShardedClockAfterRunMatchesSequential) {
  // A drained run leaves the clock at its last event on every backend,
  // so a driver that schedules from now() after run() (a storm onset,
  // a convergence time) sees the same instant sharded as sequential.
  const ScaleProfile profile = make_scale_profile(1'000, kProfileSeed);
  for (const std::string& arch : design_point_names()) {
    SCOPED_TRACE(arch);
    SimTime sequential = -1.0;
    for (const std::uint32_t shards : {1u, 4u, 8u}) {
      SCOPED_TRACE(shards);
      Topology topo = profile.topo;
      Engine engine;
      apply_engine_backend(engine, topo, {.shards = shards});
      Network net(engine, topo);
      const Network::NodeFactory factory = make_design_factory(
          arch, topo, profile.policies, &profile.order,
          scale_design_config(profile));
      for (const Ad& ad : topo.ads()) net.attach(ad.id, factory(ad.id));
      net.start_all();
      engine.run();
      if (shards == 1) sequential = engine.now();
      EXPECT_EQ(engine.now(), sequential);
    }
  }
}

// The storm features, each on the design family that has it.
enum class Feature : std::uint8_t {
  kRestartGrOverload,  // restart storm, graceful restart + ingress queues
  kDampedFlap,         // DV flap storm with route-flap damping
  kHeldDownFlap,       // LS flap storm with origination hold-down
};

struct StormRun {
  // Every observable, serialized after the cold start and after the
  // storm drains.
  std::string transcript;
  OverloadStats queue;
  std::uint64_t gr_recoveries = 0;
};

// One storm over the 1e3-AD scale profile on `backend`, assembled from
// the pieces run_scale_chaos uses, its storm schedule included (no
// invariant monitor: the observables are the network's own).
StormRun run_storm(const std::string& arch, Feature feature,
                   const EngineBackend& backend) {
  ScaleProfile profile = make_scale_profile(1'000, kProfileSeed);
  Topology& topo = profile.topo;
  Engine engine;
  apply_engine_backend(engine, topo, backend);
  Network net(engine, topo);
  DesignConfig config = scale_design_config(profile);
  if (feature == Feature::kDampedFlap) {
    config.ecma.damping = {.enabled = true, .half_life_ms = 500.0};
    config.idrp.damping = config.ecma.damping;
  }
  if (feature == Feature::kHeldDownFlap) {
    config.lshh.link_holddown_ms = 150.0;
    config.orwg.link_holddown_ms = 150.0;
  }
  const Network::NodeFactory factory = make_design_factory(
      arch, topo, profile.policies, &profile.order, config);
  net.set_node_factory(factory);
  for (const Ad& ad : topo.ads()) net.attach(ad.id, factory(ad.id));
  const bool restart = feature == Feature::kRestartGrOverload;
  if (restart) {
    net.set_crash_notifications(true);
    net.set_graceful_restart({.enabled = true, .grace_ms = 2'000.0});
  }
  net.start_all();

  std::ostringstream out;
  out << std::setprecision(17);
  const auto snapshot = [&](const char* phase) {
    const Counters total = net.total();
    const OverloadStats q = net.overload_stats();
    out << phase << ": now=" << engine.now()
        << " last_delivery=" << net.last_delivery_time()
        << " events=" << engine.events_processed()
        << " msgs=" << total.msgs_sent << "/" << total.msgs_delivered << "/"
        << total.msgs_dropped
        << " fingerprint=" << counter_fingerprint(net, topo)
        << " queue=" << q.enqueued << "/" << q.served << "/" << q.peak_depth
        << "/" << q.cleared_on_crash << " dropped=" << q.dropped[0] << ","
        << q.dropped[1] << "," << q.dropped[2] << "," << q.dropped[3]
        << " gr=" << net.gr_recoveries() << "/" << net.gr_flushes() << "\n";
  };
  engine.run();
  snapshot("converged");

  // run_scale_chaos's restart storm (crashes down 300 ms, so recovery
  // lands inside the 2 s grace window) or flap storm.
  if (restart) net.set_overload({.queue_limit = 64});
  FailureInjector injector(net);
  schedule_storm({.seed = kProfileSeed,
                  .storm = restart ? StormFamily::kRestartStorm
                                   : StormFamily::kFlapStorm},
                 profile, injector, engine.now() + 200.0);
  engine.run();
  snapshot("storm");
  return {out.str(), net.overload_stats(), net.gr_recoveries()};
}

TEST(EngineEquivalence, StormFeaturesAreByteIdenticalOnEveryBackend) {
  struct Cell {
    const char* arch;
    Feature feature;
  };
  const Cell cells[] = {
      {"ecma", Feature::kRestartGrOverload},
      {"idrp", Feature::kRestartGrOverload},
      {"ls-hbh", Feature::kRestartGrOverload},
      {"orwg", Feature::kRestartGrOverload},
      {"ecma", Feature::kDampedFlap},
      {"idrp", Feature::kDampedFlap},
      {"ls-hbh", Feature::kHeldDownFlap},
      {"orwg", Feature::kHeldDownFlap},
  };
  for (const Cell& cell : cells) {
    SCOPED_TRACE(std::string(cell.arch) + " feature " +
                 std::to_string(static_cast<int>(cell.feature)));
    const StormRun reference = run_storm(cell.arch, cell.feature, {});
    // 4 shards with inline windows, then on 2 worker threads.
    for (const unsigned threads : {0u, 2u}) {
      SCOPED_TRACE(threads);
      EXPECT_EQ(run_storm(cell.arch, cell.feature,
                          {.shards = 4, .threads = threads})
                    .transcript,
                reference.transcript);
    }
    if (cell.feature == Feature::kRestartGrOverload) {
      // Both features engaged, or the cell would prove nothing.
      EXPECT_GT(reference.queue.enqueued, 0u) << reference.transcript;
      EXPECT_GT(reference.gr_recoveries, 0u) << reference.transcript;
    }
  }
}

}  // namespace
}  // namespace idr
