// Deterministic simulation testing: SimCase serialization round-trips,
// same-seed determinism of the differential runner, detection and
// shrinking of a seeded known-bad defect, structured invariant findings,
// and replay of the golden reproducer corpus in data/simtest/.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "pins.hpp"
#include "sim/invariants.hpp"
#include "simtest/differential.hpp"
#include "simtest/scenario_generator.hpp"
#include "simtest/shrink.hpp"
#include "simtest/simcase.hpp"

namespace idr {
namespace {

std::string read_corpus(const std::string& name) {
  const std::string path = std::string(IDR_DATA_DIR) + "/simtest/" + name;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << "missing corpus file " << path;
  if (!f) return {};
  std::string text;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, got);
  std::fclose(f);
  return text;
}

SimCase parse_ok(const std::string& text) {
  SimCaseParseResult parsed = parse_sim_case(text);
  const auto* err = std::get_if<SimCaseParseError>(&parsed);
  EXPECT_EQ(err, nullptr) << (err ? err->describe() : "");
  if (err) return {};
  return std::get<SimCase>(std::move(parsed));
}

bool has_signature(const DiffResult& result, const std::string& sig) {
  const auto sigs = result.signatures();
  return std::find(sigs.begin(), sigs.end(), sig) != sigs.end();
}

// --- serialization -----------------------------------------------------

TEST(SimCaseFormat, RoundTripIsByteIdentical) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(seed);
    SimCaseParams params;
    params.seed = seed;
    const SimCase original = generate_sim_case(params);
    const std::string first = format_sim_case(original);
    const SimCase reparsed = parse_ok(first);
    EXPECT_EQ(format_sim_case(reparsed), first);

    EXPECT_EQ(reparsed.name, original.name);
    EXPECT_EQ(reparsed.seed, original.seed);
    EXPECT_EQ(reparsed.horizon_ms, original.horizon_ms);
    EXPECT_EQ(reparsed.topo.ad_count(), original.topo.ad_count());
    EXPECT_EQ(reparsed.topo.link_count(), original.topo.link_count());
    EXPECT_EQ(reparsed.flows, original.flows);
    // %g rounds generated event times to 6 significant digits, so text,
    // not the in-memory double, is the canonical form: after one
    // canonicalization pass the structs round-trip exactly.
    ASSERT_EQ(reparsed.events.size(), original.events.size());
    const SimCase again = parse_ok(format_sim_case(reparsed));
    EXPECT_EQ(again.events, reparsed.events);
  }
}

TEST(SimCaseFormat, EveryEventKindSurvivesTheRoundTrip) {
  // Crank the schedule knobs so one case exercises link-down, crash and
  // Byzantine events at once.
  SimCaseParams params;
  params.seed = 11;
  params.byzantine_prob = 1.0;
  params.permanent_failure_prob = 1.0;  // repair_ms = 0 must round-trip too
  params.restart_storm_prob = 1.0;
  const SimCase original = generate_sim_case(params);
  bool saw_link = false, saw_crash = false, saw_byz = false;
  bool saw_restart = false;
  for (const SimEvent& e : original.events) {
    saw_link |= e.kind == SimEvent::Kind::kLinkDown;
    saw_crash |= e.kind == SimEvent::Kind::kCrash;
    saw_byz |= e.kind == SimEvent::Kind::kByzantine;
    if (e.kind == SimEvent::Kind::kRestartStorm) {
      saw_restart = true;
      EXPECT_GT(e.period_ms, 0.0);
      EXPECT_GE(e.cycles, 2u);
    }
  }
  ASSERT_TRUE(saw_link && saw_crash && saw_byz && saw_restart)
      << "generator knobs must force all four event kinds";
  const SimCase reparsed = parse_ok(format_sim_case(original));
  EXPECT_EQ(format_sim_case(reparsed), format_sim_case(original));
  ASSERT_EQ(reparsed.events.size(), original.events.size());
  for (std::size_t i = 0; i < reparsed.events.size(); ++i) {
    EXPECT_EQ(reparsed.events[i].kind, original.events[i].kind);
    EXPECT_EQ(reparsed.events[i].a, original.events[i].a);
    EXPECT_EQ(reparsed.events[i].b, original.events[i].b);
    EXPECT_EQ(reparsed.events[i].ad, original.events[i].ad);
    EXPECT_EQ(reparsed.events[i].misbehavior, original.events[i].misbehavior);
    EXPECT_EQ(reparsed.events[i].victim, original.events[i].victim);
    EXPECT_EQ(reparsed.events[i].cycles, original.events[i].cycles);
    EXPECT_NEAR(reparsed.events[i].at_ms, original.events[i].at_ms, 0.01);
  }
}

TEST(SimCaseFormat, ParseReportsTheOffendingLine) {
  const auto expect_error = [](const std::string& text, std::size_t line) {
    SimCaseParseResult parsed = parse_sim_case(text);
    const auto* err = std::get_if<SimCaseParseError>(&parsed);
    ASSERT_NE(err, nullptr) << text;
    EXPECT_EQ(err->line, line) << err->describe();
  };
  expect_error(
      "case name=x seed=1 horizon-ms=1000\n"
      "ad a campus stub\n"
      "bogus statement\n",
      3);
  expect_error(
      "case name=x seed=1 horizon-ms=1000\n"
      "ad a campus stub\n"
      "ad b campus stub\n"
      "event byzantine at=10 ad=a\n",  // missing kind=
      4);
  expect_error(
      "case name=x seed=1 horizon-ms=1000\n"
      "ad a campus stub\n"
      "ad b campus stub\n"
      "event link-down at=10 a=a b=b\n",  // no such link
      4);
}

TEST(SimCaseFormat, StructuralReductionsStaySerializable) {
  SimCaseParams params;
  params.seed = 4;
  const SimCase original = generate_sim_case(params);
  ASSERT_GE(original.topo.ad_count(), 3u);

  const SimCase smaller = remove_ad(original, AdId{0});
  EXPECT_EQ(smaller.topo.ad_count(), original.topo.ad_count() - 1);
  const std::string text = format_sim_case(smaller);
  EXPECT_EQ(format_sim_case(parse_ok(text)), text);

  const SimCase no_flows = with_flows(original, {});
  EXPECT_TRUE(no_flows.flows.empty());
  EXPECT_EQ(format_sim_case(parse_ok(format_sim_case(no_flows))),
            format_sim_case(no_flows));
}

// --- generator pin -----------------------------------------------------

// FNV-1a of the canonical text of each generated case, seeds 1..32,
// recorded on commit 852ddfb (see tests/pins.hpp). The clean corpus
// replays pin two generated worlds; this pins every generated dimension
// (topology, policies, flows, fault rates, schedule) across 32 seeds.
constexpr std::uint64_t kGeneratorPins[] = {
    0xa753842248bbad2bull, 0xc7a900600e0e4d6bull, 0xbd774f148bbaceeeull,
    0xfe6f877555bada73ull, 0x5c653919cb3acfbdull, 0xd076d4c3bb31eec8ull,
    0x565432ec04ea2f8cull, 0xe5d90c168e23bc40ull, 0xbda50ffd5a247537ull,
    0x58148fb4f5af2b88ull, 0x10cc13ac4f719238ull, 0xa7385237b018c8afull,
    0xe5abe80370e4088aull, 0xc9c302ce2b2de88aull, 0xcfeb0fc280308977ull,
    0x383c2adf7dda81d1ull, 0x504fa41e88c5e868ull, 0x3fd4b5479d88ba81ull,
    0x3afd4a42db65600ull, 0xbff7e682de4d413cull, 0xa2bef1394667119ull,
    0xc873ad4f150ca948ull, 0xea73fc783579e35cull, 0x90b3847e18a09f40ull,
    0x834d906242f3f6efull, 0x3fb97631808c0248ull, 0x9f04881430ea7ef8ull,
    0x26542eb986b9a858ull, 0x1bc47912a520282cull, 0x421a45d99bbea6b8ull,
    0x7949915536dc01caull, 0x75818b8896c5626cull,
};

TEST(GeneratorPin, GeneratedCasesAreUnchanged) {
  for (std::uint64_t seed = 1; seed <= std::size(kGeneratorPins); ++seed) {
    SCOPED_TRACE(seed);
    EXPECT_EQ(fnv1a(format_sim_case(generate_sim_case({.seed = seed}))),
              HashPin{kGeneratorPins[seed - 1]});
  }
}

// --- differential runner ----------------------------------------------

// Satellite S4: the whole run must be a pure function of the seed. Two
// independent executions of the same SimCase agree on the counter
// fingerprint (a digest of every per-AD counter, i.e. the forwarding
// tables' observable behavior) and on the DES event count, per design
// point.
TEST(Differential, SameSeedIsDeterministic) {
  SimCaseParams params;
  params.seed = 3;
  const SimCase c = generate_sim_case(params);
  DiffOptions options;
  options.check_determinism = false;  // we do the double run ourselves
  const DiffResult first = run_differential(c, options);
  const DiffResult second = run_differential(c, options);
  ASSERT_EQ(first.archs.size(), 4u);
  ASSERT_EQ(second.archs.size(), first.archs.size());
  for (std::size_t i = 0; i < first.archs.size(); ++i) {
    SCOPED_TRACE(first.archs[i].arch);
    EXPECT_EQ(first.archs[i].fingerprint, second.archs[i].fingerprint);
    EXPECT_EQ(first.archs[i].events_processed,
              second.archs[i].events_processed);
    EXPECT_EQ(first.archs[i].violations.size(),
              second.archs[i].violations.size());
  }
}

TEST(Differential, GeneratedSeedsReplayClean) {
  // A slice of the acceptance sweep (tools/simtest --seeds 64): generated
  // worlds produce only agreements and paper-sanctioned divergences.
  for (std::uint64_t seed : {1, 2}) {
    SCOPED_TRACE(seed);
    SimCaseParams params;
    params.seed = seed;
    const SimCase c = generate_sim_case(params);
    const DiffResult result = run_differential(c);
    EXPECT_TRUE(result.clean())
        << (result.signatures().empty() ? std::string("(clean)")
                                        : result.signatures().front());
    for (const ArchDiffResult& a : result.archs) {
      EXPECT_EQ(a.flows_total, c.flows.size());
      EXPECT_EQ(a.invariants.persistent_loops, 0u) << a.arch;
    }
  }
}

// The tester must catch a planted defect: an LS-HbH probe that consults
// the default-class FIB for every flow lets traffic from the wrong user
// class cross AUP-restricted transit, which classification must flag as
// a genuine illegal-path violation (never as an expected divergence).
TEST(Differential, InjectedProbeBugIsCaught) {
  SimCaseParams params;
  params.seed = 2;
  const SimCase c = generate_sim_case(params);
  DiffOptions buggy;
  buggy.check_determinism = false;
  buggy.inject_probe_bug = true;
  const DiffResult result = run_differential(c, buggy);
  EXPECT_FALSE(result.clean());
  EXPECT_TRUE(has_signature(result, "ls-hbh:illegal-path"));
  // The defect is confined to LS-HbH: the other design points stay clean.
  for (const ArchDiffResult& a : result.archs) {
    if (a.arch != "ls-hbh") {
      EXPECT_TRUE(a.violations.empty()) << a.arch;
    }
  }
}

// Acceptance: the shrinker reduces the injected-bug failure to a
// reproducer of at most 8 ADs that still fails for the same reason, and
// dropping the bug makes the minimized case pass.
TEST(Differential, ShrinkerMinimizesInjectedBugCase) {
  SimCaseParams params;
  params.seed = 2;
  const SimCase c = generate_sim_case(params);
  DiffOptions buggy;
  buggy.check_determinism = false;
  buggy.inject_probe_bug = true;
  const DiffResult failing = run_differential(c, buggy);
  ASSERT_FALSE(failing.clean());

  const FailurePredicate predicate =
      signature_predicate(failing.signatures(), buggy);
  const ShrinkResult shrunk = shrink_sim_case(c, predicate);
  EXPECT_LE(shrunk.minimized.topo.ad_count(), 8u);
  EXPECT_LT(shrunk.minimized.flows.size(), c.flows.size());
  // Recorded on commit 852ddfb (see tests/pins.hpp): ADs, flows and
  // events of the minimized case, predicate checks and rounds spent.
  EXPECT_EQ((ShrinkPin{shrunk.minimized.topo.ad_count(),
                       shrunk.minimized.flows.size(),
                       shrunk.minimized.events.size(), shrunk.checks,
                       shrunk.rounds}),
            (ShrinkPin{6, 1, 0, 87, 2}));

  // Still fails, for the same reason, deterministically.
  const DiffResult replay = run_differential(shrunk.minimized, buggy);
  EXPECT_TRUE(has_signature(replay, "ls-hbh:illegal-path"));
  // And the minimized world is healthy without the planted defect.
  DiffOptions fixed;
  fixed.check_determinism = false;
  EXPECT_TRUE(run_differential(shrunk.minimized, fixed).clean());
}

// --- golden corpus -----------------------------------------------------

// Per-arch pins of the clean golden replays, recorded on commit 8102046
// (see tests/pins.hpp).
const std::map<std::string, std::map<std::string, ReplayPin>> kReplayPins = {
    {"clean-seed-1.simcase",
     {{"ecma", {0xe699e90e9b2e34bull, 8282}},
      {"idrp", {0x1ff695b2edfdbb12ull, 7820}},
      {"ls-hbh", {0xbadfeab473cb3ff1ull, 10874}},
      {"orwg", {0x53c2568159098d36ull, 10874}}}},
    {"clean-seed-2.simcase",
     {{"ecma", {0x2d70caf39382c4bull, 4315}},
      {"idrp", {0x8950c0edda0db26ull, 4225}},
      {"ls-hbh", {0x212d28867b226d6cull, 5166}},
      {"orwg", {0x7a67f61f1e35b70ull, 5166}}}},
};

TEST(Corpus, CleanCasesReplayClean) {
  for (const char* name : {"clean-seed-1.simcase", "clean-seed-2.simcase"}) {
    SCOPED_TRACE(name);
    const std::string text = read_corpus(name);
    ASSERT_FALSE(text.empty());
    const SimCase c = parse_ok(text);
    ASSERT_GT(c.topo.ad_count(), 0u);
    // Checked-in corpus files are canonical serializations.
    EXPECT_EQ(format_sim_case(c), text);
    const DiffResult result = run_differential(c);
    EXPECT_TRUE(result.clean());
    const auto& pins = kReplayPins.at(name);
    ASSERT_EQ(result.archs.size(), pins.size());
    for (const ArchDiffResult& a : result.archs) {
      SCOPED_TRACE(a.arch);
      EXPECT_EQ((ReplayPin{a.fingerprint, a.events_processed}),
                pins.at(a.arch));
    }
  }
}

TEST(Corpus, MinimizedReproducerReplaysDeterministically) {
  const std::string text = read_corpus("buggy-lshh-min.simcase");
  ASSERT_FALSE(text.empty());
  const SimCase c = parse_ok(text);
  ASSERT_GT(c.topo.ad_count(), 0u);
  EXPECT_LE(c.topo.ad_count(), 8u);
  EXPECT_EQ(format_sim_case(c), text);

  // Without the planted defect the world is healthy...
  EXPECT_TRUE(run_differential(c).clean());

  // ...with it, the reproducer trips exactly the recorded signature, on
  // every replay, with a stable fingerprint.
  DiffOptions buggy;
  buggy.check_determinism = false;
  buggy.inject_probe_bug = true;
  const DiffResult first = run_differential(c, buggy);
  const DiffResult second = run_differential(c, buggy);
  const std::vector<std::string> expected{"ls-hbh:illegal-path"};
  EXPECT_EQ(first.signatures(), expected);
  EXPECT_EQ(second.signatures(), expected);
  ASSERT_EQ(first.archs.size(), second.archs.size());
  for (std::size_t i = 0; i < first.archs.size(); ++i) {
    EXPECT_EQ(first.archs[i].fingerprint, second.archs[i].fingerprint)
        << first.archs[i].arch;
  }
}

TEST(Corpus, FullCorpusReplaysIdenticallyOnTheParallelBackend) {
  // Every golden reproducer, replayed through the sharded engine: clean
  // cases stay clean, and every per-arch fingerprint and event total
  // matches the sequential run exactly -- the corpus-level version of the
  // engine-equivalence guarantee.
  for (const char* name : {"clean-seed-1.simcase", "clean-seed-2.simcase",
                           "buggy-lshh-min.simcase"}) {
    SCOPED_TRACE(name);
    const std::string text = read_corpus(name);
    ASSERT_FALSE(text.empty());
    const SimCase c = parse_ok(text);

    DiffOptions options;
    options.check_determinism = false;
    const DiffResult sequential = run_differential(c, options);
    options.shards = 4;
    const DiffResult sharded = run_differential(c, options);

    EXPECT_EQ(sequential.clean(), sharded.clean());
    EXPECT_EQ(sequential.signatures(), sharded.signatures());
    ASSERT_EQ(sequential.archs.size(), sharded.archs.size());
    for (std::size_t i = 0; i < sequential.archs.size(); ++i) {
      SCOPED_TRACE(sequential.archs[i].arch);
      EXPECT_EQ(sequential.archs[i].fingerprint, sharded.archs[i].fingerprint);
      EXPECT_EQ(sequential.archs[i].events_processed,
                sharded.archs[i].events_processed);
    }
  }
}

// --- structured invariant findings (satellite S1) ----------------------

class NullNode : public Node {
 public:
  void on_message(AdId, std::span<const std::uint8_t>) override {}
};

TEST(InvariantFindings, CarryOffendingPairAndPath) {
  // Three-AD chain with synthetic probes: monitor findings must name the
  // offending (src, dst) pair and the walked path, not just bump a
  // counter.
  Topology topo;
  const AdId a = topo.add_ad(AdClass::kBackbone, AdRole::kTransit, "a");
  const AdId b = topo.add_ad(AdClass::kRegional, AdRole::kTransit, "b");
  const AdId c = topo.add_ad(AdClass::kCampus, AdRole::kStub, "c");
  topo.add_link(a, b, LinkClass::kHierarchical);
  topo.add_link(b, c, LinkClass::kHierarchical);

  Engine engine;
  Network net(engine, topo);
  for (const Ad& ad : topo.ads()) {
    net.attach(ad.id, std::make_unique<NullNode>());
  }

  InvariantConfig config;
  config.sample_pairs = 0;  // probe every ordered pair
  InvariantMonitor monitor(net, config, [&](AdId src, AdId dst) {
    Probe probe;
    if (src == a && dst == c) {
      probe.outcome = ProbeOutcome::kLooped;
      probe.path = {a, b, a};
    } else if (src == c && dst == a) {
      probe.outcome = ProbeOutcome::kBlackHole;
      probe.path = {c, b};
    } else {
      probe.outcome = ProbeOutcome::kDelivered;
      probe.path = {src, dst};
    }
    return probe;
  });

  // No fault was ever injected, so violations are persistent immediately.
  monitor.sweep();
  monitor.sweep();  // dedup: re-observing must not add findings

  EXPECT_EQ(monitor.stats().persistent_loops, 1u);
  EXPECT_EQ(monitor.stats().persistent_black_holes, 1u);
  const std::vector<InvariantFinding>& findings = monitor.persistent_findings();
  ASSERT_EQ(findings.size(), 2u);

  const InvariantFinding& loop = findings[0];
  EXPECT_EQ(loop.kind, InvariantKind::kLoop);
  EXPECT_STREQ(to_string(loop.kind), "loop");
  EXPECT_EQ(loop.src, a);
  EXPECT_EQ(loop.dst, c);
  EXPECT_EQ(loop.path, (std::vector<AdId>{a, b, a}));

  const InvariantFinding& hole = findings[1];
  EXPECT_EQ(hole.kind, InvariantKind::kBlackHole);
  EXPECT_STREQ(to_string(hole.kind), "black-hole");
  EXPECT_EQ(hole.src, c);
  EXPECT_EQ(hole.dst, a);
  EXPECT_EQ(hole.path, (std::vector<AdId>{c, b}));
}

TEST(InvariantFindings, TransientViolationsAreCountedNotRecorded) {
  Topology topo;
  const AdId a = topo.add_ad(AdClass::kRegional, AdRole::kTransit, "a");
  const AdId b = topo.add_ad(AdClass::kCampus, AdRole::kStub, "b");
  topo.add_link(a, b, LinkClass::kHierarchical);

  Engine engine;
  Network net(engine, topo);
  for (const Ad& ad : topo.ads()) {
    net.attach(ad.id, std::make_unique<NullNode>());
  }
  InvariantMonitor monitor(net, InvariantConfig{}, [&](AdId src, AdId) {
    Probe probe;
    probe.outcome = ProbeOutcome::kLooped;
    probe.path = {src, src};
    return probe;
  });
  monitor.note_fault();  // inside the reconvergence window -> transient
  monitor.sweep();
  EXPECT_GT(monitor.stats().transient_loops, 0u);
  EXPECT_TRUE(monitor.persistent_findings().empty());
}

}  // namespace
}  // namespace idr
