// Wire-transcript pins for the distance-vector design points (ECMA,
// IDRP). A recording node folds every update it is delivered, with its
// sender, into a per-receiver FNV-1a digest before handing it to the
// protocol; a run's pin folds those digests in AD order. An update is
// its sender's RIB in encode order, so these pins hold route selection,
// RIB iteration order and encoding byte for byte -- which the counter
// fingerprints (message counts and sizes) do not. The first three were
// recorded on commit 67100cf, the storm variants after them on 8ac658b;
// a change that keeps the DV family's behaviour keeps them.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "core/chaos.hpp"
#include "core/design_harness.hpp"
#include "core/scale_profile.hpp"
#include "core/scenario.hpp"
#include "flap_storm.hpp"
#include "pins.hpp"
#include "sim/engine.hpp"
#include "sim/failure.hpp"
#include "sim/network.hpp"

namespace idr {
namespace {

class Transcript {
 public:
  explicit Transcript(std::size_t ads) : digests_(ads, fnv1a({})) {}

  void fold(AdId to, AdId from, std::span<const std::uint8_t> bytes) {
    HashPin& h = digests_[to.v];
    h = fnv1a(as_text(&from.v, 1), h);
    h = fnv1a(as_text(bytes.data(), bytes.size()), h);
  }

  // The per-receiver digests, folded in AD order.
  [[nodiscard]] HashPin digest() const {
    HashPin h = fnv1a({});
    for (const HashPin& d : digests_) h = fnv1a(as_text(&d.hash, 1), h);
    return h;
  }

 private:
  template <typename T>
  static std::string_view as_text(const T* items, std::size_t count) {
    return {reinterpret_cast<const char*>(items), count * sizeof(T)};
  }

  std::vector<HashPin> digests_;
};

// A protocol node that records each delivered update, then handles it.
template <typename Base>
class Recording final : public Base {
 public:
  template <typename... Args>
  explicit Recording(Transcript& transcript, Args&&... args)
      : Base(std::forward<Args>(args)...), transcript_(transcript) {}

  void on_message(AdId from, std::span<const std::uint8_t> bytes) override {
    transcript_.fold(this->id(), from, bytes);
    Base::on_message(from, bytes);
  }

 private:
  Transcript& transcript_;
};

// The digest once the cold start drains, then once the flap storm does.
struct TranscriptPin {
  HashPin converged;
  HashPin storm;
  friend bool operator==(const TranscriptPin&, const TranscriptPin&) = default;
};

std::ostream& operator<<(std::ostream& os, const TranscriptPin& pin) {
  return os << "{{" << pin.converged << "}, {" << pin.storm << "}}";
}

// How a pinned run is driven around its recording: `configure` runs
// on the built network before start_all, `settle` drains the cold start
// and `storm` runs what follows. By default: nothing, engine.run(), and
// run_flap_storm.
struct Drive {
  std::function<void(Network&)> configure = [](Network&) {};
  std::function<void(Engine&)> settle = [](Engine& engine) { engine.run(); };
  std::function<void(Network&, Engine&, const Topology&)> storm =
      run_flap_storm;
};

// Cold start and storm over `topo`; `make_node(ad, transcript)` builds
// each AD's recording node, at start and at every restart.
template <typename MakeNode>
TranscriptPin record(Topology& topo, MakeNode&& make_node,
                     const Drive& drive = {}) {
  Engine engine;
  Network net(engine, topo);
  Transcript transcript(topo.ad_count());
  net.set_node_factory(
      [&](AdId ad) -> std::unique_ptr<Node> {
        return make_node(ad, transcript);
      });
  for (const Ad& ad : topo.ads()) {
    net.attach(ad.id, make_node(ad.id, transcript));
  }
  drive.configure(net);
  net.start_all();
  drive.settle(engine);
  TranscriptPin pin;
  pin.converged = transcript.digest();
  drive.storm(net, engine, topo);
  pin.storm = transcript.digest();
  EXPECT_GT(net.total().msgs_delivered, 0u);
  return pin;
}

// IDRP on `profile` under `config` (the scale preset, or a variant of
// it), each AD originating as make_design_factory configures it.
TranscriptPin idrp_scale_transcript(ScaleProfile& profile,
                                    const IdrpConfig& config,
                                    const Drive& drive = {}) {
  return record(profile.topo, [&](AdId ad, Transcript& transcript)
                                  -> std::unique_ptr<Node> {
    IdrpConfig c = config;
    c.originate = profile.is_beacon[ad.v] != 0;
    return std::make_unique<Recording<IdrpNode>>(transcript,
                                                 &profile.policies, c);
  }, drive);
}

// The 1e3-AD scale profile under scale_design_config, per AD as
// make_design_factory configures it.
TranscriptPin scale_profile_transcript(bool idrp) {
  ScaleProfile profile = make_scale_profile(1'000, kBenchProfileSeed);
  const DesignConfig config = scale_design_config(profile);
  if (idrp) return idrp_scale_transcript(profile, config.idrp);
  return record(profile.topo, [&](AdId ad, Transcript& transcript)
                                  -> std::unique_ptr<Node> {
    EcmaConfig c = config.ecma;
    shape_ecma_role(c, profile.topo, ad);
    c.originate = profile.is_beacon[ad.v] != 0;
    return std::make_unique<Recording<EcmaNode>>(
        transcript, &profile.order.order, std::move(c));
  });
}

IdrpNode& idrp_at(Network& net, AdId ad) {
  return *static_cast<IdrpNode*>(net.node(ad));
}

TEST(DvTranscriptPins, IdrpScaleProfile) {
  EXPECT_EQ(scale_profile_transcript(true),
            (TranscriptPin{{0x3f73b8b8b7f9b5bfull}, {0xcc3152e215798375ull}}));
}

TEST(DvTranscriptPins, EcmaScaleProfile) {
  EXPECT_EQ(scale_profile_transcript(false),
            (TranscriptPin{{0x7b6b8a3f9ff65ef8ull}, {0x6b55ba0d7c0831adull}}));
}

// bench_table1_design_space's scenario: source-restricted policy terms,
// so several policy-diverse routes per destination survive selection,
// with the receiver-side defence clamping every transit route.
TEST(DvTranscriptPins, IdrpDesignSpaceDefended) {
  ScenarioParams params;
  params.seed = 42;
  params.target_ads = 64;
  params.flow_count = 96;
  params.restrict_prob = 0.35;
  params.source_selectivity = 0.6;
  params.aup_on_first_backbone = true;
  Scenario scenario = make_scenario(params);
  IdrpConfig config;
  config.routes_per_dest = 4;
  config.defend = true;
  const TranscriptPin got = record(
      scenario.topo,
      [&](AdId, Transcript& transcript) -> std::unique_ptr<Node> {
        return std::make_unique<Recording<IdrpNode>>(
            transcript, &scenario.policies, config);
      });
  EXPECT_EQ(got,
            (TranscriptPin{{0xf63d5122a2da62eull}, {0xaf65f5f2ccda0945ull}}));
}

// The paths the plain storm leaves out, each on the 1e3-AD scale
// profile; recorded on commit 8ac658b.

// Route-flap damping: flapping destinations are suppressed (left out of
// updates) and later released by the damper's timer.
TEST(DvTranscriptPins, IdrpScaleProfileDamped) {
  ScaleProfile profile = make_scale_profile(1'000, kBenchProfileSeed);
  IdrpConfig config = scale_design_config(profile).idrp;
  config.damping = {.enabled = true, .half_life_ms = 500.0};
  Drive drive;
  drive.storm = [](Network& net, Engine& engine, const Topology& topo) {
    run_flap_storm(net, engine, topo);
    DampingStats total;
    for (const Ad& ad : topo.ads()) {
      const DampingStats& s = idrp_at(net, ad.id).damper().stats();
      total.suppress_events += s.suppress_events;
      total.reuse_events += s.reuse_events;
    }
    EXPECT_GT(total.suppress_events, 0u);
    EXPECT_GT(total.reuse_events, 0u);
  };
  EXPECT_EQ(idrp_scale_transcript(profile, config, drive),
            (TranscriptPin{{0x3f73b8b8b7f9b5bfull}, {0xedeadb3bfdf65773ull}}));
}

// A graceful-restart crash storm (run_scale_chaos's restart storm):
// neighbors retain a crashed AD's Adj-RIB-in without reselecting, and
// the restarted AD's first full table replaces it.
TEST(DvTranscriptPins, IdrpScaleProfileGracefulRestartStorm) {
  ScaleProfile profile = make_scale_profile(1'000, kBenchProfileSeed);
  Drive drive;
  drive.configure = [](Network& net) {
    net.set_crash_notifications(true);
    net.set_graceful_restart({.enabled = true, .grace_ms = 2'000.0});
  };
  drive.storm = [&profile](Network& net, Engine& engine,
                           const Topology& topo) {
    FailureInjector injector(net);
    schedule_storm(
        {.seed = kBenchProfileSeed, .storm = StormFamily::kRestartStorm},
        profile, injector, engine.now() + 200.0);
    engine.run();
    std::uint64_t resyncs = 0;
    for (const Ad& ad : topo.ads()) resyncs += idrp_at(net, ad.id).gr_resyncs();
    EXPECT_GT(net.gr_recoveries(), 0u);
    EXPECT_GT(resyncs, 0u);
  };
  EXPECT_EQ(idrp_scale_transcript(profile, scale_design_config(profile).idrp,
                                  drive),
            (TranscriptPin{{0x3f73b8b8b7f9b5bfull}, {0x552141ab0a15b8d5ull}}));
}

// Keepalive liveness with link notifications off: a link's state changes
// with no on_link_change, so a reselect must read it from the topology.
// The storm's 100 ms outages outlast the 60 ms hold time, so each is
// noticed part-way through; a third link goes down for 40 ms, less than
// the hold time.
TEST(DvTranscriptPins, IdrpScaleProfileKeepaliveOnly) {
  ScaleProfile profile = make_scale_profile(1'000, kBenchProfileSeed);
  Drive drive;
  drive.configure = [](Network& net) {
    net.set_link_notifications(false);
    net.set_keepalive({.interval_ms = 20.0, .miss_threshold = 3});
  };
  drive.settle = [](Engine& engine) { engine.run_until(2'000.0); };
  drive.storm = [](Network& net, Engine& engine, const Topology& topo) {
    FailureInjector injector(net);
    schedule_flap_storm(injector, engine, topo);
    std::vector<LinkId> transit;
    for (const Link& l : topo.links()) {
      if (topo.can_transit(l.a) && topo.can_transit(l.b)) {
        transit.push_back(l.id);
      }
    }
    injector.fail_link_at(transit[transit.size() / 2], engine.now() + 330.0,
                          40.0);
    engine.run_until(engine.now() + 3'000.0);
  };
  EXPECT_EQ(idrp_scale_transcript(profile, scale_design_config(profile).idrp,
                                  drive),
            (TranscriptPin{{0x3f73b8b8b7f9b5bfull}, {0x2e26dfb98f7b28c0ull}}));
}

// A false-origin liar appends its claim on the victim after its honest
// routes. The liar is the victim's access AD, so it keeps the victim's
// own route whatever its neighbors believe: they get one update that
// lists the victim twice, not contiguously.
TEST(DvTranscriptPins, IdrpScaleProfileFalseOrigin) {
  ScaleProfile profile = make_scale_profile(1'000, kBenchProfileSeed);
  const AdId victim = profile.beacons.back();
  const AdId liar = profile.topo.neighbors(victim).front().neighbor;
  Drive drive;
  drive.configure = [&](Network& net) {
    net.set_misbehavior({.ad = liar,
                         .kind = Misbehavior::kFalseOrigin,
                         .victim = victim,
                         .start_ms = 0.0});
  };
  drive.storm = [&](Network& net, Engine& engine, const Topology& topo) {
    EXPECT_NE(idrp_at(net, liar).routes(victim), nullptr);
    run_flap_storm(net, engine, topo);
  };
  EXPECT_EQ(idrp_scale_transcript(profile, scale_design_config(profile).idrp,
                                  drive),
            (TranscriptPin{{0x216d30442ac7c8d4ull}, {0xa8dd24d43244409aull}}));
}

}  // namespace
}  // namespace idr
