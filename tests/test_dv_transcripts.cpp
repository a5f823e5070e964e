// Wire-transcript pins for the distance-vector design points (ECMA,
// IDRP). A recording node folds every update it is delivered, with its
// sender, into a per-receiver FNV-1a digest before handing it to the
// protocol; a run's pin folds those digests in AD order. An update is
// its sender's RIB in encode order, so these pins hold route selection,
// RIB iteration order and encoding byte for byte -- which the counter
// fingerprints (message counts and sizes) do not. Recorded on commit
// 67100cf; a change that keeps the DV family's behaviour keeps them.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "core/design_harness.hpp"
#include "core/scale_profile.hpp"
#include "core/scenario.hpp"
#include "flap_storm.hpp"
#include "pins.hpp"
#include "sim/engine.hpp"
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

// Cold start and flap storm over `topo`; `make_node(ad, transcript)`
// builds each AD's recording node.
template <typename MakeNode>
TranscriptPin record(Topology& topo, MakeNode&& make_node) {
  Engine engine;
  Network net(engine, topo);
  Transcript transcript(topo.ad_count());
  for (const Ad& ad : topo.ads()) {
    net.attach(ad.id, make_node(ad.id, transcript));
  }
  net.start_all();
  engine.run();
  TranscriptPin pin;
  pin.converged = transcript.digest();
  run_flap_storm(net, engine, topo);
  pin.storm = transcript.digest();
  EXPECT_GT(net.total().msgs_delivered, 0u);
  return pin;
}

// The 1e3-AD scale profile under scale_design_config, per AD as
// make_design_factory configures it.
TranscriptPin scale_profile_transcript(bool idrp) {
  ScaleProfile profile = make_scale_profile(1'000, kBenchProfileSeed);
  const DesignConfig config = scale_design_config(profile);
  return record(profile.topo, [&](AdId ad, Transcript& transcript)
                                  -> std::unique_ptr<Node> {
    const bool originate = profile.is_beacon[ad.v] != 0;
    if (idrp) {
      IdrpConfig c = config.idrp;
      c.originate = originate;
      return std::make_unique<Recording<IdrpNode>>(transcript,
                                                   &profile.policies, c);
    }
    EcmaConfig c = config.ecma;
    shape_ecma_role(c, profile.topo, ad);
    c.originate = originate;
    return std::make_unique<Recording<EcmaNode>>(
        transcript, &profile.order.order, std::move(c));
  });
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

}  // namespace
}  // namespace idr
