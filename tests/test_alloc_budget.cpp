// Heap-allocation budgets. This binary replaces the global operator new
// to count calls and bytes while a measured window is open, and checks:
//
//  * the distance-vector update path (ECMA, IDRP) on the 1e3-AD scale
//    profile: allocations per event over the cold start and over the
//    flap storm that follows it. Decode, route selection and encode work
//    in per-thread scratch, so what is left per event is the network's
//    own (a sent frame, its payload, its delivery event) and the RIB
//    entries that really change;
//  * every decoder that sizes a buffer from a u16 count on the wire: a
//    6-byte frame claiming 0xffff entries is dropped as malformed
//    without allocating for entries that are not there;
//  * route synthesis: a search allocates for the part of the view it
//    reaches, not for the view's AD count.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <string>

#include "core/scale_profile.hpp"
#include "core/synthesis.hpp"
#include "flap_storm.hpp"
#include "proto/dv/dv_node.hpp"
#include "proto/ecma/ecma_node.hpp"
#include "proto/egp/egp_node.hpp"
#include "proto/idrp/idrp_node.hpp"
#include "proto/orwg/orwg_node.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t n) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  }
  return std::malloc(n == 0 ? 1 : n);
}

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace idr {
namespace {

struct Allocs {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};

// The allocations `fn` makes.
template <typename Fn>
Allocs count_allocs(Fn&& fn) {
  const std::uint64_t calls = g_allocs.load();
  const std::uint64_t bytes = g_alloc_bytes.load();
  g_counting.store(true);
  fn();
  g_counting.store(false);
  return {g_allocs.load() - calls, g_alloc_bytes.load() - bytes};
}

struct PerEvent {
  double cold = 0.0;
  double storm = 0.0;
};

// Allocations per event of `arch` on the 1e3-AD scale profile, built as
// the repository benchmark builds it: the cold start to a drained queue,
// then the flap storm.
PerEvent scale_profile_allocs(const std::string& arch) {
  ScaleProfile profile = make_scale_profile(1'000, kBenchProfileSeed);
  Engine engine;
  Network net(engine, profile.topo);
  const Network::NodeFactory factory = make_scale_factory(arch, profile);
  for (const Ad& ad : profile.topo.ads()) net.attach(ad.id, factory(ad.id));
  const Allocs cold = count_allocs([&] {
    net.start_all();
    engine.run();
  });
  const std::uint64_t cold_events = engine.events_processed();
  const Allocs storm =
      count_allocs([&] { run_flap_storm(net, engine, profile.topo); });
  const std::uint64_t storm_events = engine.events_processed() - cold_events;
  EXPECT_GT(cold_events, 0u);
  EXPECT_GT(storm_events, 0u);
  return {static_cast<double>(cold.calls) / static_cast<double>(cold_events),
          static_cast<double>(storm.calls) /
              static_cast<double>(storm_events)};
}

// Measured on this code: IDRP 27.5 cold / 4.8 storm and ECMA 3.4 / 1.7.
// Code that rebuilt IDRP's loc-RIB and decoded every update into fresh
// vectors read IDRP 108.6 / 204.6 and ECMA 9.8 / 11.2. What is left of
// IDRP's cold start is mostly the RIBs being filled: every route a node
// keeps is a path buffer, every destination a route vector.
TEST(AllocBudget, IdrpUpdatePath) {
  const PerEvent got = scale_profile_allocs("idrp");
  EXPECT_LE(got.cold, 35.0);
  EXPECT_LE(got.storm, 10.0);
}

TEST(AllocBudget, EcmaUpdatePath) {
  const PerEvent got = scale_profile_allocs("ecma");
  EXPECT_LE(got.cold, 5.0);
  EXPECT_LE(got.storm, 3.0);
}

// A frame of `type` whose u16 count claims 0xffff entries, followed by
// three bytes: far too short for even one entry of any decoder.
constexpr std::array<std::uint8_t, 6> claims_0xffff(std::uint8_t type) {
  return {type, 0xff, 0xff, 0, 0, 0};
}

// Delivers the frame to `node`, attached at AD 1 of a two-AD network, and
// returns what that allocated; the frame must be counted malformed.
Allocs deliver_claim(std::unique_ptr<Node> node, std::uint8_t type) {
  Topology topo;
  const AdId a = topo.add_ad(AdClass::kRegional, AdRole::kTransit);
  const AdId b = topo.add_ad(AdClass::kRegional, AdRole::kTransit);
  topo.add_link(a, b, LinkClass::kHierarchical);
  Engine engine;
  Network net(engine, topo);
  Node* receiver = node.get();
  net.attach(b, std::move(node));
  const std::array<std::uint8_t, 6> frame = claims_0xffff(type);
  const Allocs allocs =
      count_allocs([&] { receiver->on_message(a, std::span(frame)); });
  EXPECT_EQ(net.total().malformed_dropped, 1u);
  return allocs;
}

constexpr std::uint64_t kFewKb = 4'096;

TEST(AllocBudget, CountClaimingMoreThanTheFrameHoldsAllocatesLittle) {
  const PolicySet policies;
  const PartialOrder order;
  EcmaConfig ecma;
  struct Case {
    const char* decoder;
    std::unique_ptr<Node> node;
    std::uint8_t type;
  };
  Case cases[] = {
      {"dv", std::make_unique<DvNode>(), DvNode::kMsgVector},
      {"egp", std::make_unique<EgpNode>(), EgpNode::kMsgReach},
      {"ecma", std::make_unique<EcmaNode>(&order, ecma), EcmaNode::kMsgUpdate},
      {"idrp", std::make_unique<IdrpNode>(&policies), IdrpNode::kMsgUpdate},
      {"orwg lsa batch", std::make_unique<OrwgNode>(&policies),
       OrwgNode::kMsgLsaBatch},
  };
  for (Case& c : cases) {
    SCOPED_TRACE(c.decoder);
    const Allocs got = deliver_claim(std::move(c.node), c.type);
    EXPECT_LE(got.bytes, kFewKb);
  }
}

// A view of 1e6 ADs whose only live links form the chain 0-1-2-3-4.
class ChainView final : public SynthesisView {
 public:
  static constexpr std::uint32_t kChain = 5;

  [[nodiscard]] std::size_t ad_count() const override { return 1'000'000; }
  void for_each_neighbor(
      AdId ad, const std::function<void(AdId, std::uint32_t)>& fn)
      const override {
    if (ad.v >= kChain) return;
    if (ad.v > 0) fn(AdId{ad.v - 1}, 1);
    if (ad.v + 1 < kChain) fn(AdId{ad.v + 1}, 1);
  }
  [[nodiscard]] std::optional<std::uint32_t> transit_cost(
      AdId, const FlowSpec&, AdId, AdId) const override {
    return 1;
  }
};

// Synthesis keeps its distance and visited arrays in per-thread scratch
// that the thread's first call sizes, so later calls over a 1e6-AD view
// allocate only for the five ADs they reach: 19 allocations, 444 bytes
// per call. Code that allocated both arrays per call made 23 allocations,
// 4,126,020 bytes, per call here.
TEST(AllocBudget, SynthesisAllocatesForTheReachedGraph) {
  const ChainView view;
  const FlowSpec flow{AdId{0}, AdId{ChainView::kChain - 1}};
  ASSERT_TRUE(synthesize_route(view, flow).found());
  for (int i = 0; i < 3; ++i) {
    SynthesisResult result;
    const Allocs got =
        count_allocs([&] { result = synthesize_route(view, flow); });
    EXPECT_EQ(result.path.size(), ChainView::kChain);
    EXPECT_LE(got.bytes, 64u * 1024) << got.calls << " allocations";
  }
}

}  // namespace
}  // namespace idr
