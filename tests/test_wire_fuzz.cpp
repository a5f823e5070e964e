// Codec/dispatch fuzzing: seeded random buffers, truncated real PDUs and
// bit-flipped real PDUs through every protocol's on_message. The
// hardening contract: a malformed PDU is counted (malformed_dropped) and
// dropped -- never a crash, never a partial state application that a
// later assertion trips over.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "proto/dv/dv_node.hpp"
#include "proto/ecma/ecma_node.hpp"
#include "proto/ecma/partial_order.hpp"
#include "proto/egp/egp_node.hpp"
#include "proto/idrp/idrp_node.hpp"
#include "proto/ls/ls_node.hpp"
#include "proto/lshh/lshh_node.hpp"
#include "proto/orwg/orwg_node.hpp"
#include "policy/generator.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "util/prng.hpp"
#include "wire/codec.hpp"

namespace idr {
namespace {

// A small acyclic line internet (a - b - c) usable by every protocol,
// EGP included.
struct LineNet {
  Topology topo;
  PolicySet policies;
  Engine engine;
  std::unique_ptr<Network> net;
  AdId a, b, c;

  LineNet() {
    a = topo.add_ad(AdClass::kCampus, AdRole::kStub);
    b = topo.add_ad(AdClass::kRegional, AdRole::kTransit);
    c = topo.add_ad(AdClass::kCampus, AdRole::kStub);
    topo.add_link(a, b, LinkClass::kHierarchical);
    topo.add_link(b, c, LinkClass::kHierarchical);
    policies = make_open_policies(topo);
    net = std::make_unique<Network>(engine, topo);
  }

  void start() {
    net->start_all();
    engine.run();
  }
};

// The fuzz corpus for one valid PDU: every truncation, then seeded bit
// flips, then fully random buffers. The only acceptable outcomes of each
// are "applied" or "counted and dropped".
void fuzz_node(LineNet& env, Node& node, AdId from,
               const std::vector<std::uint8_t>& valid, Prng& prng) {
  // Truncations (excluding the full valid frame itself).
  for (std::size_t len = 0; len < valid.size(); ++len) {
    std::vector<std::uint8_t> cut(valid.begin(),
                                  valid.begin() + static_cast<long>(len));
    node.on_message(from, cut);
  }
  // Bit flips.
  for (int i = 0; i < 64; ++i) {
    std::vector<std::uint8_t> flipped = valid;
    if (flipped.empty()) break;
    const std::size_t flips = 1 + prng.below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      const auto at = static_cast<std::size_t>(prng.below(flipped.size()));
      flipped[at] ^= static_cast<std::uint8_t>(1u << prng.below(8));
    }
    node.on_message(from, flipped);
  }
  // Fully random buffers (random length, random type byte).
  for (int i = 0; i < 128; ++i) {
    std::vector<std::uint8_t> random(prng.below(48));
    for (auto& byte : random) {
      byte = static_cast<std::uint8_t>(prng.below(256));
    }
    node.on_message(from, random);
  }
  // Whatever the node sent in response must also be survivable.
  env.engine.run();
}

TEST(WireFuzz, DvNodeCountsAndDrops) {
  LineNet env;
  for (AdId id : {env.a, env.b, env.c}) {
    env.net->attach(id, std::make_unique<DvNode>());
  }
  env.start();

  // A valid full-table vector: type, count, (dst, metric) entries.
  wire::Writer w;
  w.u8(DvNode::kMsgVector);
  w.u16(2);
  w.u32(env.a.v);
  w.u16(1);
  w.u32(env.c.v);
  w.u16(3);
  const std::vector<std::uint8_t> valid = std::move(w).take();

  Prng prng(0xD5);
  fuzz_node(env, *env.net->node(env.b), env.a, valid, prng);
  EXPECT_GT(env.net->total().malformed_dropped, 0u);
}

TEST(WireFuzz, LsNodeCountsAndDrops) {
  LineNet env;
  for (AdId id : {env.a, env.b, env.c}) {
    env.net->attach(id, std::make_unique<LsNode>());
  }
  env.start();

  Lsa lsa;
  lsa.origin = env.a;
  lsa.seq = 99;
  LsAdjacency adj;
  adj.neighbor = env.b;
  adj.metric.fill(1);
  lsa.adjacencies.push_back(adj);
  wire::Writer w;
  w.u8(LsNode::kMsgLsa);
  lsa.encode(w);
  const std::vector<std::uint8_t> valid = std::move(w).take();

  Prng prng(0x15);
  fuzz_node(env, *env.net->node(env.b), env.a, valid, prng);
  EXPECT_GT(env.net->total().malformed_dropped, 0u);
}

TEST(WireFuzz, EgpNodeCountsAndDrops) {
  LineNet env;
  for (AdId id : {env.a, env.b, env.c}) {
    env.net->attach(id, std::make_unique<EgpNode>());
  }
  env.start();

  wire::Writer w;
  w.u8(EgpNode::kMsgReach);
  w.u16(1);
  w.u32(env.a.v);
  w.u16(2);
  const std::vector<std::uint8_t> valid = std::move(w).take();

  Prng prng(0xE6);
  fuzz_node(env, *env.net->node(env.b), env.a, valid, prng);
  EXPECT_GT(env.net->total().malformed_dropped, 0u);
}

TEST(WireFuzz, EcmaNodeCountsAndDrops) {
  LineNet env;
  const OrderResult order = compute_partial_order(env.topo, {});
  ASSERT_TRUE(order.ok);
  for (AdId id : {env.a, env.b, env.c}) {
    env.net->attach(id, std::make_unique<EcmaNode>(&order.order,
                                                   EcmaConfig{}));
  }
  env.start();

  wire::Writer w;
  w.u8(EcmaNode::kMsgUpdate);
  w.u16(1);
  w.u32(env.c.v);
  w.u8(0);   // qos
  w.u8(0);   // not down-only
  w.u16(2);  // metric
  const std::vector<std::uint8_t> valid = std::move(w).take();

  Prng prng(0xEC);
  fuzz_node(env, *env.net->node(env.b), env.a, valid, prng);
  EXPECT_GT(env.net->total().malformed_dropped, 0u);
}

TEST(WireFuzz, IdrpNodeCountsAndDrops) {
  LineNet env;
  for (AdId id : {env.a, env.b, env.c}) {
    env.net->attach(id, std::make_unique<IdrpNode>(&env.policies));
  }
  env.start();

  IdrpRoute route;
  route.dst = env.a;
  route.path = {env.a};
  wire::Writer w;
  w.u8(IdrpNode::kMsgUpdate);
  w.u16(1);
  route.encode(w);
  const std::vector<std::uint8_t> valid = std::move(w).take();

  Prng prng(0x1D);
  fuzz_node(env, *env.net->node(env.b), env.a, valid, prng);
  EXPECT_GT(env.net->total().malformed_dropped, 0u);
}

TEST(WireFuzz, LshhNodeCountsAndDrops) {
  LineNet env;
  for (AdId id : {env.a, env.b, env.c}) {
    env.net->attach(id, std::make_unique<LshhNode>(&env.policies));
  }
  env.start();

  PolicyLsa lsa;
  lsa.origin = env.a;
  lsa.seq = 42;
  lsa.adjacencies.push_back(PolicyLsaAdjacency{env.b, 1});
  wire::Writer w;
  w.u8(LshhNode::kMsgLsa);
  lsa.encode(w);
  const std::vector<std::uint8_t> valid = std::move(w).take();

  Prng prng(0x55);
  fuzz_node(env, *env.net->node(env.b), env.a, valid, prng);
  EXPECT_GT(env.net->total().malformed_dropped, 0u);
}

TEST(WireFuzz, OrwgNodeCountsAndDropsEveryMessageType) {
  LineNet env;
  for (AdId id : {env.a, env.b, env.c}) {
    env.net->attach(id, std::make_unique<OrwgNode>(&env.policies));
  }
  env.start();

  PolicyLsa lsa;
  lsa.origin = env.a;
  lsa.seq = 42;
  lsa.adjacencies.push_back(PolicyLsaAdjacency{env.b, 1});
  wire::Writer w;
  w.u8(OrwgNode::kMsgLsa);
  lsa.encode(w);
  const std::vector<std::uint8_t> valid = std::move(w).take();

  Prng prng(0x06);
  fuzz_node(env, *env.net->node(env.b), env.a, valid, prng);

  // Data-plane message types with random bodies: setup, data, ack, nak,
  // teardown, error, batch and unknown types.
  Node& node = *env.net->node(env.b);
  for (std::uint8_t type = 0; type <= 16; ++type) {
    for (int i = 0; i < 32; ++i) {
      std::vector<std::uint8_t> msg;
      msg.push_back(type);
      const std::size_t body = prng.below(40);
      for (std::size_t j = 0; j < body; ++j) {
        msg.push_back(static_cast<std::uint8_t>(prng.below(256)));
      }
      node.on_message(env.a, msg);
    }
  }
  env.engine.run();
  EXPECT_GT(env.net->total().malformed_dropped, 0u);
}

}  // namespace
}  // namespace idr
