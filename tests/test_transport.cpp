// Transport layer (Go-Back-N over Policy Routes) and the PR lifecycle
// features it depends on: setup retransmission, data-plane errors and
// teardown.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "policy/generator.hpp"
#include "proto/orwg/orwg_node.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "topology/figure1.hpp"
#include "transport/gbn.hpp"

namespace idr {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

class TransportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fig_ = build_figure1();
    policies_ = make_open_policies(fig_.topo);
    net_ = std::make_unique<Network>(engine_, fig_.topo);
    for (const Ad& ad : fig_.topo.ads()) {
      auto node = std::make_unique<OrwgNode>(&policies_);
      nodes_.push_back(node.get());
      net_->attach(ad.id, std::move(node));
    }
    net_->start_all();
    engine_.run();  // control plane converges loss-free
  }

  Figure1 fig_;
  PolicySet policies_;
  Engine engine_;
  std::unique_ptr<Network> net_;
  std::vector<OrwgNode*> nodes_;
};

TEST_F(TransportTest, InOrderDeliveryOnCleanNetwork) {
  transport::TransportHost sender(*nodes_[fig_.campus[0].v], engine_);
  transport::TransportHost receiver(*nodes_[fig_.campus[6].v], engine_);

  std::vector<std::string> delivered;
  receiver.connect(fig_.campus[0])
      .set_message_handler([&](std::vector<std::uint8_t> msg) {
        delivered.emplace_back(msg.begin(), msg.end());
      });

  transport::Connection& conn = sender.connect(fig_.campus[6]);
  for (int i = 0; i < 20; ++i) {
    conn.send(bytes_of("message-" + std::to_string(i)));
  }
  engine_.run();
  ASSERT_EQ(delivered.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(delivered[static_cast<std::size_t>(i)],
              "message-" + std::to_string(i));
  }
  EXPECT_TRUE(conn.idle());
  EXPECT_EQ(conn.retransmissions(), 0u);
}

TEST_F(TransportTest, RecoversFromHeavyLoss) {
  transport::TransportHost sender(*nodes_[fig_.campus[0].v], engine_);
  transport::TransportHost receiver(*nodes_[fig_.campus[6].v], engine_);

  std::vector<std::string> delivered;
  receiver.connect(fig_.campus[0])
      .set_message_handler([&](std::vector<std::uint8_t> msg) {
        delivered.emplace_back(msg.begin(), msg.end());
      });

  // Establish both PRs loss-free, then turn on 20% loss.
  transport::Connection& conn = sender.connect(fig_.campus[6]);
  conn.send(bytes_of("warmup"));
  engine_.run();
  ASSERT_EQ(delivered.size(), 1u);

  net_->set_faults({.loss_rate = 0.20}, /*seed=*/99);
  for (int i = 0; i < 50; ++i) {
    conn.send(bytes_of("m" + std::to_string(i)));
  }
  engine_.run();
  net_->set_faults({}, 0);

  ASSERT_EQ(delivered.size(), 51u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(delivered[static_cast<std::size_t>(i) + 1],
              "m" + std::to_string(i));
  }
  EXPECT_FALSE(conn.failed());
  EXPECT_GT(conn.retransmissions(), 0u);
  EXPECT_GT(net_->total().msgs_lost, 0u);
}

TEST_F(TransportTest, WindowOneIsStopAndWait) {
  transport::GbnConfig config;
  config.window = 1;
  transport::TransportHost sender(*nodes_[fig_.campus[0].v], engine_,
                                  config);
  transport::TransportHost receiver(*nodes_[fig_.campus[6].v], engine_,
                                    config);
  std::vector<std::string> delivered;
  receiver.connect(fig_.campus[0])
      .set_message_handler([&](std::vector<std::uint8_t> msg) {
        delivered.emplace_back(msg.begin(), msg.end());
      });
  transport::Connection& conn = sender.connect(fig_.campus[6]);
  for (int i = 0; i < 8; ++i) conn.send(bytes_of(std::to_string(i)));
  engine_.run();
  ASSERT_EQ(delivered.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(delivered[static_cast<std::size_t>(i)], std::to_string(i));
  }
  EXPECT_TRUE(conn.idle());
}

TEST_F(TransportTest, BidirectionalConversation) {
  transport::TransportHost a(*nodes_[fig_.campus[1].v], engine_);
  transport::TransportHost b(*nodes_[fig_.campus[5].v], engine_);

  std::vector<std::string> at_b;
  int replies_pending = 0;
  b.connect(fig_.campus[1])
      .set_message_handler([&](std::vector<std::uint8_t> msg) {
        at_b.emplace_back(msg.begin(), msg.end());
        ++replies_pending;
      });
  std::vector<std::string> at_a;
  a.connect(fig_.campus[5])
      .set_message_handler([&](std::vector<std::uint8_t> msg) {
        at_a.emplace_back(msg.begin(), msg.end());
      });

  a.connect(fig_.campus[5]).send(bytes_of("ping"));
  engine_.run();
  ASSERT_EQ(at_b.size(), 1u);
  b.connect(fig_.campus[1]).send(bytes_of("pong"));
  engine_.run();
  ASSERT_EQ(at_a.size(), 1u);
  EXPECT_EQ(at_a[0], "pong");
}

TEST_F(TransportTest, SetupRetransmissionSurvivesLostSetup) {
  // Turn loss on BEFORE the PR exists: the setup packet itself may be
  // lost; the source must retry until the ack arrives.
  net_->set_faults({.loss_rate = 0.5}, /*seed=*/7);
  FlowSpec flow{fig_.campus[0], fig_.campus[6]};
  OrwgNode* src = nodes_[flow.src.v];
  ASSERT_TRUE(src->send_flow(flow, 1));
  engine_.run();
  net_->set_faults({}, 0);
  // The PR eventually established (or timed out -- with 5 retries at 50%
  // loss over 5 hops establishment is not guaranteed, but the machinery
  // must have either delivered or counted a timeout; never hung).
  EXPECT_GE(src->setup_timeouts() + src->setup_latency_ms().count(), 1u);
}

TEST_F(TransportTest, MidFlowLinkFailureRepairsPr) {
  FlowSpec flow{fig_.campus[0], fig_.campus[6]};
  OrwgNode* src = nodes_[flow.src.v];
  OrwgNode* dst = nodes_[flow.dst.v];
  ASSERT_TRUE(src->send_flow(flow, 2));
  engine_.run();
  ASSERT_EQ(dst->delivered(), 2u);

  // Kill the inter-backbone link the PR rides on.
  net_->set_link_state(
      *fig_.topo.find_link(fig_.backbone_west, fig_.backbone_east), false);
  engine_.run();

  // The next packets hit the dead link; the PG reports the broken PR
  // back to the source, which resynthesizes over the lateral detour.
  ASSERT_TRUE(src->send_flow(flow, 3));
  engine_.run();
  EXPECT_GE(src->pr_errors(), 1u);
  ASSERT_TRUE(src->send_flow(flow, 3));
  engine_.run();
  EXPECT_GE(dst->delivered(), 5u);
  // The repaired PR avoids the dead link.
  const auto route = src->policy_route(flow);
  ASSERT_TRUE(route.has_value());
  for (std::size_t i = 0; i + 1 < route->size(); ++i) {
    EXPECT_FALSE((*route)[i] == fig_.backbone_west &&
                 (*route)[i + 1] == fig_.backbone_east);
  }
}

TEST_F(TransportTest, ErrorDrivenRepairIsAutomatic) {
  FlowSpec flow{fig_.campus[0], fig_.campus[6]};
  OrwgNode* src = nodes_[flow.src.v];
  ASSERT_TRUE(src->send_flow(flow, 1));
  engine_.run();

  net_->set_link_state(
      *fig_.topo.find_link(fig_.backbone_west, fig_.backbone_east), false);
  engine_.run();
  // One packet dies on the broken PR; the resulting error makes the
  // source resynthesize AND set up the replacement PR on its own.
  ASSERT_TRUE(src->send_flow(flow, 1));
  engine_.run();
  EXPECT_EQ(src->pr_errors(), 1u);
  EXPECT_EQ(src->pr_repairs(), 1u);
  // The repaired PR is immediately usable: the very next send delivers.
  const auto before = nodes_[flow.dst.v]->delivered();
  ASSERT_TRUE(src->send_flow(flow, 4));
  engine_.run();
  EXPECT_EQ(nodes_[flow.dst.v]->delivered(), before + 4);
}

TEST_F(TransportTest, TeardownClearsPathState) {
  FlowSpec flow{fig_.campus[0], fig_.campus[6]};
  OrwgNode* src = nodes_[flow.src.v];
  ASSERT_TRUE(src->send_flow(flow, 1));
  engine_.run();
  const auto route = src->policy_route(flow);
  ASSERT_TRUE(route.has_value());
  for (AdId ad : *route) {
    EXPECT_GE(nodes_[ad.v]->gateway().installed(), 1u);
  }
  src->teardown(flow);
  engine_.run();
  for (AdId ad : *route) {
    EXPECT_EQ(nodes_[ad.v]->gateway().installed(), 0u) <<
        fig_.topo.ad(ad).name;
  }
}

TEST_F(TransportTest, SenderGivesUpWhenPeerUnreachable) {
  transport::GbnConfig config;
  config.max_retransmit_rounds = 3;
  config.retransmit_timeout_ms = 100.0;
  transport::TransportHost sender(*nodes_[fig_.campus[0].v], engine_,
                                  config);
  transport::Connection& conn = sender.connect(fig_.campus[6]);
  conn.send(bytes_of("hello"));
  engine_.run();
  // Sever campus6 entirely, then keep talking.
  net_->set_link_state(
      *fig_.topo.find_link(fig_.regional[3], fig_.campus[6]), false);
  engine_.run();
  conn.send(bytes_of("into the void"));
  engine_.run();
  EXPECT_TRUE(conn.failed());
}

TEST_F(TransportTest, PeerCrashMidWindowFailsStreamAndNewGenerationResumes) {
  // The receiver's AD dies with unacked segments in the sender's window
  // and restarts cold (new node object, new generation). GBN receiver
  // state does not survive a restart, so the OLD stream must fail
  // cleanly at the sender (bounded give-up, no duplicate or reordered
  // delivery to the revived peer) and a NEW connection over the
  // reconverged control plane must work end to end.
  net_->set_node_factory(
      [this](AdId) { return std::make_unique<OrwgNode>(&policies_); });
  // Crash oracle on: neighbors observe the death, and the restart's
  // recovery signal triggers the LSDB resync the revived route server
  // needs before it can accept or synthesize anything.
  net_->set_crash_notifications(true);
  transport::GbnConfig config;
  config.max_retransmit_rounds = 4;
  config.retransmit_timeout_ms = 100.0;
  const AdId src_ad = fig_.campus[0];
  const AdId dst_ad = fig_.campus[6];

  transport::TransportHost sender(*nodes_[src_ad.v], engine_, config);
  auto receiver = std::make_unique<transport::TransportHost>(
      *nodes_[dst_ad.v], engine_, config);
  std::vector<std::string> delivered;
  receiver->connect(src_ad).set_message_handler(
      [&](std::vector<std::uint8_t> msg) {
        delivered.emplace_back(msg.begin(), msg.end());
      });
  transport::Connection& conn = sender.connect(dst_ad);
  conn.send(bytes_of("before-crash"));
  engine_.run();
  ASSERT_EQ(delivered.size(), 1u);

  // Crash the peer, then stuff the window: every new segment is unacked.
  const std::uint64_t old_generation = net_->generation(dst_ad);
  receiver.reset();  // host of the about-to-die node: out of scope first
  net_->crash(dst_ad);
  for (int i = 0; i < 6; ++i) conn.send(bytes_of("lost-" + std::to_string(i)));
  engine_.run();
  EXPECT_TRUE(conn.failed()) << "sender must give up, not spin forever";
  EXPECT_GT(conn.retransmissions(), 0u);

  // Cold restart: new generation, empty control plane; let it resync.
  net_->restart(dst_ad);
  EXPECT_GT(net_->generation(dst_ad), old_generation);
  engine_.run();

  // A fresh connection pair (new sender stream, new receiver state on
  // the restarted node) resumes service; the old stream stays dead.
  auto* revived = static_cast<OrwgNode*>(net_->node(dst_ad));
  ASSERT_NE(revived, nullptr);
  // The first post-restart round still rides the sender's stale PR; the
  // revived gateway has no state for that handle, reports the broken PR
  // back, and the source re-establishes -- then the receiver's ACKs need
  // their own reverse PR setup. That full chain (error unwind + two
  // setup exchanges) takes ~500ms of sim time, so the new stream gets a
  // retry budget that covers it; the OLD stream keeps the tight config
  // and stays failed.
  transport::GbnConfig resume_config = config;
  resume_config.max_retransmit_rounds = 12;
  transport::TransportHost sender2(*nodes_[src_ad.v], engine_, resume_config);
  transport::TransportHost receiver2(*revived, engine_, resume_config);
  std::vector<std::string> delivered2;
  receiver2.connect(src_ad).set_message_handler(
      [&](std::vector<std::uint8_t> msg) {
        delivered2.emplace_back(msg.begin(), msg.end());
      });
  transport::Connection& conn2 = sender2.connect(dst_ad);
  for (int i = 0; i < 5; ++i) conn2.send(bytes_of("m" + std::to_string(i)));
  engine_.run();
  ASSERT_EQ(delivered2.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(delivered2[static_cast<std::size_t>(i)],
              "m" + std::to_string(i));
  }
  EXPECT_TRUE(conn2.idle());
  EXPECT_FALSE(conn2.failed());
  // The recovery was ARQ-driven: the stale-PR rounds were lost (and
  // reported by the revived gateway), then retransmitted on a fresh PR.
  EXPECT_GT(conn2.retransmissions(), 0u);
  EXPECT_GT(revived->data_drops(), 0u)
      << "revived gateway never saw (and refused) the stale handle";
  EXPECT_TRUE(conn.failed());
  EXPECT_EQ(delivered.size(), 1u) << "old stream must not deliver again";
}

}  // namespace
}  // namespace idr
