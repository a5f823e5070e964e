#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/failure.hpp"
#include "sim/network.hpp"
#include "topology/figure1.hpp"
#include "util/prng.hpp"
#include "wire/codec.hpp"

namespace idr {
namespace {

TEST(Engine, RunsEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.at(5.0, [&] { order.push_back(2); });
  e.at(1.0, [&] { order.push_back(1); });
  e.at(9.0, [&] { order.push_back(3); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(e.now(), 9.0);
}

TEST(Engine, SameTimeIsFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.at(1.0, [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, AfterIsRelative) {
  Engine e;
  double fired_at = -1.0;
  e.at(10.0, [&] {
    e.after(5.0, [&] { fired_at = e.now(); });
  });
  e.run();
  EXPECT_DOUBLE_EQ(fired_at, 15.0);
}

TEST(Engine, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Engine e;
  int fired = 0;
  e.at(1.0, [&] { ++fired; });
  e.at(5.0, [&] { ++fired; });
  e.at(10.0, [&] { ++fired; });
  e.run_until(5.0);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(e.now(), 5.0);
  EXPECT_EQ(e.pending(), 1u);
}

#ifdef NDEBUG
TEST(Engine, SchedulingIntoThePastClampsToNow) {
  Engine e;
  double fired_at = -1.0;
  e.at(10.0, [&] { e.at(5.0, [&] { fired_at = e.now(); }); });
  e.run();
  // The stale timestamp is clamped: the event runs "now", never rewinds
  // the clock.
  EXPECT_DOUBLE_EQ(fired_at, 10.0);
}
#else
TEST(EngineDeathTest, SchedulingIntoThePastAssertsInDebug) {
  EXPECT_DEATH(
      {
        Engine e;
        e.at(10.0, [&] { e.at(5.0, [] {}); });
        e.run();
      },
      "past");
}
#endif

TEST(Engine, EventsCanScheduleEvents) {
  Engine e;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) e.after(1.0, recurse);
  };
  e.at(0.0, recurse);
  e.run();
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(e.now(), 99.0);
}

// A trivial echoing node for network tests.
class EchoNode : public Node {
 public:
  void on_message(AdId from, std::span<const std::uint8_t> bytes) override {
    received.emplace_back(from, std::vector<std::uint8_t>(bytes.begin(),
                                                          bytes.end()));
  }
  void on_link_change(AdId neighbor, bool up) override {
    link_events.emplace_back(neighbor, up);
  }
  std::vector<std::pair<AdId, std::vector<std::uint8_t>>> received;
  std::vector<std::pair<AdId, bool>> link_events;
};

class NetworkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = topo_.add_ad(AdClass::kCampus, AdRole::kStub);
    b_ = topo_.add_ad(AdClass::kCampus, AdRole::kStub);
    c_ = topo_.add_ad(AdClass::kCampus, AdRole::kStub);
    ab_ = topo_.add_link(a_, b_, LinkClass::kLateral, 3.0);
    topo_.add_link(b_, c_, LinkClass::kLateral, 4.0);
    net_ = std::make_unique<Network>(engine_, topo_);
    for (AdId id : {a_, b_, c_}) {
      auto node = std::make_unique<EchoNode>();
      nodes_[id.v] = node.get();
      net_->attach(id, std::move(node));
    }
    net_->start_all();
  }

  Topology topo_;
  Engine engine_;
  std::unique_ptr<Network> net_;
  EchoNode* nodes_[3] = {};
  AdId a_, b_, c_;
  LinkId ab_;
};

TEST_F(NetworkTest, DeliversWithLinkDelay) {
  EXPECT_TRUE(net_->send(a_, b_, {1, 2, 3}));
  engine_.run();
  ASSERT_EQ(nodes_[b_.v]->received.size(), 1u);
  EXPECT_EQ(nodes_[b_.v]->received[0].first, a_);
  EXPECT_EQ(nodes_[b_.v]->received[0].second,
            (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(engine_.now(), 3.0);
}

TEST_F(NetworkTest, NonAdjacentSendDrops) {
  EXPECT_FALSE(net_->send(a_, c_, {9}));
  engine_.run();
  EXPECT_TRUE(nodes_[c_.v]->received.empty());
  EXPECT_EQ(net_->total().msgs_dropped, 1u);
}

TEST_F(NetworkTest, DownLinkDrops) {
  net_->set_link_state(ab_, false);
  EXPECT_FALSE(net_->send(a_, b_, {1}));
  engine_.run();
  EXPECT_TRUE(nodes_[b_.v]->received.empty());
}

TEST_F(NetworkTest, InFlightMessageDroppedWhenLinkFails) {
  EXPECT_TRUE(net_->send(a_, b_, {1}));
  // The link dies while the message is in flight (delay is 3ms).
  engine_.at(1.0, [&] { net_->set_link_state(ab_, false); });
  engine_.run();
  EXPECT_TRUE(nodes_[b_.v]->received.empty());
  EXPECT_EQ(net_->total().msgs_dropped, 1u);
}

TEST_F(NetworkTest, LinkChangeNotifiesBothEnds) {
  net_->set_link_state(ab_, false);
  ASSERT_EQ(nodes_[a_.v]->link_events.size(), 1u);
  ASSERT_EQ(nodes_[b_.v]->link_events.size(), 1u);
  EXPECT_EQ(nodes_[a_.v]->link_events[0], std::make_pair(b_, false));
  EXPECT_EQ(nodes_[b_.v]->link_events[0], std::make_pair(a_, false));
  // Redundant transition is suppressed.
  net_->set_link_state(ab_, false);
  EXPECT_EQ(nodes_[a_.v]->link_events.size(), 1u);
}

TEST_F(NetworkTest, CountersTrackBytes) {
  net_->send(a_, b_, {1, 2, 3, 4, 5});
  engine_.run();
  EXPECT_EQ(net_->counters(a_).msgs_sent, 1u);
  EXPECT_EQ(net_->counters(a_).bytes_sent, 5u);
  EXPECT_EQ(net_->counters(b_).msgs_delivered, 1u);
  EXPECT_EQ(net_->total().bytes_sent, 5u);
  net_->reset_counters();
  EXPECT_EQ(net_->total().msgs_sent, 0u);
}

TEST_F(NetworkTest, PerByteDelayExtendsDelivery) {
  net_->set_per_byte_delay(0.5);
  net_->send(a_, b_, {1, 2, 3, 4});  // 3.0 + 4 * 0.5 = 5.0
  engine_.run();
  EXPECT_DOUBLE_EQ(engine_.now(), 5.0);
}

TEST_F(NetworkTest, IngressQueueServesByClassAndShedsTheLeastImportant) {
  // Bounded class-priority ingress queues, 4 frames per AD. Nine frames
  // from a reach b in one instant, two from b reach a in the same one.
  net_->set_overload(OverloadConfig{.queue_limit = 4});
  const auto send = [&](AdId from, AdId to, char tag, MsgClass cls) {
    ASSERT_TRUE(net_->send(
        from, to, std::vector<std::uint8_t>{static_cast<std::uint8_t>(tag)},
        cls));
  };
  send(a_, b_, 'r', MsgClass::kRefresh);
  send(a_, b_, 'u', MsgClass::kUpdate);
  send(a_, b_, 'R', MsgClass::kRefresh);
  send(a_, b_, 'U', MsgClass::kUpdate);  // queue full from here on
  send(a_, b_, 'w', MsgClass::kWithdrawal);  // evicts R, the newest refresh
  send(a_, b_, 'k', MsgClass::kKeepalive);   // evicts r, the last refresh
  send(a_, b_, 'x', MsgClass::kRefresh);     // nothing below: x is shed
  send(a_, b_, 'y', MsgClass::kUpdate);      // nothing below: y is shed
  send(a_, b_, 'W', MsgClass::kWithdrawal);  // evicts U, the newest update
  send(b_, a_, '1', MsgClass::kUpdate);
  send(b_, a_, '2', MsgClass::kUpdate);
  engine_.run();

  // Strict class order on service, FIFO within a class.
  std::string served_at_b;
  for (const auto& [from, bytes] : nodes_[b_.v]->received) {
    EXPECT_EQ(from, a_);
    served_at_b += static_cast<char>(bytes.at(0));
  }
  EXPECT_EQ(served_at_b, "kwWu");
  EXPECT_EQ(nodes_[a_.v]->received.size(), 2u);

  OverloadStats s = net_->overload_stats();
  EXPECT_EQ(s.enqueued, 9u);  // 7 at b, 2 at a
  EXPECT_EQ(s.served, 6u);
  EXPECT_EQ(s.dropped[static_cast<std::size_t>(MsgClass::kKeepalive)], 0u);
  EXPECT_EQ(s.dropped[static_cast<std::size_t>(MsgClass::kWithdrawal)], 0u);
  EXPECT_EQ(s.dropped[static_cast<std::size_t>(MsgClass::kUpdate)], 2u);
  EXPECT_EQ(s.dropped[static_cast<std::size_t>(MsgClass::kRefresh)], 3u);
  EXPECT_EQ(s.dropped_total(), 5u);
  EXPECT_EQ(s.peak_depth, 4u);  // b's queue; a's peaked at 2
  EXPECT_EQ(s.cleared_on_crash, 0u);
  EXPECT_EQ(net_->counters(b_).msgs_dropped, 5u);
  EXPECT_EQ(net_->counters(b_).msgs_delivered, 4u);
  EXPECT_EQ(net_->counters(a_).msgs_delivered, 2u);

  // b crashes with three frames from c queued, before their service.
  const SimTime arrival = engine_.now() + 4.0;
  for (const char tag : {'p', 'q', 's'}) send(c_, b_, tag, MsgClass::kUpdate);
  engine_.at(arrival + 0.25, [&] { net_->crash(b_); });
  engine_.run();
  s = net_->overload_stats();
  EXPECT_EQ(s.enqueued, 12u);
  EXPECT_EQ(s.served, 6u);
  EXPECT_EQ(s.cleared_on_crash, 3u);
  EXPECT_EQ(s.peak_depth, 4u);
  EXPECT_EQ(net_->total().msgs_delivered, 6u);
}

TEST(FailureInjector, ScriptedFailureAndRepair) {
  Topology topo;
  const AdId a = topo.add_ad(AdClass::kCampus, AdRole::kStub);
  const AdId b = topo.add_ad(AdClass::kCampus, AdRole::kStub);
  const LinkId l = topo.add_link(a, b, LinkClass::kLateral);
  Engine engine;
  Network net(engine, topo);
  net.attach(a, std::make_unique<EchoNode>());
  net.attach(b, std::make_unique<EchoNode>());
  net.start_all();
  FailureInjector injector(net);
  injector.fail_link_at(l, 10.0, 5.0);
  engine.run_until(12.0);
  EXPECT_FALSE(topo.link(l).up);
  engine.run_until(20.0);
  EXPECT_TRUE(topo.link(l).up);
  EXPECT_EQ(injector.failures_injected(), 1u);
}

TEST(FailureInjector, RandomFailuresStayWithinHorizon) {
  Figure1 fig = build_figure1();
  Engine engine;
  Network net(engine, fig.topo);
  for (const Ad& ad : fig.topo.ads()) {
    net.attach(ad.id, std::make_unique<EchoNode>());
  }
  net.start_all();
  FailureInjector injector(net);
  Prng prng(42);
  injector.random_failures(prng, 500.0, 100.0, 10'000.0);
  engine.run();
  EXPECT_GT(injector.failures_injected(), 0u);
  // Every failure's repair is scheduled even when it lands past the
  // horizon, so after a full drain no link is left down forever.
  for (const Link& l : fig.topo.links()) {
    EXPECT_TRUE(l.up) << "link " << l.id.v << " was never repaired";
  }
}

TEST(FailureInjector, ScriptedCrashAndRestart) {
  Topology topo;
  const AdId a = topo.add_ad(AdClass::kCampus, AdRole::kStub);
  const AdId b = topo.add_ad(AdClass::kCampus, AdRole::kStub);
  topo.add_link(a, b, LinkClass::kLateral);
  Engine engine;
  Network net(engine, topo);
  net.set_node_factory([](AdId) { return std::make_unique<EchoNode>(); });
  net.attach(a, std::make_unique<EchoNode>());
  net.attach(b, std::make_unique<EchoNode>());
  net.start_all();
  FailureInjector injector(net);
  injector.crash_node_at(b, 10.0, 5.0);
  engine.run_until(12.0);
  EXPECT_FALSE(net.alive(b));
  engine.run_until(20.0);
  EXPECT_TRUE(net.alive(b));
  EXPECT_EQ(injector.crashes_injected(), 1u);
  EXPECT_EQ(net.crashes(), 1u);
}

TEST_F(NetworkTest, InFlightMessageDroppedWhenReceiverCrashes) {
  net_->set_node_factory([](AdId) { return std::make_unique<EchoNode>(); });
  EXPECT_TRUE(net_->send(a_, b_, {1}));
  engine_.at(1.0, [&] { net_->crash(b_); });
  engine_.run();
  EXPECT_EQ(net_->total().msgs_dropped, 1u);
  EXPECT_EQ(net_->total().msgs_delivered, 0u);
}

TEST_F(NetworkTest, DuplicationDeliversTwiceAndIsCounted) {
  FaultConfig faults;
  faults.duplicate_rate = 1.0;
  net_->set_faults(faults, 5);
  net_->send(a_, b_, {1, 2});
  engine_.run();
  EXPECT_EQ(nodes_[b_.v]->received.size(), 2u);
  EXPECT_EQ(net_->counters(b_).msgs_duplicated, 1u);
}

TEST_F(NetworkTest, CorruptionFlipsBitsAndChecksumDropsWhenPerfect) {
  FaultConfig faults;
  faults.corrupt_rate = 1.0;
  faults.corrupt_deliver_fraction = 1.0;  // no checksum: mangled delivery
  net_->set_faults(faults, 5);
  net_->send(a_, b_, {0, 0, 0, 0});
  engine_.run();
  ASSERT_EQ(nodes_[b_.v]->received.size(), 1u);
  EXPECT_NE(nodes_[b_.v]->received[0].second,
            (std::vector<std::uint8_t>{0, 0, 0, 0}));
  EXPECT_EQ(net_->counters(b_).msgs_corrupted, 1u);

  faults.corrupt_deliver_fraction = 0.0;  // perfect checksum: dropped
  net_->set_faults(faults, 5);
  net_->send(a_, b_, {0, 0, 0, 0});
  engine_.run();
  EXPECT_EQ(nodes_[b_.v]->received.size(), 1u);
  EXPECT_EQ(net_->counters(b_).msgs_corrupted, 2u);
}

TEST_F(NetworkTest, KeepaliveDeclaresSilentNeighborDeadAndRevivesIt) {
  net_->set_node_factory([](AdId) { return std::make_unique<EchoNode>(); });
  net_->set_link_notifications(false);
  net_->set_keepalive(KeepaliveConfig{.interval_ms = 10.0,
                                      .miss_threshold = 3});
  net_->crash(b_);
  EchoNode* a_node = nodes_[a_.v];
  engine_.run_until(100.0);
  // a heard nothing from b for > 3 intervals: declared dead.
  ASSERT_FALSE(a_node->link_events.empty());
  EXPECT_EQ(a_node->link_events.back(), std::make_pair(b_, false));
  EXPECT_FALSE(net_->node(a_)->neighbor_alive(b_));

  net_->restart(b_);
  engine_.run_until(300.0);
  // The restarted node's keepalives (and a's backed-off probes) revive
  // the adjacency on both sides.
  EXPECT_EQ(a_node->link_events.back(), std::make_pair(b_, true));
  EXPECT_TRUE(net_->node(a_)->neighbor_alive(b_));
  EXPECT_TRUE(net_->node(b_)->neighbor_alive(a_));
}

TEST_F(NetworkTest, StaleQueuedFrameNeverRevivesOrSustainsDeadNeighbor) {
  // Hold-timer edge: with overload protection a frame can be serviced
  // long after it arrived, carrying its (old) interface arrival time.
  // Such stale evidence must neither revive a declared-dead neighbor nor
  // postpone the re-expiry of one that revived and died again within a
  // hold interval.
  net_->set_link_notifications(false);
  net_->set_keepalive(KeepaliveConfig{.interval_ms = 10.0,
                                      .miss_threshold = 3});
  net_->crash(b_);
  EchoNode* a_node = nodes_[a_.v];
  engine_.run_until(100.0);
  ASSERT_EQ(a_node->link_events.back(), std::make_pair(b_, false));
  ASSERT_FALSE(net_->node(a_)->neighbor_alive(b_));

  const auto link = topo_.find_link(a_, b_);
  ASSERT_TRUE(link.has_value());
  const std::uint32_t slot = topo_.adjacency_slot(*link, a_);
  const std::vector<std::uint8_t> frame{0x7F};

  // A frame that arrived BEFORE the death declaration, serviced late out
  // of an ingress queue: must not vouch for the dead neighbor.
  net_->node(a_)->deliver(b_, slot, frame, /*heard_at=*/5.0);
  EXPECT_FALSE(net_->node(a_)->neighbor_alive(b_));
  EXPECT_EQ(a_node->link_events.back(), std::make_pair(b_, false));

  // Evidence from at/after the declaration revives the adjacency.
  net_->node(a_)->deliver(b_, slot, frame, engine_.now());
  EXPECT_TRUE(net_->node(a_)->neighbor_alive(b_));
  EXPECT_EQ(a_node->link_events.back(), std::make_pair(b_, true));

  // More stale frames trickle out of the queue; monotone last_heard
  // ignores them, so the revived-but-silent neighbor re-expires one hold
  // interval after the genuine evidence -- not off the stale timestamps,
  // and not never.
  net_->node(a_)->deliver(b_, slot, frame, /*heard_at=*/5.0);
  engine_.run_until(engine_.now() + 100.0);
  EXPECT_FALSE(net_->node(a_)->neighbor_alive(b_));
  EXPECT_EQ(a_node->link_events.back(), std::make_pair(b_, false));
}

TEST_F(NetworkTest, KeepaliveDetectsSilentLinkFailureWithoutOracle) {
  net_->set_link_notifications(false);
  net_->set_keepalive(KeepaliveConfig{.interval_ms = 10.0,
                                      .miss_threshold = 3});
  net_->set_link_state(ab_, false);  // no notification reaches the nodes
  EXPECT_TRUE(nodes_[a_.v]->link_events.empty());
  engine_.run_until(100.0);
  ASSERT_FALSE(nodes_[a_.v]->link_events.empty());
  EXPECT_EQ(nodes_[a_.v]->link_events.back(), std::make_pair(b_, false));
  net_->set_link_state(ab_, true);
  engine_.run_until(400.0);
  EXPECT_EQ(nodes_[a_.v]->link_events.back(), std::make_pair(b_, true));
}

}  // namespace
}  // namespace idr
