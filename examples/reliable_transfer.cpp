// Reliable file-style transfer over a lossy policy-routed internet.
//
// The paper leaves "sequencing and reliability ... to the transport
// layer" (§5.4.1); this example runs the repository's Go-Back-N
// transport over an ORWG Policy Route while the network drops 15% of
// packets, and shows the ARQ statistics.
//
//   ./build/examples/reliable_transfer
#include <cstdio>
#include <string>

#include "policy/generator.hpp"
#include "proto/orwg/orwg_node.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "topology/figure1.hpp"
#include "transport/gbn.hpp"

int main() {
  using namespace idr;

  Figure1 fig = build_figure1();
  PolicySet policies = make_open_policies(fig.topo);

  Engine engine;
  Network net(engine, fig.topo);
  std::vector<OrwgNode*> nodes;
  for (const Ad& ad : fig.topo.ads()) {
    auto node = std::make_unique<OrwgNode>(&policies);
    nodes.push_back(node.get());
    net.attach(ad.id, std::move(node));
  }
  net.start_all();
  engine.run();

  transport::TransportHost sender(*nodes[fig.campus[0].v], engine);
  transport::TransportHost receiver(*nodes[fig.campus[6].v], engine);

  std::size_t received = 0;
  bool in_order = true;
  std::size_t expected_chunk = 0;
  receiver.connect(fig.campus[0])
      .set_message_handler([&](std::vector<std::uint8_t> msg) {
        const std::string text(msg.begin(), msg.end());
        if (text != "chunk:" + std::to_string(expected_chunk)) {
          in_order = false;
        }
        ++expected_chunk;
        ++received;
      });

  auto chunk_message = [](int i) {
    const std::string text = "chunk:" + std::to_string(i);
    return std::vector<std::uint8_t>(text.begin(), text.end());
  };

  // Establish the forward and reverse PRs cleanly with the first chunk,
  // then lose 15% of every packet -- data, acks, everything.
  transport::Connection& conn = sender.connect(fig.campus[6]);
  conn.send(chunk_message(0));
  engine.run();

  net.set_faults({.loss_rate = 0.15}, /*seed=*/2026);
  constexpr int kChunks = 200;
  for (int i = 1; i < kChunks; ++i) conn.send(chunk_message(i));
  engine.run();
  net.set_faults({}, 0);

  std::printf("chunks sent:          %d\n", kChunks);
  std::printf("chunks delivered:     %zu (%s)\n", received,
              in_order ? "in order" : "OUT OF ORDER");
  std::printf("network losses:       %llu packets\n",
              static_cast<unsigned long long>(net.total().msgs_lost));
  std::printf("GBN retransmissions:  %llu\n",
              static_cast<unsigned long long>(conn.retransmissions()));
  std::printf("duplicates discarded: %llu (receiver side)\n",
              static_cast<unsigned long long>(
                  receiver.connect(fig.campus[0]).duplicates_discarded()));
  std::printf("sim time:             %.1f s\n", engine.now() / 1000.0);
  return received == kChunks && in_order ? 0 : 1;
}
