// Shared base for protocol nodes: access to self/topology, neighbor
// enumeration, and PDU send helpers. Every concrete protocol PDU begins
// with a one-byte message type defined by that protocol.
#pragma once

#include <cstdint>
#include <ranges>
#include <span>
#include <vector>

#include "sim/network.hpp"
#include "topology/graph.hpp"
#include "wire/codec.hpp"

namespace idr {

class ProtoNode : public Node {
 protected:
  [[nodiscard]] AdId self() const noexcept { return self_; }
  [[nodiscard]] Network& net() noexcept { return *net_; }
  [[nodiscard]] const Network& net() const noexcept { return *net_; }
  [[nodiscard]] const Topology& topo() const noexcept { return net_->topo(); }

  // Neighbors this node considers usable: the link is up AND (when
  // keepalive is enabled) the hold timer has not declared the neighbor
  // dead. Filtering dead neighbors here is what lets the link-state
  // protocols stop advertising an adjacency to a crashed neighbor.
  // An allocation-free view in adjacency order, filtered as a range-for
  // walks it: this is the hot broadcast path at paper scale (1e5 ADs x
  // every flood/refresh).
  [[nodiscard]] auto live_neighbors() const {
    return net_->topo().neighbors(self_) |
           std::views::filter([this](const Adjacency& adj) {
             return net_->topo().link(adj.link).up &&
                    neighbor_alive(adj.neighbor);
           });
  }

  // Count-and-drop for a PDU that failed to decode or carried an unknown
  // message type: never abort on wire input.
  void drop_malformed() { net_->note_malformed(self_); }

  // Send an encoded PDU to an adjacent AD.
  void send_pdu(AdId to, wire::Writer&& w,
                MsgClass cls = MsgClass::kUpdate) {
    net_->send(self_, to, std::move(w).take(), cls);
  }

  // Send the same bytes to every live neighbor except `except`. The
  // encoded frame is shared across all receivers (one allocation).
  void send_to_neighbors(const std::vector<std::uint8_t>& bytes,
                         AdId except = kNoAd,
                         MsgClass cls = MsgClass::kUpdate) {
    Payload payload;
    for (const Adjacency& adj : live_neighbors()) {
      if (adj.neighbor == except) continue;
      if (!payload) payload = make_payload(bytes);
      net_->send(self_, adj.neighbor, payload, cls);
    }
  }
};

}  // namespace idr
