// Traditional Bellman-Ford distance-vector protocol (RIP-like), the
// paper's §4.3 baseline. Intentionally exhibits the classic pathologies
// the paper cites -- slow convergence and count-to-infinity -- unless
// split horizon / poisoned reverse are enabled, so the convergence bench
// can show them against ECMA's partial-order suppression and link state.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "proto/common/node.hpp"

namespace idr {

struct DvConfig {
  std::uint16_t infinity = 16;       // RIP-style small infinity
  bool split_horizon = false;
  bool poisoned_reverse = false;     // implies split horizon semantics
};

class DvNode : public ProtoNode {
 public:
  explicit DvNode(DvConfig config = {}) : config_(config) {}

  void start() override;
  void on_message(AdId from, std::span<const std::uint8_t> bytes) override;
  void on_link_change(AdId neighbor, bool up) override;

  [[nodiscard]] std::optional<AdId> next_hop(AdId dst) const;
  [[nodiscard]] std::uint16_t distance(AdId dst) const;
  [[nodiscard]] std::size_t route_count() const noexcept {
    return routes_.size();
  }
  [[nodiscard]] std::uint64_t updates_sent() const noexcept {
    return updates_sent_;
  }

  static constexpr std::uint8_t kMsgVector = 1;

 private:
  struct Route {
    std::uint16_t metric;
    AdId via;
  };

  void broadcast_vector();
  [[nodiscard]] std::vector<std::uint8_t> encode_vector_for(AdId neighbor);

  DvConfig config_;
  std::unordered_map<std::uint32_t, Route> routes_;  // dst -> route
  std::uint64_t updates_sent_ = 0;
};

}  // namespace idr
