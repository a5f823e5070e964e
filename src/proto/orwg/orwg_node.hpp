// ORWG / IDPR-style node (paper §5.4.1): link state + source routing +
// explicit policy terms -- the architecture the paper concludes is best
// able to meet inter-AD policy routing requirements.
//
// Control plane: floods policy LSAs (adjacencies + the AD's transit
// Policy Terms; source route-selection criteria stay private). A Route
// Server synthesizes Policy Routes from the database. Data plane: the
// first packet toward a (destination, traffic class) acts as a Policy
// Route *setup* carrying the full AD-level source route; each AD's Policy
// Gateway validates the route against its local policy terms, caches the
// handle binding and forwards. Subsequent data packets carry only the
// 8-byte handle (avoiding the source-route header length the paper flags
// as the cost of source routing), are validated per-packet against the
// cached setup state, and are forwarded without any route computation at
// transit ADs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "policy/database.hpp"
#include "proto/orwg/policy_gateway.hpp"
#include "proto/orwg/policy_ls_node.hpp"
#include "proto/orwg/route_server.hpp"
#include "util/stats.hpp"

namespace idr {

// The link-state knobs come from PolicyLsConfig. With graceful restart the
// database -- and with it the route server's db_version-keyed cache --
// stays frozen while a neighbor is in grace, so Policy Routes are served
// memoized from the stale snapshot.
struct OrwgConfig : PolicyLsConfig {
  RouteServerConfig route_server;
  // Database distribution strategy (paper §6): 0 floods each LSA in its
  // own message immediately; > 0 batches LSAs accepted within the window
  // into one message per neighbor, trading propagation delay for
  // messages (measured by bench_db_distribution).
  double lsa_batch_ms = 0.0;
};

// The link-state control plane comes from PolicyLsNode; ORWG adds the
// route server, the policy gateway, the Policy Route plane and LSA
// batching. In hierarchical mode a stub's route-server query is answered
// by its transit parent -- the paper's model of the Route Server as the
// provider-side entity a stub consults.
class OrwgNode : public PolicyLsNode {
 public:
  explicit OrwgNode(const PolicySet* policies, OrwgConfig config = {})
      : PolicyLsNode(policies, /*publishes_source_policy=*/false),
        config_(config) {}

  void start() override;

  // Send `packets` data packets of this flow. The first use of a
  // (destination, traffic class) synthesizes a Policy Route and runs the
  // setup exchange; later packets ride the established PR by handle.
  // Returns false if the route server found no Policy Route.
  bool send_flow(const FlowSpec& flow, std::uint32_t packets);

  // Send one data packet carrying real application payload (transport
  // layer entry point). Queued behind the setup when the PR is not yet
  // established. Returns false if no Policy Route exists.
  bool send_data(const FlowSpec& flow, std::uint32_t seq,
                 std::vector<std::uint8_t> payload);

  // Tear the flow's Policy Route down along its path (paper: PRs are
  // long-lived, but policy or topology change eventually retires them).
  void teardown(const FlowSpec& flow);

  // Application hook invoked at the destination AD for every delivered
  // data packet.
  using DeliveryHandler = std::function<void(
      const FlowSpec& flow, std::uint32_t seq,
      std::span<const std::uint8_t> payload)>;
  void set_delivery_handler(DeliveryHandler handler) {
    delivery_handler_ = std::move(handler);
  }

  // The Policy Route the route server would use for this flow (no setup).
  [[nodiscard]] std::optional<std::vector<AdId>> policy_route(
      const FlowSpec& flow);

  // Ask the route server to precompute routes to all destinations.
  void precompute_all();

  [[nodiscard]] RouteServer& route_server() { return *route_server_; }
  [[nodiscard]] PolicyGateway& gateway() { return *gateway_; }

  // Data-plane statistics (as destination / as source).
  [[nodiscard]] std::uint64_t delivered() const noexcept {
    return delivered_;
  }
  [[nodiscard]] const Summary& delivery_latency_ms() const noexcept {
    return delivery_latency_ms_;
  }
  [[nodiscard]] const Summary& setup_latency_ms() const noexcept {
    return setup_latency_ms_;
  }
  [[nodiscard]] std::uint64_t route_failures() const noexcept {
    return route_failures_;
  }
  [[nodiscard]] std::uint64_t setup_naks() const noexcept {
    return setup_naks_;
  }
  [[nodiscard]] std::uint64_t data_drops() const noexcept {
    return data_drops_;
  }

  static constexpr std::uint8_t kMsgSetup = 2;
  static constexpr std::uint8_t kMsgData = 3;
  static constexpr std::uint8_t kMsgAck = 4;
  static constexpr std::uint8_t kMsgNak = 5;
  static constexpr std::uint8_t kMsgTeardown = 6;
  static constexpr std::uint8_t kMsgError = 7;
  static constexpr std::uint8_t kMsgLsaBatch = 8;

 private:
  struct ActivePr {
    PrHandle handle;
    FlowSpec flow;
    std::vector<AdId> path;
  };
  struct PendingPr {
    FlowSpec flow;
    std::vector<AdId> path;
    std::uint32_t packets_waiting = 0;
    std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>> queued;
    SimTime setup_sent_at = 0.0;
    std::uint32_t retries = 0;
  };

  // The end-to-end AD path composed from a transit-level synthesis
  // between the two endpoints' attachments (hierarchical mode).
  [[nodiscard]] std::optional<std::vector<AdId>> hierarchical_route(
      const FlowSpec& flow);
  void flush_pending_floods();
  bool establish_pr(const FlowSpec& flow, PendingPr pending);
  // Install our own hop, then send (and keep retrying) the setup.
  void start_setup(const FlowSpec& flow, std::vector<AdId> path,
                   PendingPr pending);
  void transmit_setup(PrHandle handle);
  void schedule_setup_retry(PrHandle handle);
  void send_data_packets(const ActivePr& pr, const FlowSpec& flow,
                         std::uint32_t packets);
  void send_one_data(const std::vector<AdId>& path, PrHandle handle,
                     AdId claimed_src, std::uint32_t seq,
                     std::span<const std::uint8_t> payload);
  void fail_active_pr(PrHandle handle, AdId report_from, AdId dead_next);
  void send_error(PrHandle handle, AdId to, AdId report_from, AdId dead_next);
  void handle_setup(AdId from, wire::Reader& r);
  void handle_data(AdId from, wire::Reader& r);
  void handle_ack(wire::Reader& r);
  void handle_nak(wire::Reader& r);
  void handle_teardown(wire::Reader& r);
  void handle_error(wire::Reader& r);

  [[nodiscard]] static std::uint64_t flow_key(const FlowSpec& flow) noexcept {
    return (static_cast<std::uint64_t>(flow.dst.v) << 32) |
           traffic_class_of(flow).index();
  }

  OrwgConfig config_;
  std::vector<std::pair<PolicyLsa, AdId>> pending_floods_;
  bool flush_scheduled_ = false;
  std::unique_ptr<RouteServer> route_server_;
  std::unique_ptr<PolicyGateway> gateway_;
  std::unordered_map<std::uint64_t, ActivePr> active_;    // by flow key
  std::unordered_map<std::uint64_t, PendingPr> pending_;  // by handle
  std::uint64_t next_handle_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t route_failures_ = 0;
  std::uint64_t setup_naks_ = 0;
  std::uint64_t setup_timeouts_ = 0;
  std::uint64_t data_drops_ = 0;
  std::uint64_t pr_errors_ = 0;  // data-plane errors received at source
  std::uint32_t data_seq_ = 0;
  Summary delivery_latency_ms_;
  Summary setup_latency_ms_;
  DeliveryHandler delivery_handler_;

 public:
  [[nodiscard]] std::uint64_t setup_timeouts() const noexcept {
    return setup_timeouts_;
  }
  [[nodiscard]] std::uint64_t pr_errors() const noexcept {
    return pr_errors_;
  }
  [[nodiscard]] std::uint64_t pr_repairs() const noexcept {
    return pr_repairs_;
  }
  // GR accounting: Policy Routes served from the route server's memoized
  // (db_version-frozen) cache while at least one neighbor was inside a
  // grace window.
  [[nodiscard]] std::uint64_t gr_memoized() const noexcept {
    return gr_memoized_;
  }

 protected:
  [[nodiscard]] const PolicyLsConfig& ls_config() const noexcept override {
    return config_;
  }
  void on_other_message(std::uint8_t type, AdId from,
                        wire::Reader& r) override;
  // Immediate flooding, or a batch per LSA window (lsa_batch_ms > 0).
  void flood_lsa(const PolicyLsa& lsa, AdId except, MsgClass cls) override;

 private:
  // Counts a route-server answer served from cache during a grace window
  // (the "memoized synthesis from the stale snapshot" the GR design
  // promises for the source-routing family).
  void note_gr_cache_hit(bool from_cache);

  std::uint64_t pr_repairs_ = 0;  // errors healed by immediate resynthesis
  std::uint64_t gr_memoized_ = 0;
};

}  // namespace idr
