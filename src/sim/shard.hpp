// Sharded parallel backend for the simulation engine (ROADMAP item 2,
// after "Feasibility study on distributed simulations of BGP"): the AD
// graph is partitioned into shards, each shard owns a calendar queue, and
// shards advance in conservative windows.
//
// Synchronization model. Let L (the lookahead) be the minimum delay over
// every cross-shard link. A frame sent at time s over a cross-shard link
// arrives no earlier than s + L, so all events in [Tmin, Tmin + L) --
// Tmin being the globally earliest pending event -- are causally
// independent across shards and may run concurrently. The coordinator
// repeatedly:
//   1. picks E = min(Tmin + L, t_control), where t_control is the next
//      control-stream event (driver/harness actions that may touch any
//      AD: failure injection, invariant sweeps, grace deadlines);
//   2. lets every shard run its own events with t < E (worker threads,
//      or inline on the driving thread when threads == 0);
//   3. drains the cross-shard mailboxes into the target shard queues and,
//      when the control event is globally earliest, runs it alone.
// Cross-shard deliveries land in a mutex-protected mailbox per target
// shard and are merged at the barrier; since every event key
// (t, stream, seq) is assigned identically in the sequential backend
// (engine.hpp), the merged order -- and therefore every simulation
// result -- is byte-identical to a sequential run for any shard count.
//
// Conservative rather than optimistic sync: no rollback machinery, no
// state snapshots, and -- decisive here -- bit-for-bit determinism falls
// out of the window invariant instead of needing anti-messages to restore
// it. The hierarchy gives real lookahead (inter-AD links are the slow
// long-haul hops), so the optimism would buy little.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/barrier.hpp"
#include "sim/engine.hpp"
#include "topology/graph.hpp"

namespace idr {

// A partition of the AD graph. Produced by make_shard_plan (or any custom
// partitioner); consumed by Engine::enable_sharding.
struct ShardPlan {
  std::uint32_t shards = 1;
  std::vector<std::uint32_t> shard_of;  // indexed by AdId
  // Window bound actually used. At most min_cross_delay_ms; smaller only
  // when ShardPlanOptions::lookahead_override_ms shrinks it (stress).
  double lookahead_ms = std::numeric_limits<double>::infinity();
  // Minimum delay over links whose endpoints land in different shards.
  double min_cross_delay_ms = std::numeric_limits<double>::infinity();
  std::vector<LinkId> cross_links;
  // Per-shard sum of (1 + degree) over assigned ADs: the static load proxy
  // the greedy balancer minimizes.
  std::vector<std::uint64_t> shard_weight;

  [[nodiscard]] std::uint32_t shard_of_ad(AdId ad) const {
    return shard_of[ad.v];
  }
  // max shard weight / mean shard weight (1.0 = perfectly balanced).
  [[nodiscard]] double balance_factor() const noexcept;
};

struct ShardPlanOptions {
  // 0 = use the full legal lookahead (min cross-shard delay). A positive
  // value shrinks the window bound below it -- never enlarges it -- to
  // stress the window-boundary machinery in tests.
  double lookahead_override_ms = 0.0;
};

// Partition `topo` into (at most) `shards` shards:
//   * ADs joined by a zero-delay link are merged into one unit (a
//     cross-shard link with no delay would force a zero lookahead and
//     deadlock the window loop);
//   * each regional subtree (a regional AD plus the metro/campus ADs
//     hanging under it via hierarchical links) is one unit, so shard
//     boundaries fall on the slow long-haul links and the lookahead stays
//     large; backbone/transit ADs stay individually placeable;
//   * units are placed largest-first onto the lightest shard (LPT), ties
//     broken by lowest id -- fully deterministic.
// Degenerate inputs are fine: shards == 1 yields no cross links (infinite
// lookahead), shards > units leaves trailing shards empty.
[[nodiscard]] ShardPlan make_shard_plan(const Topology& topo,
                                        std::uint32_t shards,
                                        const ShardPlanOptions& opts = {});

namespace detail {

// Owns the window loop, the per-shard queues, the cross-shard mailboxes,
// and the worker threads of a sharded Engine. Created by
// Engine::enable_sharding; every Engine scheduling/run call delegates
// here when sharding is on.
class ShardRuntime {
 public:
  ShardRuntime(Engine& engine, ShardPlan plan, unsigned threads);
  ~ShardRuntime();

  void schedule_control(SimTime t, Engine::Callback fn);
  void schedule_node(SimTime t, StreamId stream, std::uint32_t owner_ad,
                     Engine::Callback fn);

  std::size_t run(std::size_t max_events);
  std::size_t run_until(SimTime t);

  [[nodiscard]] bool empty() const;
  [[nodiscard]] std::size_t pending() const;
  [[nodiscard]] std::uint64_t events_processed() const;
  [[nodiscard]] const ParallelStats& stats() const noexcept { return stats_; }

 private:
  struct Shard {
    CalendarQueue q;
    std::uint64_t processed = 0;
    // Written by the shard's executor inside a window, read by the
    // coordinator after the barrier.
    std::uint64_t window_processed = 0;
    SimTime window_last_t = 0.0;
  };
  struct Mailbox {
    std::mutex mu;
    std::vector<SimEvent> box;
  };

  // The window loop. bounded: stop at `horizon` (inclusive) instead of
  // draining. Returns events processed by this call.
  std::size_t drive(bool bounded, SimTime horizon, std::size_t max_events);
  void run_shard_window(std::uint32_t s);
  void drain_mailboxes();
  void worker_main(unsigned w);

  Engine& engine_;
  ShardPlan plan_;
  unsigned threads_ = 0;  // worker threads; 0 = inline windows
  std::vector<Shard> shards_;
  std::vector<std::unique_ptr<Mailbox>> mail_;  // indexed by target shard
  CalendarQueue control_;
  std::uint64_t control_processed_ = 0;
  // Current window, published to workers through the barrier.
  SimTime window_bound_ = 0.0;
  bool window_inclusive_ = false;
  ParallelStats stats_;
  WindowBarrier barrier_;
  std::vector<std::thread> workers_;
};

}  // namespace detail
}  // namespace idr
