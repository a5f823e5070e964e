// Discrete-event simulation engine with a simulated clock in milliseconds
// and two execution backends:
//
//  - sequential (the reference): a single event queue drained in key
//    order, with two interchangeable scheduler implementations that
//    produce the exact same pop order:
//      * kCalendar: a calendar queue (Brown 1988) with power-of-two
//        bucket ring and amortized O(1) enqueue/dequeue. The hot path at
//        paper scale (~1e5 ADs) where a binary heap's O(log n) and cache
//        misses dominate.
//      * kBinaryHeap: the original binary-heap order, kept as the
//        reference implementation for the differential equivalence tests.
//  - sharded parallel (enable_sharding): the AD graph is partitioned into
//    shards, each with its own calendar queue, synchronized conservatively
//    in windows bounded by the minimum cross-shard link delay (see
//    shard.hpp). Results are byte-identical to the sequential backend.
//
// Determinism across backends AND shard counts rests on the event key.
// Every event carries (t, stream, seq):
//  - t: absolute simulated time;
//  - stream: 0 is the control stream (driver/harness events: failure
//    injection, invariant sweeps, grace deadlines); stream ad+1 belongs
//    to AD `ad` (its timers and the frames it sends). At equal t, control
//    events sort first, then AD streams by id.
//  - seq: a per-stream counter bumped at schedule time. A stream is only
//    ever scheduled on by its single owner (the AD's own events, which
//    execute on one shard, or the serialized control phase), so the
//    assignment order -- hence the key -- is identical no matter how the
//    graph is sharded. Events for the same instant from one stream run in
//    scheduling order (FIFO), which keeps every experiment deterministic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace idr {

using SimTime = double;  // simulated milliseconds

// Event-key stream id; see file comment. kControlStream sorts before every
// AD stream at equal time.
using StreamId = std::uint32_t;
inline constexpr StreamId kControlStream = 0;

enum class SchedulerKind : std::uint8_t {
  kCalendar = 0,
  kBinaryHeap = 1,
};

struct ShardPlan;  // shard.hpp

// Deterministic accounting of a sharded run, independent of thread count
// and host: critical_path_events is the serial spine (per window, the
// busiest shard; plus every serialized control event), so
// available-parallelism speedup = total / critical_path regardless of how
// many cores actually ran the windows.
struct ParallelStats {
  std::uint64_t windows = 0;
  std::uint64_t control_events = 0;        // serialized between windows
  std::uint64_t parallel_events = 0;       // executed inside windows
  std::uint64_t critical_path_events = 0;  // sum of per-window maxima + control

  [[nodiscard]] double critical_path_speedup() const noexcept {
    if (critical_path_events == 0) return 1.0;
    return static_cast<double>(parallel_events + control_events) /
           static_cast<double>(critical_path_events);
  }
};

namespace detail {

class ShardRuntime;

struct SimEvent {
  SimTime t;
  StreamId stream;
  std::uint64_t seq;
  std::function<void()> fn;
};

// Total order shared by every backend: earliest time first, control
// stream before AD streams, FIFO within a stream via the per-stream
// sequence number. Written as "a is LATER than b" so it plugs into
// max-heap algorithms directly.
struct EventLater {
  bool operator()(const SimEvent& a, const SimEvent& b) const noexcept {
    if (a.t != b.t) return a.t > b.t;
    if (a.stream != b.stream) return a.stream > b.stream;
    return a.seq > b.seq;
  }
};

// Calendar queue over SimEvents. Buckets form a power-of-two ring indexed
// by the absolute "day" floor(t / width); each bucket is kept sorted
// DESCENDING by the event key so the minimum is bucket.back() and pops
// are pop_back(). The bucket width only affects performance, never pop
// order, so resizes (which recompute it from the live event population)
// cannot perturb simulation results.
class CalendarQueue {
 public:
  CalendarQueue() { buckets_.resize(kMinBuckets); }

  void push(SimEvent ev);
  // Pops the earliest event. Precondition: !empty().
  SimEvent pop();
  // Time of the earliest event. Precondition: !empty().
  [[nodiscard]] SimTime min_time();

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  // Introspection for the scheduler unit tests.
  [[nodiscard]] std::size_t bucket_count() const noexcept {
    return buckets_.size();
  }
  [[nodiscard]] double width() const noexcept { return width_; }

  static constexpr std::size_t kMinBuckets = 8;  // power of two

 private:
  [[nodiscard]] std::uint64_t day_of(SimTime t) const noexcept {
    return static_cast<std::uint64_t>(t / width_);
  }
  // Index of the bucket holding the earliest event; advances day_ to that
  // event's day. Precondition: !empty().
  std::size_t find_min_bucket();
  static void insert_sorted(std::vector<SimEvent>& bucket, SimEvent ev);
  void rehash(std::size_t nbuckets);

  std::vector<std::vector<SimEvent>> buckets_;
  std::size_t mask_ = kMinBuckets - 1;
  double width_ = 1.0;       // bucket width in simulated ms
  std::uint64_t day_ = 0;    // absolute bucket index the scan resumes from
  std::size_t size_ = 0;
};

// Per-thread execution context: which engine (if any) this thread is
// currently running a shard window for, the running event's time, and the
// shard it executes on. Engine::now() resolves through it so protocol
// code sees its own event's clock even while other shards run elsewhere.
struct ExecContext {
  const void* engine = nullptr;
  SimTime now = 0.0;
  std::uint32_t shard = 0;
  bool in_window = false;
};
[[nodiscard]] ExecContext& exec_context() noexcept;

}  // namespace detail

class Engine {
 public:
  using Callback = std::function<void()>;

  explicit Engine(SchedulerKind scheduler = SchedulerKind::kCalendar);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Clock of the calling execution context: inside a shard window, the
  // running event's time on that shard; otherwise the global clock.
  [[nodiscard]] SimTime now() const noexcept;
  [[nodiscard]] SchedulerKind scheduler() const noexcept { return scheduler_; }

  // Schedule on the control stream at an absolute simulated time (>= now).
  // Control events are serialized between windows on a sharded engine and
  // may touch any AD; scheduling one from inside a shard window is a bug
  // (checked).
  void at(SimTime t, Callback fn);
  // Schedule `delay` ms from now (control stream).
  void after(SimTime delay, Callback fn) { at(now() + delay, std::move(fn)); }

  // Schedule on an AD stream. `stream` keys the deterministic order (the
  // scheduling AD + 1); `owner_ad` is the AD whose state the callback
  // touches, i.e. the shard the event executes on. For a timer both are
  // the same AD; for a frame the stream is the sender's, the owner the
  // receiver's. Only the stream's owner context may schedule on it.
  void at_node(SimTime t, StreamId stream, std::uint32_t owner_ad,
               Callback fn);
  void after_node(SimTime delay, StreamId stream, std::uint32_t owner_ad,
                  Callback fn) {
    at_node(now() + delay, stream, owner_ad, std::move(fn));
  }

  // Switch this engine to the sharded parallel backend. Must be called
  // before anything is scheduled. `threads` worker threads execute the
  // windows (0 = run windows inline on the driving thread -- identical
  // results, no thread overhead). See shard.hpp for the plan.
  void enable_sharding(const ShardPlan& plan, unsigned threads = 0);
  // Window/critical-path accounting; null on a non-sharded engine.
  [[nodiscard]] const ParallelStats* parallel_stats() const noexcept;

  // Run the earliest pending event; false if the queue is empty.
  // Sequential backend only.
  bool step();

  // Drain the queue. Returns events processed. `max_events` guards against
  // runaway protocols (a protocol bug, not a simulation feature).
  std::size_t run(std::size_t max_events = 50'000'000);

  // Run events with time <= t, then advance the clock to t.
  std::size_t run_until(SimTime t);

  [[nodiscard]] bool empty() const noexcept;
  [[nodiscard]] std::size_t pending() const noexcept;
  [[nodiscard]] std::size_t events_processed() const noexcept;

 private:
  friend class detail::ShardRuntime;

  [[nodiscard]] SimTime peek_time();
  void push_sequential(detail::SimEvent ev);
  // Next per-stream sequence number (sequential backend: grows the table
  // on demand; the sharded runtime pre-sizes it in enable_sharding).
  [[nodiscard]] std::uint64_t next_seq(StreamId stream);

  SchedulerKind scheduler_;
  detail::CalendarQueue calendar_;
  std::vector<detail::SimEvent> heap_;  // std::push_heap/pop_heap, EventLater
  SimTime now_ = 0.0;
  std::vector<std::uint64_t> stream_seq_;
  std::size_t processed_ = 0;
  std::unique_ptr<detail::ShardRuntime> runtime_;
};

}  // namespace idr
