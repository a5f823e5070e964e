#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "sim/shard.hpp"
#include "util/check.hpp"

namespace idr {
namespace detail {

ExecContext& exec_context() noexcept {
  thread_local ExecContext ctx;
  return ctx;
}

void CalendarQueue::insert_sorted(std::vector<SimEvent>& bucket,
                                  SimEvent ev) {
  const auto it =
      std::upper_bound(bucket.begin(), bucket.end(), ev, EventLater{});
  bucket.insert(it, std::move(ev));
}

void CalendarQueue::push(SimEvent ev) {
  const std::uint64_t day = day_of(ev.t);
  // An event can land behind the scan position (e.g. scheduled "now" after
  // the scan already advanced past sparse buckets); rewind so it is found.
  if (day < day_) day_ = day;
  insert_sorted(buckets_[day & mask_], std::move(ev));
  ++size_;
  if (size_ > 2 * buckets_.size()) rehash(2 * buckets_.size());
}

std::size_t CalendarQueue::find_min_bucket() {
  // Scan the ring from day_: a non-empty bucket whose earliest event falls
  // inside the current day's window is the global minimum (any earlier
  // event would have to live in an earlier day, already scanned).
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const std::uint64_t day = day_ + i;
    const std::vector<SimEvent>& b = buckets_[day & mask_];
    if (!b.empty() &&
        b.back().t < static_cast<double>(day + 1) * width_) {
      day_ = day;
      return day & mask_;
    }
  }
  // Every pending event is more than a full ring ahead: direct-search the
  // bucket minima (rare; only under very sparse far-future schedules).
  std::size_t best = buckets_.size();
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b].empty()) continue;
    if (best == buckets_.size() ||
        EventLater{}(buckets_[best].back(), buckets_[b].back())) {
      best = b;
    }
  }
  day_ = day_of(buckets_[best].back().t);
  return best;
}

SimTime CalendarQueue::min_time() {
  return buckets_[find_min_bucket()].back().t;
}

SimEvent CalendarQueue::pop() {
  std::vector<SimEvent>& b = buckets_[find_min_bucket()];
  SimEvent ev = std::move(b.back());
  b.pop_back();
  --size_;
  if (buckets_.size() > kMinBuckets && size_ < buckets_.size() / 2) {
    rehash(buckets_.size() / 2);
  }
  return ev;
}

void CalendarQueue::rehash(std::size_t nbuckets) {
  std::vector<SimEvent> all;
  all.reserve(size_);
  SimTime min_t = std::numeric_limits<SimTime>::infinity();
  SimTime max_t = -std::numeric_limits<SimTime>::infinity();
  for (std::vector<SimEvent>& b : buckets_) {
    for (SimEvent& ev : b) {
      min_t = std::min(min_t, ev.t);
      max_t = std::max(max_t, ev.t);
      all.push_back(std::move(ev));
    }
    b.clear();
  }
  // Deterministic width estimate: spread the live population over a third
  // of the buckets' worth of days. Purely a performance knob -- pop order
  // is the event key regardless of the bucket geometry.
  double width = 1.0;
  if (all.size() >= 2 && max_t > min_t) {
    width = 3.0 * (max_t - min_t) / static_cast<double>(all.size());
    width = std::clamp(width, 1e-6, 1e12);
  }
  buckets_.assign(nbuckets, {});
  mask_ = nbuckets - 1;
  width_ = width;
  day_ = all.empty() ? 0 : day_of(min_t);
  for (SimEvent& ev : all) {
    insert_sorted(buckets_[day_of(ev.t) & mask_], std::move(ev));
  }
}

}  // namespace detail

Engine::Engine(SchedulerKind scheduler) : scheduler_(scheduler) {}
Engine::~Engine() = default;

SimTime Engine::now() const noexcept {
  const detail::ExecContext& ctx = detail::exec_context();
  if (ctx.in_window && ctx.engine == this) return ctx.now;
  return now_;
}

std::uint64_t Engine::next_seq(StreamId stream) {
  if (stream >= stream_seq_.size()) {
    // Sharded engines pre-size the table in enable_sharding; lazy growth
    // here would race between worker threads.
    IDR_CHECK_MSG(!runtime_, "stream id out of range on a sharded engine");
    stream_seq_.resize(static_cast<std::size_t>(stream) + 1, 0);
  }
  return stream_seq_[stream]++;
}

void Engine::push_sequential(detail::SimEvent ev) {
  if (scheduler_ == SchedulerKind::kCalendar) {
    calendar_.push(std::move(ev));
  } else {
    heap_.push_back(std::move(ev));
    std::push_heap(heap_.begin(), heap_.end(), detail::EventLater{});
  }
}

void Engine::at(SimTime t, Callback fn) {
  // Scheduling into the simulated past is a caller bug (typically a stale
  // absolute timestamp); clamp to now() so the event still runs, in FIFO
  // order with anything else due now, and trip debug builds loudly.
  const SimTime base = now();
  assert(t >= base && "Engine::at: scheduling into the simulated past");
  if (t < base) t = base;
  if (runtime_) {
    runtime_->schedule_control(t, std::move(fn));
    return;
  }
  push_sequential(
      detail::SimEvent{t, kControlStream, next_seq(kControlStream),
                       std::move(fn)});
}

void Engine::at_node(SimTime t, StreamId stream, std::uint32_t owner_ad,
                     Callback fn) {
  const SimTime base = now();
  assert(t >= base && "Engine::at_node: scheduling into the simulated past");
  if (t < base) t = base;
  IDR_CHECK(stream != kControlStream);
  if (runtime_) {
    runtime_->schedule_node(t, stream, owner_ad, std::move(fn));
    return;
  }
  push_sequential(detail::SimEvent{t, stream, next_seq(stream),
                                   std::move(fn)});
}

void Engine::enable_sharding(const ShardPlan& plan, unsigned threads) {
  IDR_CHECK_MSG(!runtime_, "sharding already enabled on this engine");
  IDR_CHECK_MSG(empty() && processed_ == 0 && stream_seq_.empty(),
                "enable_sharding must run before anything is scheduled");
  IDR_CHECK_MSG(plan.shards >= 1, "a shard plan needs at least one shard");
  IDR_CHECK_MSG(plan.lookahead_ms > 0.0,
                "zero lookahead would deadlock the window loop");
  // One stream per AD plus the control stream, fixed up front so no
  // worker ever grows the table.
  stream_seq_.assign(plan.shard_of.size() + 1, 0);
  runtime_ = std::make_unique<detail::ShardRuntime>(*this, plan, threads);
}

const ParallelStats* Engine::parallel_stats() const noexcept {
  return runtime_ ? &runtime_->stats() : nullptr;
}

SimTime Engine::peek_time() {
  if (scheduler_ == SchedulerKind::kCalendar) return calendar_.min_time();
  return heap_.front().t;
}

bool Engine::step() {
  IDR_CHECK_MSG(!runtime_,
                "Engine::step is sequential-only; use run/run_until on a "
                "sharded engine");
  if (empty()) return false;
  detail::SimEvent ev;
  if (scheduler_ == SchedulerKind::kCalendar) {
    ev = calendar_.pop();
  } else {
    std::pop_heap(heap_.begin(), heap_.end(), detail::EventLater{});
    ev = std::move(heap_.back());
    heap_.pop_back();
  }
  now_ = ev.t;
  ++processed_;
  ev.fn();
  return true;
}

std::size_t Engine::run(std::size_t max_events) {
  if (runtime_) return runtime_->run(max_events);
  std::size_t n = 0;
  while (n < max_events && step()) ++n;
  IDR_CHECK_MSG(empty() || n < max_events,
                "simulation exceeded max_events (runaway protocol?)");
  return n;
}

std::size_t Engine::run_until(SimTime t) {
  if (runtime_) return runtime_->run_until(t);
  std::size_t n = 0;
  while (!empty() && peek_time() <= t) {
    step();
    ++n;
  }
  if (t > now_) now_ = t;
  return n;
}

bool Engine::empty() const noexcept {
  if (runtime_) return runtime_->empty();
  return scheduler_ == SchedulerKind::kCalendar ? calendar_.empty()
                                                : heap_.empty();
}

std::size_t Engine::pending() const noexcept {
  if (runtime_) return runtime_->pending();
  return scheduler_ == SchedulerKind::kCalendar ? calendar_.size()
                                                : heap_.size();
}

std::size_t Engine::events_processed() const noexcept {
  if (runtime_) return static_cast<std::size_t>(runtime_->events_processed());
  return processed_;
}

}  // namespace idr
