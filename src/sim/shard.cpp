#include "sim/shard.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "util/check.hpp"

namespace idr {

double ShardPlan::balance_factor() const noexcept {
  if (shard_weight.empty()) return 1.0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  for (const std::uint64_t w : shard_weight) {
    sum += w;
    max = std::max(max, w);
  }
  if (sum == 0) return 1.0;
  const double mean =
      static_cast<double>(sum) / static_cast<double>(shard_weight.size());
  return static_cast<double>(max) / mean;
}

namespace {

// Deterministic union-find over AD ids.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0u);
  }
  std::uint32_t find(std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void merge(std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    // Smaller root wins so the representative is the minimum member seen
    // so far -- keeps group ids (and thus the whole plan) deterministic.
    if (b < a) std::swap(a, b);
    parent_[b] = a;
  }

 private:
  std::vector<std::uint32_t> parent_;
};

}  // namespace

ShardPlan make_shard_plan(const Topology& topo, std::uint32_t shards,
                          const ShardPlanOptions& opts) {
  const std::size_t n = topo.ad_count();
  ShardPlan plan;
  plan.shards = std::max<std::uint32_t>(shards, 1);
  plan.shard_of.assign(n, 0);
  plan.shard_weight.assign(plan.shards, 0);
  if (n == 0) return plan;

  // 1. Indivisible units. Zero-delay links MUST stay intra-shard (a
  // cross-shard link bounds the lookahead from above, and a zero
  // lookahead cannot make progress). Hierarchy grouping keeps each
  // regional subtree -- a regional AD plus the metro/campus ADs under it
  // -- whole, so the cut falls on long-haul links.
  UnionFind uf(n);
  for (const Link& l : topo.links()) {
    if (l.delay_ms <= 0.0) {
      uf.merge(l.a.v, l.b.v);
      continue;
    }
    if (l.cls != LinkClass::kHierarchical) continue;
    const AdClass ca = topo.ad(l.a).cls;
    const AdClass cb = topo.ad(l.b).cls;
    const AdClass deeper = ca > cb ? ca : cb;
    if (deeper == AdClass::kMetro || deeper == AdClass::kCampus) {
      uf.merge(l.a.v, l.b.v);
    }
  }

  // 2. Unit weights: sum of (1 + degree) over members, a static proxy for
  // the event load an AD generates (timers + one frame per neighbor).
  std::vector<std::uint64_t> unit_weight(n, 0);
  for (std::uint32_t ad = 0; ad < n; ++ad) {
    unit_weight[uf.find(ad)] +=
        1 + topo.neighbors(AdId{ad}).size();
  }
  std::vector<std::uint32_t> units;
  for (std::uint32_t ad = 0; ad < n; ++ad) {
    if (uf.find(ad) == ad) units.push_back(ad);
  }

  // 3. LPT greedy: heaviest unit first onto the lightest shard; all ties
  // broken by lowest id. Classic bound: max/mean <= 4/3 + shards/units.
  std::sort(units.begin(), units.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (unit_weight[a] != unit_weight[b]) {
                return unit_weight[a] > unit_weight[b];
              }
              return a < b;
            });
  std::vector<std::uint32_t> unit_shard(n, 0);
  for (const std::uint32_t u : units) {
    std::uint32_t lightest = 0;
    for (std::uint32_t s = 1; s < plan.shards; ++s) {
      if (plan.shard_weight[s] < plan.shard_weight[lightest]) lightest = s;
    }
    unit_shard[u] = lightest;
    plan.shard_weight[lightest] += unit_weight[u];
  }
  for (std::uint32_t ad = 0; ad < n; ++ad) {
    plan.shard_of[ad] = unit_shard[uf.find(ad)];
  }

  // 4. Cross-shard links bound the lookahead. Down links count too: they
  // can come back up mid-run without re-partitioning.
  for (const Link& l : topo.links()) {
    if (plan.shard_of[l.a.v] == plan.shard_of[l.b.v]) continue;
    plan.cross_links.push_back(l.id);
    plan.min_cross_delay_ms = std::min(plan.min_cross_delay_ms, l.delay_ms);
  }
  plan.lookahead_ms = plan.min_cross_delay_ms;
  if (opts.lookahead_override_ms > 0.0) {
    plan.lookahead_ms =
        std::min(plan.lookahead_ms, opts.lookahead_override_ms);
  }
  IDR_CHECK_MSG(plan.lookahead_ms > 0.0,
                "shard plan with zero lookahead (zero-delay cross link?)");
  return plan;
}

namespace detail {

ShardRuntime::ShardRuntime(Engine& engine, ShardPlan plan, unsigned threads)
    : engine_(engine),
      plan_(std::move(plan)),
      shards_(plan_.shards),
      barrier_(threads == 0
                   ? 0
                   : std::min<std::size_t>(threads, plan_.shards)) {
  mail_.reserve(plan_.shards);
  for (std::uint32_t s = 0; s < plan_.shards; ++s) {
    mail_.push_back(std::make_unique<Mailbox>());
  }
  if (threads > 0) {
    threads_ = std::min<unsigned>(threads, plan_.shards);
    workers_.reserve(threads_);
    for (unsigned w = 0; w < threads_; ++w) {
      workers_.emplace_back([this, w] { worker_main(w); });
    }
  }
}

ShardRuntime::~ShardRuntime() {
  if (!workers_.empty()) {
    barrier_.stop();
    for (std::thread& t : workers_) t.join();
  }
}

void ShardRuntime::schedule_control(SimTime t, Engine::Callback fn) {
  const ExecContext& ctx = exec_context();
  // Control events may touch any AD, so they only run serialized between
  // windows -- and for the same reason they may only be scheduled from
  // outside a window (the driver, another control event, or setup code).
  // An AD event that wants a timer must own it via at_node.
  IDR_CHECK_MSG(!(ctx.in_window && ctx.engine == &engine_),
                "control-stream event scheduled from inside a shard window");
  control_.push(SimEvent{t, kControlStream,
                         engine_.stream_seq_[kControlStream]++,
                         std::move(fn)});
}

void ShardRuntime::schedule_node(SimTime t, StreamId stream,
                                 std::uint32_t owner_ad,
                                 Engine::Callback fn) {
  IDR_CHECK(owner_ad < plan_.shard_of.size());
  IDR_CHECK(stream < engine_.stream_seq_.size());
  const std::uint32_t target = plan_.shard_of[owner_ad];
  const ExecContext& ctx = exec_context();
  const bool in_window = ctx.in_window && ctx.engine == &engine_;
  if (in_window) {
    // The per-stream sequence counter is only race-free because a stream
    // is bumped exclusively by its owner: the AD's own events, which all
    // execute on one shard.
    IDR_CHECK_MSG(plan_.shard_of[stream - 1] == ctx.shard,
                  "stream scheduled from a shard that does not own it");
  }
  SimEvent ev{t, stream, engine_.stream_seq_[stream]++, std::move(fn)};
  if (!in_window || target == ctx.shard) {
    // Quiesced (setup / control phase) or shard-local: direct insert.
    shards_[target].q.push(std::move(ev));
    return;
  }
  // Cross-shard from inside a window: the conservative invariant says the
  // target cannot have advanced past the window bound, so the event must
  // land at or after it. Anything earlier means protocol code scheduled
  // across the boundary with less than the lookahead -- a correctness
  // bug, not a tuning issue.
  IDR_CHECK_MSG(
      window_inclusive_ ? ev.t > window_bound_ : ev.t >= window_bound_,
      "cross-shard event inside the current window (lookahead violation)");
  Mailbox& m = *mail_[target];
  std::lock_guard<std::mutex> lock(m.mu);
  m.box.push_back(std::move(ev));
}

void ShardRuntime::drain_mailboxes() {
  for (std::uint32_t s = 0; s < plan_.shards; ++s) {
    Mailbox& m = *mail_[s];
    std::lock_guard<std::mutex> lock(m.mu);
    for (SimEvent& ev : m.box) shards_[s].q.push(std::move(ev));
    m.box.clear();
  }
}

void ShardRuntime::run_shard_window(std::uint32_t s) {
  Shard& sh = shards_[s];
  ExecContext& ctx = exec_context();
  ctx.engine = &engine_;
  ctx.shard = s;
  ctx.in_window = true;
  const SimTime bound = window_bound_;
  const bool inclusive = window_inclusive_;
  std::uint64_t n = 0;
  while (!sh.q.empty()) {
    const SimTime t = sh.q.min_time();
    if (inclusive ? t > bound : t >= bound) break;
    SimEvent ev = sh.q.pop();
    ctx.now = ev.t;
    sh.window_last_t = ev.t;
    ev.fn();
    ++n;
  }
  sh.window_processed = n;
  sh.processed += n;
  ctx.engine = nullptr;
  ctx.in_window = false;
}

void ShardRuntime::worker_main(unsigned w) {
  std::uint64_t epoch = 0;
  while (barrier_.wait_open(epoch)) {
    for (std::uint32_t s = w; s < plan_.shards; s += threads_) {
      run_shard_window(s);
    }
    barrier_.arrive_done();
  }
}

std::size_t ShardRuntime::drive(bool bounded, SimTime horizon,
                                std::size_t max_events) {
  const ExecContext& ctx = exec_context();
  IDR_CHECK_MSG(!(ctx.in_window && ctx.engine == &engine_),
                "run/run_until re-entered from inside a shard window");
  constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();
  std::size_t n = 0;
  for (;;) {
    if (n >= max_events) break;
    drain_mailboxes();
    const SimTime tg = control_.empty() ? kInf : control_.min_time();
    SimTime tmin = kInf;
    for (Shard& sh : shards_) {
      if (!sh.q.empty()) tmin = std::min(tmin, sh.q.min_time());
    }
    const SimTime first = std::min(tg, tmin);
    if (first == kInf) break;
    if (bounded && first > horizon) break;
    if (tg <= tmin) {
      // The control event is globally earliest (the control stream sorts
      // first at equal time): run it alone, every shard quiescent.
      SimEvent ev = control_.pop();
      engine_.now_ = ev.t;
      ev.fn();
      ++control_processed_;
      ++stats_.control_events;
      ++stats_.critical_path_events;
      ++n;
      continue;
    }
    // Conservative window: every shard may run its events with t < bound
    // independently -- cross-shard frames sent inside it arrive >= tmin +
    // lookahead >= bound, and the next control event is at bound or later.
    SimTime bound = tmin + plan_.lookahead_ms;
    bool inclusive = false;
    if (tg < bound) bound = tg;
    if (bounded && horizon < bound) {
      bound = horizon;
      inclusive = true;  // run_until semantics: events at t itself run
    }
    window_bound_ = bound;
    window_inclusive_ = inclusive;
    if (threads_ == 0) {
      for (std::uint32_t s = 0; s < plan_.shards; ++s) run_shard_window(s);
    } else {
      barrier_.open();
      barrier_.wait_done();
    }
    std::uint64_t wsum = 0;
    std::uint64_t wmax = 0;
    SimTime last_t = engine_.now_;
    for (const Shard& sh : shards_) {
      wsum += sh.window_processed;
      wmax = std::max(wmax, sh.window_processed);
      if (sh.window_processed > 0) last_t = std::max(last_t, sh.window_last_t);
    }
    ++stats_.windows;
    stats_.parallel_events += wsum;
    stats_.critical_path_events += wmax;
    n += static_cast<std::size_t>(wsum);
    // The clock follows the last event run, as on the sequential engine
    // (run_until then advances it to its horizon), never the bound.
    engine_.now_ = last_t;
  }
  return n;
}

std::size_t ShardRuntime::run(std::size_t max_events) {
  const std::size_t n = drive(/*bounded=*/false, 0.0, max_events);
  IDR_CHECK_MSG(empty() || n < max_events,
                "simulation exceeded max_events (runaway protocol?)");
  return n;
}

std::size_t ShardRuntime::run_until(SimTime t) {
  const std::size_t n = drive(/*bounded=*/true, t,
                              std::numeric_limits<std::size_t>::max());
  if (t > engine_.now_) engine_.now_ = t;
  return n;
}

bool ShardRuntime::empty() const {
  if (!control_.empty()) return false;
  for (const Shard& sh : shards_) {
    if (!sh.q.empty()) return false;
  }
  for (const auto& m : mail_) {
    std::lock_guard<std::mutex> lock(m->mu);
    if (!m->box.empty()) return false;
  }
  return true;
}

std::size_t ShardRuntime::pending() const {
  std::size_t n = control_.size();
  for (const Shard& sh : shards_) n += sh.q.size();
  for (const auto& m : mail_) {
    std::lock_guard<std::mutex> lock(m->mu);
    n += m->box.size();
  }
  return n;
}

std::uint64_t ShardRuntime::events_processed() const {
  std::uint64_t n = control_processed_;
  for (const Shard& sh : shards_) n += sh.processed;
  return n;
}

}  // namespace detail
}  // namespace idr
