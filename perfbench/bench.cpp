// idr_perfbench: the repository benchmark. One workload per invocation,
// driven entirely through the simulator's public calls, over the
// paper-scale internet of core/scale_profile.
//
// Every pass of a workload runs the same six phases, in order:
//   1. set-up      make_scale_profile + Network + factory/attach per AD;
//   2. converge    sequential cold start on the calendar engine;
//   3. probe       a seeded stub->beacon flow batch (make_design_probe);
//   4. storm       a seeded transit-transit flap storm, drained;
//   5. re-probe    the same flow batch on the post-storm network;
//   6. par         the same cold start on the 8-shard engine, one worker;
// and then rebuilds the set-up `setup_reps - 1` more times as one timed
// loop, so a pass's set-up time covers about a second.
// Each pass runs in a forked child pinned to one vCPU. Its phases run in
// slices of about a second with a fixed reference kernel timed between
// them, and each slice's host time is scaled to the reference speed (see
// "host speed reference" below), so the host's drift cancels. The number
// of passes is fixed by --seconds and the workload's nominal pass time,
// never by how fast the host happens to run; each timed metric is the
// fastest pass's scaled phase time.
// Deterministic outcomes (event counts, control volume, simulated times,
// the sharded fingerprint) must agree between passes and between the
// sequential and sharded engines, or the run stops with an error.
//
// --trace 1 runs one untraced pass in a child (which also times the
// sharded cold start on multicore workers), then one traced pass (spans
// around every phase and layer call, a stepped event loop timing each
// event, allocation counting) in this process, and prints the per-layer
// metrics instead. The spans are written to --spans when the run ends.
//
// The result is one JSON line on stdout; the report goes to stderr.

#include <malloc.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/design_harness.hpp"
#include "core/scale_profile.hpp"
#include "proto/ecma/ecma_node.hpp"
#include "proto/ecma/partial_order.hpp"
#include "proto/idrp/idrp_node.hpp"
#include "proto/orwg/orwg_node.hpp"
#include "sim/engine.hpp"
#include "sim/failure.hpp"
#include "sim/network.hpp"
#include "sim/shard.hpp"
#include "topology/generator.hpp"
#include "util/prng.hpp"
#include "wire/codec.hpp"

// --- allocation counting ----------------------------------------------
// Global operator new/delete replacements. Counting is switched on only
// around the phases of the traced pass; the counters are relaxed atomics
// because the sharded phase allocates from several worker threads.

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t n) noexcept {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  }
  return std::malloc(n == 0 ? 1 : n);
}
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[noreturn]] void fail(const std::string& msg) {
  std::fprintf(stderr, "perfbench: FAILED: %s\n", msg.c_str());
  std::exit(1);
}

struct AllocWindow {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
};

// Counts the allocations made between construction and stop(), when on.
class AllocCounter {
 public:
  explicit AllocCounter(bool on) : on_(on) {
    if (!on_) return;
    a0_ = g_allocs.load();
    b0_ = g_alloc_bytes.load();
    g_count_allocs.store(true);
  }
  AllocWindow stop() {
    if (!on_) return {};
    g_count_allocs.store(false);
    on_ = false;
    return {g_allocs.load() - a0_, g_alloc_bytes.load() - b0_};
  }
  ~AllocCounter() { stop(); }
  AllocCounter(const AllocCounter&) = delete;
  AllocCounter& operator=(const AllocCounter&) = delete;

 private:
  bool on_;
  std::uint64_t a0_ = 0;
  std::uint64_t b0_ = 0;
};

// --- spans ----------------------------------------------------------------

// In-memory span recorder: name, start, end and parent span. Written out
// (with self time) when the benchmark ends.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;
  };

  // Room for `n` spans, so no span's timing includes growing the buffer.
  void reserve(std::size_t n) { spans_.reserve(n); }

  std::int32_t open(const char* name) {
    spans_.push_back({name, now_ns(), -1, current_});
    current_ = static_cast<std::int32_t>(spans_.size() - 1);
    return current_;
  }
  void close(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }
  [[nodiscard]] std::int64_t duration_ns(std::int32_t id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return s.end_ns - s.start_ns;
  }

  // Self time = duration minus the time covered by direct children
  // (children of one span never overlap: the recorder is single-threaded).
  [[nodiscard]] std::vector<std::int64_t> self_ns() const {
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_ns - spans_[i].start_ns;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
      }
    }
    return self;
  }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    const std::vector<std::int64_t> self = self_ns();
    std::fprintf(f, "id\tparent\tname\tstart_ns\tend_ns\tself_ns\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%d\t%s\t%lld\t%lld\t%lld\n", i, s.parent, s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(self[i]));
    }
    return std::fclose(f) == 0;
  }

  // Per-name totals: calls, total and self time.
  void summarize(std::FILE* out) const {
    struct Row {
      std::string name;
      std::size_t calls = 0;
      std::int64_t total = 0;
      std::int64_t self = 0;
    };
    const std::vector<std::int64_t> self = self_ns();
    std::vector<Row> rows;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto it = std::find_if(rows.begin(), rows.end(), [&](const Row& r) {
        return r.name == spans_[i].name;
      });
      if (it == rows.end()) {
        rows.push_back({spans_[i].name});
        it = rows.end() - 1;
      }
      ++it->calls;
      it->total += spans_[i].end_ns - spans_[i].start_ns;
      it->self += self[i];
    }
    std::fprintf(out, "  %-28s %8s %12s %12s\n", "span", "calls", "total_s",
                 "self_s");
    for (const Row& r : rows) {
      std::fprintf(out, "  %-28s %8zu %12.6f %12.6f\n", r.name.c_str(),
                   r.calls, r.total / 1e9, r.self / 1e9);
    }
  }

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
};

// RAII span; a no-op on an untraced pass.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->open(name) : -1) {}
  ~Scope() {
    if (tracer_) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t id_;
};

// --- workloads ------------------------------------------------------------

struct Workload {
  const char* name;
  const char* arch;
  std::uint32_t ads;
  std::size_t probes;
  std::uint32_t storm_cycles;
  std::uint32_t setup_reps;  // builds per pass, about 1 s in total
  double pass_s;             // nominal host time of one pass
};

// Sizes are chosen so every timed phase lasts long enough to be steady
// on a small shared host. A run makes floor(--seconds / pass_s) passes,
// at least one: two of each workload at --seconds 40 (see
// perfbench/NOTES.md).
constexpr Workload kWorkloads[] = {
    {"ecma-1e5", "ecma", 100'000, 300'000, 10, 12, 20.0},
    {"idrp-1e4", "idrp", 10'000, 400'000, 4, 140, 15.0},
    {"orwg-1e5", "orwg", 100'000, 40'000, 10, 12, 16.0},
};
static_assert([] {
  for (const Workload& w : kWorkloads) {
    if (w.setup_reps == 0 || w.pass_s <= 0.0) return false;
  }
  return true;
}());

constexpr std::uint32_t kBeacons = 64;
constexpr std::uint32_t kShards = 8;
// Worker threads of the timed sharded cold start (par_converge_s). With
// four, busy periods of a shared host moved it by 35-40% between runs
// (perfbench/NOTES.md); one worker keeps it as steady as the sequential
// phases. The traced run also measures the multicore wall speedup, on
// kMaxWorkers workers or nproc if smaller.
constexpr unsigned kParWorkers = 1;
constexpr unsigned kMaxWorkers = 4;
// Steps of simulated time the timed sharded cold start is driven in.
constexpr std::uint32_t kParSlices = 32;
constexpr std::size_t kEventCap = 50'000'000;
constexpr std::uint32_t kSmokeAds = 1'000;
constexpr std::size_t kSmokeProbes = 2'000;
// Flap storm: kStormLinks seeded transit-transit links each flap with
// this period and duty, at a seeded phase, starting this long after the
// cold-start drain.
constexpr std::size_t kStormLinks = 2;
constexpr idr::SimTime kStormOnsetMs = 200.0;
constexpr idr::SimTime kFlapPeriodMs = 200.0;
constexpr double kFlapDuty = 0.5;

struct Options {
  const Workload* workload = nullptr;
  std::uint32_t ads = 0;
  std::size_t probes = 0;
  double seconds = 10.0;
  std::size_t passes = 1;
  bool trace = false;
  std::uint64_t seed = 1;
  std::uint64_t profile_seed = 0x5ca1e;
  std::uint64_t storm_seed = 0x73746f726d;
  std::uint64_t flow_seed = 0;  // splitmix64(seed)
  unsigned multicore_workers = 0;
  std::string spans_path;
};

// --- generated inputs -----------------------------------------------------

struct Flap {
  idr::LinkId link;
  idr::SimTime phase_ms = 0.0;
};

// What the program receives: the flow batch and the storm schedule, both
// pure functions of the profile and the seeds.
struct Inputs {
  std::vector<idr::FlowSpec> flows;
  std::vector<Flap> storm;
};

Inputs make_inputs(const idr::ScaleProfile& profile, const Options& o) {
  const idr::Topology& topo = profile.topo;
  Inputs in;
  std::vector<idr::AdId> stubs;
  for (const idr::Ad& ad : topo.ads()) {
    if (!topo.can_transit(ad.id)) stubs.push_back(ad.id);
  }
  idr::Prng flow_prng(o.flow_seed);
  while (in.flows.size() < o.probes) {
    idr::FlowSpec flow;
    flow.src = stubs[flow_prng.below(stubs.size())];
    flow.dst = profile.beacons[flow_prng.below(profile.beacons.size())];
    if (flow.src != flow.dst) in.flows.push_back(flow);
  }

  std::vector<idr::LinkId> pool;
  for (const idr::Link& l : topo.links()) {
    if (topo.can_transit(l.a) && topo.can_transit(l.b)) pool.push_back(l.id);
  }
  idr::Prng storm_prng(o.storm_seed);
  storm_prng.shuffle(pool);
  const std::size_t n = std::min(kStormLinks, pool.size());
  if (n == 0) fail("no transit-transit links to flap");
  for (std::size_t i = 0; i < n; ++i) {
    const double phase =
        kFlapPeriodMs * static_cast<double>(storm_prng.below(1024)) / 1024.0;
    in.storm.push_back({pool[i], phase});
  }
  return in;
}

// --- output metrics -------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::string note;  // why the metric does not apply (value is then 0)
};

class Metrics {
 public:
  void set(const std::string& name, const std::string& unit, double value) {
    items_.push_back({name, unit, value, {}});
  }
  void not_applicable(const std::string& name, const std::string& unit,
                      const std::string& why) {
    items_.push_back({name, unit, 0.0, why});
  }
  [[nodiscard]] const std::vector<Metric>& items() const { return items_; }
  // Value of an applicable metric, if recorded.
  [[nodiscard]] std::optional<double> get(const std::string& name) const {
    for (const Metric& m : items_) {
      if (m.name == name && m.note.empty()) return m.value;
    }
    return std::nullopt;
  }

 private:
  std::vector<Metric> items_;
};

// --- helpers --------------------------------------------------------------

template <typename Fn>
double timed(Tracer* tracer, const char* name, Fn&& fn) {
  const std::int32_t id = tracer ? tracer->open(name) : -1;
  const auto t0 = Clock::now();
  fn();
  const auto t1 = Clock::now();
  if (tracer) tracer->close(id);
  return seconds_between(t0, t1);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- host speed reference -------------------------------------------------
// A small shared host runs the same code faster or slower by tens of
// percent from one second to the next, as other guests load the same
// cores: a fixed 1 s synthetic phase read IQR/median 0.18 over four
// minutes, and two vCPUs drifted independently (correlation -0.1), so no
// amount of work inside one phase averages the drift out. The drift is slow
// enough that neighbouring moments on one vCPU share it (speed 0.5 s apart
// correlates 0.7). So a timed pass pins itself to one vCPU, runs each phase
// in slices of about kSliceSeconds, times a fixed reference kernel between
// slices on the same thread, and scales every slice's host time to the
// reference speed: host time x kRefSeconds / the mean of the reference
// rounds on either side. Slice and kernel slowed by the same factor
// cancel; a change to the program moves the scaled time as it moves the
// host time, and the kernel lives here, out of the program's reach.

// Median host time of one reference round on the host in
// perfbench/NOTES.md; it only sets the scale of the reported seconds.
constexpr double kRefSeconds = 0.25;
constexpr std::size_t kRefTableWords = std::size_t{1} << 22;  // 32 MiB
// Host time of one slice of a phase between two reference rounds.
constexpr double kSliceSeconds = 1.0;

// The kernel mixes what the simulator spends its time on: hash-table
// lookups and inserts, random reads in a table larger than a core's L2
// cache, and integer mixing. It allocates nothing once built, so its speed
// does not depend on the state the program left the heap in.
class HostRef {
 public:
  HostRef() : table_(kRefTableWords), slots_(kRefSlots) {
    for (std::size_t i = 0; i < table_.size(); ++i) table_[i] = i * 7;
  }

  // Size of its tables, all resident once built.
  [[nodiscard]] double mib() const {
    return static_cast<double>(table_.size() * sizeof(std::uint64_t) +
                               slots_.size() * sizeof(Slot)) /
           (1024.0 * 1024.0);
  }

  // Host time of one round of the fixed work.
  double measure() {
    return timed(nullptr, "", [&] {
      std::uint64_t acc = 0;
      for (std::uint64_t chunk = 0; chunk < 8; ++chunk) acc += work(chunk);
      sink_ = sink_ + acc;
    });
  }

 private:
  static constexpr std::size_t kRefSlots = std::size_t{1} << 17;

  struct Slot {
    std::uint64_t key = 0;  // 0: empty
    std::uint64_t value = 0;
  };

  std::uint64_t work(std::uint64_t chunk) {
    std::uint64_t state = chunk;
    std::uint64_t acc = 0;
    // Open addressing, linear probing, up to 100k keys in 128k slots.
    std::fill(slots_.begin(), slots_.end(), Slot{});
    for (std::uint64_t i = 0; i < 200'000; ++i) {
      const std::uint64_t key = idr::splitmix64(state) % 100'000 + 1;
      std::uint64_t h = key * 0x9e3779b97f4a7c15ULL;
      std::size_t at = static_cast<std::size_t>(h >> 47);
      while (slots_[at].key != 0 && slots_[at].key != key) {
        at = (at + 1) & (kRefSlots - 1);
      }
      if (slots_[at].key == key) {
        acc += slots_[at].value;
      } else {
        slots_[at] = {key, i};
      }
    }
    for (int i = 0; i < 1'000'000; ++i) {
      acc += table_[idr::splitmix64(state) & (kRefTableWords - 1)];
    }
    for (int i = 0; i < 5'000'000; ++i) acc += idr::splitmix64(state) >> 7;
    return acc;
  }

  std::vector<std::uint64_t> table_;
  std::vector<Slot> slots_;
  volatile std::uint64_t sink_ = 0;
};

// Keeps this process, and the threads it starts, on the vCPU it runs on:
// the reference kernel then measures the vCPU that runs the phases, the
// sharded phase's worker thread included.
void pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) fail("sched_getcpu failed");
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) fail("cannot pin to a CPU");
}

// A phase's host time, and the same scaled to the reference speed.
struct PhaseTime {
  double host_s = 0.0;
  double scaled_s = 0.0;
};

// Times the phases of a timed pass against the reference kernel. A phase
// runs in slices of about kSliceSeconds of host time with a reference
// round after each; a slice is scaled by the rounds on either side of it.
// The round after one phase also serves as the "before" of the next,
// unless gap() says untimed work of its own lies between them. Without a
// kernel (traced and plain passes) a phase runs in one piece and its scaled
// time is its host time.
class PhaseClock {
 public:
  explicit PhaseClock(HostRef* ref) : ref_(ref) {}

  // A phase that cannot be cut: one slice.
  template <typename Fn>
  PhaseTime time(Fn&& fn) {
    PhaseTime t;
    before();
    add(t, timed(nullptr, "", fn));
    return t;
  }

  // A phase made of units: step() does one and returns false when none is
  // left. The clock is read every `check_every` units.
  template <typename Step>
  PhaseTime slices(Step&& step, std::size_t check_every) {
    PhaseTime t;
    for (bool more = true; more;) {
      before();
      const Clock::time_point t0 = Clock::now();
      double host = 0.0;
      do {
        for (std::size_t i = 0; i < check_every && (more = step()); ++i) {
        }
        host = seconds_between(t0, Clock::now());
      } while (more && (!ref_ || host < kSliceSeconds));
      add(t, host);
    }
    return t;
  }

  void gap() { before_ = 0.0; }
  [[nodiscard]] bool scaled() const { return ref_ != nullptr; }
  // Median reference round over the pass so far.
  [[nodiscard]] double ref_s() const {
    return ref_s_.empty() ? kRefSeconds : median(ref_s_);
  }

 private:
  void before() {
    if (ref_ && before_ <= 0.0) before_ = ref_->measure();
  }
  void add(PhaseTime& t, double host_s) {
    t.host_s += host_s;
    if (!ref_) {
      t.scaled_s += host_s;
      return;
    }
    const double after = ref_->measure();
    t.scaled_s += host_s * 2.0 * kRefSeconds / (before_ + after);
    ref_s_.push_back(after);
    before_ = after;
  }

  HostRef* ref_;
  double before_ = 0.0;
  std::vector<double> ref_s_;
};

// Nearest-rank percentile of a sorted sample.
template <typename T>
double percentile(const std::vector<T>& sorted, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  return static_cast<double>(sorted[std::max<std::size_t>(rank, 1) - 1]);
}

double current_rss_mb() {
  long pages = 0;
  long resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// Peak RSS of this process so far.
double peak_rss_mb() {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  return static_cast<double>(self.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Per-event host time and queue depth of a stepped drain.
struct StepTrace {
  std::vector<std::uint32_t> event_ns;
  double depth_sum = 0.0;
  std::size_t depth_max = 0;
};

// Engine::run's loop, one step() per call, for PhaseClock::slices. On a
// traced pass each event is also timed and the queue depth sampled.
struct Drain {
  idr::Engine& engine;
  StepTrace* trace = nullptr;
  std::size_t events = 0;

  bool operator()() {
    if (events == kEventCap) return false;
    if (!trace) {
      if (!engine.step()) return false;
    } else {
      const std::size_t depth = engine.pending();
      const auto t0 = Clock::now();
      if (!engine.step()) return false;
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - t0)
                          .count();
      trace->event_ns.push_back(
          static_cast<std::uint32_t>(std::min<long long>(ns, UINT32_MAX)));
      trace->depth_sum += static_cast<double>(depth);
      trace->depth_max = std::max(trace->depth_max, depth);
    }
    ++events;
    return true;
  }

  // The number of events run; fails the run unless the queue drained.
  [[nodiscard]] std::size_t finish() const {
    if (!engine.empty()) fail("a phase did not drain its queue under the cap");
    if (events == 0) fail("a phase ran no events");
    return events;
  }
};

// Sequential simulator instance. Members are released in reverse order
// of construction (network, engine, profile) by reset().
struct SeqStack {
  std::unique_ptr<idr::ScaleProfile> profile;
  std::unique_ptr<idr::Engine> engine;
  std::unique_ptr<idr::Network> net;

  void reset() {
    net.reset();
    engine.reset();
    profile.reset();
  }
};

void attach_nodes(idr::Network& net, const char* arch,
                  const idr::ScaleProfile& profile) {
  const idr::Network::NodeFactory factory =
      idr::make_scale_factory(arch, profile);
  net.set_node_factory(factory);
  for (const idr::Ad& ad : profile.topo.ads()) {
    net.attach(ad.id, factory(ad.id));
  }
}

struct SetupTimes {
  double profile_s = 0.0;
  double nodes_s = 0.0;
};

SetupTimes build_seq(SeqStack& s, const Workload& w, const Options& o,
                     Tracer* tr) {
  SetupTimes t;
  timed(tr, "setup", [&] {
    t.profile_s = timed(tr, "core.profile", [&] {
      s.profile = std::make_unique<idr::ScaleProfile>(
          idr::make_scale_profile(o.ads, o.profile_seed, kBeacons));
    });
    timed(tr, "net.construct", [&] {
      s.engine = std::make_unique<idr::Engine>(idr::SchedulerKind::kCalendar);
      s.net = std::make_unique<idr::Network>(*s.engine, s.profile->topo);
    });
    t.nodes_s = timed(tr, "proto.nodes",
                      [&] { attach_nodes(*s.net, w.arch, *s.profile); });
  });
  return t;
}

struct ProbeBatch {
  PhaseTime time;
  std::size_t delivered = 0;
  std::uint64_t hops = 0;
  std::vector<std::int64_t> probe_ns;  // traced passes only
};

ProbeBatch run_probes(const idr::FlowProbeFn& probe,
                      const std::vector<idr::FlowSpec>& flows,
                      PhaseClock& clock, Tracer* tr, const char* name) {
  ProbeBatch b;
  if (tr) b.probe_ns.reserve(flows.size());
  std::size_t next = 0;
  Scope batch(tr, name);
  b.time = clock.slices(
      [&] {
        if (next == flows.size()) return false;
        const std::int32_t id = tr ? tr->open("probe.flow") : -1;
        const idr::Probe p = probe(flows[next++]);
        if (tr) {
          tr->close(id);
          b.probe_ns.push_back(tr->duration_ns(id));
        }
        if (p.outcome == idr::ProbeOutcome::kDelivered) {
          ++b.delivered;
          b.hops += p.path.size() - 1;
        }
        return true;
      },
      64);
  return b;
}

struct RouteServerTotals {
  std::uint64_t synth = 0;
  std::uint64_t revalidations = 0;
  std::uint64_t hits = 0;
  std::uint64_t expansions = 0;
};

RouteServerTotals route_server_totals(idr::Network& net,
                                      const idr::Topology& topo) {
  RouteServerTotals t;
  for (const idr::Ad& ad : topo.ads()) {
    auto* node = static_cast<idr::OrwgNode*>(net.node(ad.id));
    const idr::RouteServer& rs = node->route_server();
    t.synth += rs.synth_calls();
    t.revalidations += rs.revalidations();
    t.hits += rs.cache_hits();
    t.expansions += rs.total_expansions();
  }
  return t;
}

// Host cost of one codec over a corpus of items, measured from outside:
// encode all items into one buffer, decode them back, repeated until the
// timing covers at least `min_seconds` per direction.
struct WireCost {
  double encode_ns_per_byte = 0.0;
  double decode_ns_per_byte = 0.0;
  std::uint64_t bytes = 0;
};

template <typename Item>
WireCost time_codec(const std::vector<const Item*>& items, Tracer* tr,
                    double min_seconds = 0.25) {
  WireCost c;
  idr::wire::Writer w;
  for (const Item* item : items) item->encode(w);
  c.bytes = w.size();
  if (c.bytes == 0) fail("codec corpus is empty");

  std::size_t rounds = 0;
  double enc_s = 0.0;
  timed(tr, "wire.encode", [&] {
    while (enc_s < min_seconds) {
      enc_s += timed(nullptr, "", [&] {
        w.clear();
        for (const Item* item : items) item->encode(w);
      });
      ++rounds;
    }
  });
  c.encode_ns_per_byte = enc_s * 1e9 / (static_cast<double>(rounds) * c.bytes);

  rounds = 0;
  double dec_s = 0.0;
  timed(tr, "wire.decode", [&] {
    while (dec_s < min_seconds) {
      std::size_t decoded = 0;
      dec_s += timed(nullptr, "", [&] {
        idr::wire::Reader r(w.bytes());
        while (r.remaining() > 0) {
          if (!Item::decode(r)) fail("codec corpus failed to decode");
          ++decoded;
        }
      });
      if (decoded != items.size()) fail("codec corpus decoded short");
      ++rounds;
    }
  });
  c.decode_ns_per_byte = dec_s * 1e9 / (static_cast<double>(rounds) * c.bytes);
  return c;
}

struct ParRun {
  PhaseTime time;
  std::uint64_t events = 0;
  std::uint64_t fingerprint = 0;
  idr::ParallelStats stats;
  AllocWindow allocs;
};

// One cold start on the sharded engine. The network is built outside the
// timing, which covers start_all() to a drained queue. On a timed pass the
// engine runs to `end_ms` (the sequential drain time) in kParSlices equal
// steps of simulated time, Engine::run_until each, so that the clock can
// slice the phase; the events run and the fingerprint are those of a
// single Engine::run (checked by the caller against the sequential run).
ParRun run_sharded(const Workload& w, unsigned workers,
                   idr::ScaleProfile& profile, const idr::ShardPlan& plan,
                   idr::SimTime end_ms, PhaseClock& clock, Tracer* tr) {
  ParRun run;
  idr::Engine engine(idr::SchedulerKind::kCalendar);
  engine.enable_sharding(plan, workers);
  idr::Network net(engine, profile.topo);
  timed(tr, "par.nodes", [&] { attach_nodes(net, w.arch, profile); });
  AllocCounter allocs(tr != nullptr);
  clock.gap();
  Scope converge(tr, "shard.converge");
  const std::uint32_t steps = clock.scaled() ? kParSlices : 0;
  std::uint32_t step = 0;
  run.time = clock.slices(
      [&] {
        if (step == 0) net.start_all();
        if (step < steps) {
          ++step;
          run.events += engine.run_until(end_ms * step / steps);
          return true;
        }
        run.events += engine.run(kEventCap);
        return false;
      },
      1);
  run.allocs = allocs.stop();
  if (!engine.empty()) fail("sharded cold start did not drain");
  run.fingerprint = idr::counter_fingerprint(net, profile.topo);
  run.stats = *engine.parallel_stats();
  return run;
}

// --- one pass -------------------------------------------------------------

// Outcomes that are a pure function of the inputs: every pass of a run
// must reproduce them exactly.
struct Deterministic {
  std::uint64_t events = 0;
  std::uint64_t storm_events = 0;
  std::uint64_t par_events = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t ctrl_msgs = 0;
  std::uint64_t ctrl_bytes = 0;
  std::uint64_t delivered = 0;
  std::uint64_t redelivered = 0;
  double sim_converge_ms = 0.0;
  double sim_reconverge_ms = 0.0;

  bool operator==(const Deterministic&) const = default;
};

// What a pass runs besides its six phases.
enum class PassKind {
  kTimed,   // end-to-end metrics: pinned, phases scaled to the reference
  kPlain,   // host times only, plus a cold start on multicore workers
  kTraced,  // spans, a stepped event loop, allocation counts
};

// Trivially copyable: a pass run in a child process sends it back whole.
struct PassResult {
  PhaseTime setup;  // the pass's set-up time / setup_reps
  PhaseTime converge;
  PhaseTime probe;
  PhaseTime storm;
  PhaseTime reprobe;
  PhaseTime par_converge;
  double multicore_s = 0.0;  // host time on multicore workers (kPlain)
  double ref_s = 0.0;        // median reference round of the pass (kTimed)
  double peak_rss_mb = 0.0;  // less the reference kernel's own tables
  Deterministic det;
  std::size_t attempted = 0;
  std::size_t failed = 0;
};
static_assert(std::is_trivially_copyable_v<PassResult>);

PassResult run_pass(const Workload& w, const Options& o, PassKind kind,
                    Tracer* tr, Metrics* layers) {
  const bool traced = kind == PassKind::kTraced;
  if (traced != (tr != nullptr)) fail("a traced pass needs a tracer");
  const std::string arch = w.arch;
  PassResult r;
  Scope pass_span(tr, "pass");
  std::optional<HostRef> host_ref;
  double host_ref_mb = 0.0;
  if (kind == PassKind::kTimed) {
    pin_to_current_cpu();
    // One malloc arena, before any thread starts. With glibc's default
    // the sharded phase's worker thread allocates from an arena of its
    // own, and pinned passes read peak_rss_mb 1.5% apart from run to run.
    if (mallopt(M_ARENA_MAX, 1) != 1) fail("mallopt failed");
    host_ref.emplace();
    host_ref_mb = host_ref->mib();
  }
  PhaseClock clock(host_ref ? &*host_ref : nullptr);

  // 1. set-up. This first build, on the child's fresh heap, carries on
  // through phase 6; the other setup_reps - 1 builds run after it.
  SeqStack s;
  std::vector<double> profile_s;
  std::vector<double> nodes_s;
  AllocWindow setup_alloc;
  PhaseTime setup_total;
  {
    Scope phase(tr, "phase.setup");
    AllocCounter allocs(traced);
    setup_total = clock.time([&] {
      const SetupTimes t = build_seq(s, w, o, tr);
      profile_s.push_back(t.profile_s);
      nodes_s.push_back(t.nodes_s);
    });
    setup_alloc = allocs.stop();
  }
  idr::ScaleProfile& profile = *s.profile;
  idr::Topology& topo = profile.topo;
  idr::Engine& engine = *s.engine;
  idr::Network& net = *s.net;
  const double ads = static_cast<double>(topo.ad_count());
  const Inputs in = make_inputs(profile, o);
  const double mem_setup_mb = current_rss_mb();

  if (traced) {
    // make_scale_profile's two dominant calls, re-run on the same inputs
    // so the profile build splits into its layers.
    Scope split(tr, "core.profile.split");
    idr::Topology regenerated;
    const double gen_s = timed(tr, "topology.generate", [&] {
      idr::Prng prng(o.profile_seed);
      regenerated = idr::generate_topology(idr::scale_params(o.ads), prng);
    });
    if (regenerated.link_count() != topo.link_count()) {
      fail("regenerated topology differs from the profile's");
    }
    const double order_s = timed(tr, "ecma.partial_order", [&] {
      if (!idr::compute_partial_order(topo, {}).ok) fail("partial order");
    });
    layers->set("topology.generate_s", "s", gen_s);
    layers->set("ecma.partial_order_s", "s", order_s);
    layers->set("setup.allocs", "count",
                static_cast<double>(setup_alloc.allocs));
  }

  // 2. sequential cold convergence.
  StepTrace conv_trace;
  if (traced) conv_trace.event_ns.reserve(4'000'000);
  AllocWindow conv_alloc;
  double start_s = 0.0;
  {
    Scope phase(tr, "phase.converge");
    AllocCounter allocs(traced);
    Scope converge(tr, "engine.converge");
    Drain drain{engine, traced ? &conv_trace : nullptr};
    bool started = false;
    r.converge = clock.slices(
        [&] {
          if (started) return drain();
          start_s = timed(tr, "engine.start", [&] { net.start_all(); });
          started = true;
          return true;
        },
        16);
    r.det.events = drain.finish();
    conv_alloc = allocs.stop();
  }
  r.det.sim_converge_ms = engine.now();
  r.det.fingerprint = idr::counter_fingerprint(net, topo);
  const idr::Counters conv_totals = net.total();

  if (traced) {
    const double events = static_cast<double>(r.det.events);
    layers->set("engine.start_s", "s", start_s);
    layers->set("engine.events", "count", events);
    std::vector<std::uint32_t> ev = conv_trace.event_ns;
    std::sort(ev.begin(), ev.end());
    layers->set("engine.event_p50_ns", "ns", percentile(ev, 0.50));
    layers->set("engine.event_p99_ns", "ns", percentile(ev, 0.99));
    layers->set("engine.event_max_us", "us", ev.back() / 1e3);
    layers->set("engine.queue_depth_mean", "count",
                conv_trace.depth_sum / events);
    layers->set("engine.queue_depth_max", "count",
                static_cast<double>(conv_trace.depth_max));
    layers->set("engine.allocs_per_event", "count",
                static_cast<double>(conv_alloc.allocs) / events);
    layers->set("engine.alloc_bytes_per_event", "B",
                static_cast<double>(conv_alloc.bytes) / events);
    layers->set("net.msgs_sent", "count",
                static_cast<double>(conv_totals.msgs_sent));
    layers->set("net.msgs_delivered", "count",
                static_cast<double>(conv_totals.msgs_delivered));
    layers->set("net.msgs_dropped", "count",
                static_cast<double>(conv_totals.msgs_dropped));
    layers->set("net.delivery_ratio", "ratio",
                static_cast<double>(conv_totals.msgs_delivered) /
                    static_cast<double>(conv_totals.msgs_sent));
    layers->set("net.bytes_sent", "B",
                static_cast<double>(conv_totals.bytes_sent));
    layers->set("net.bytes_per_msg", "B",
                static_cast<double>(conv_totals.bytes_sent) /
                    static_cast<double>(conv_totals.msgs_sent));
    // Less the traced pass's own per-event buffer.
    const double trace_mb = static_cast<double>(conv_trace.event_ns.size() *
                                                sizeof(std::uint32_t)) /
                            (1024.0 * 1024.0);
    const double mem_conv_mb = current_rss_mb() - trace_mb;
    layers->set("mem.setup_mb", "MB", mem_setup_mb);
    layers->set("mem.converged_mb", "MB", mem_conv_mb);
    layers->set("mem.state_bytes_per_ad", "B",
                (mem_conv_mb - mem_setup_mb) * 1024.0 * 1024.0 / ads);

    // Per-design state and wire cost on the converged network.
    Scope state(tr, "proto.state");
    const char* kNotEcma = "not an ECMA workload";
    const char* kNotIdrp = "not an IDRP workload";
    const char* kNotOrwg = "not an ORWG workload";
    if (arch == "ecma") {
      std::uint64_t fib = 0;
      for (const idr::Ad& ad : topo.ads()) {
        fib += static_cast<idr::EcmaNode*>(net.node(ad.id))->fib_entries();
      }
      layers->set("ecma.fib_entries", "count", static_cast<double>(fib));
    } else {
      layers->not_applicable("ecma.fib_entries", "count", kNotEcma);
    }
    std::optional<WireCost> wire;
    if (arch == "idrp") {
      std::uint64_t loc = 0;
      std::uint64_t adj = 0;
      std::vector<const idr::IdrpRoute*> corpus;
      for (const idr::Ad& ad : topo.ads()) {
        auto* node = static_cast<idr::IdrpNode*>(net.node(ad.id));
        loc += node->loc_rib_routes();
        adj += node->adj_rib_routes();
        for (const idr::AdId dst : profile.beacons) {
          if (const auto* routes = node->routes(dst)) {
            for (const idr::IdrpRoute& route : *routes) {
              corpus.push_back(&route);
            }
          }
        }
      }
      layers->set("idrp.loc_rib_routes", "count", static_cast<double>(loc));
      layers->set("idrp.adj_rib_routes", "count", static_cast<double>(adj));
      wire = time_codec(corpus, tr);
    } else {
      layers->not_applicable("idrp.loc_rib_routes", "count", kNotIdrp);
      layers->not_applicable("idrp.adj_rib_routes", "count", kNotIdrp);
    }
    if (arch == "orwg") {
      std::uint64_t lsas = 0;
      std::uint64_t lsa_bytes = 0;
      const idr::PolicyLsdb* sample = nullptr;
      for (const idr::Ad& ad : topo.ads()) {
        const idr::PolicyLsdb& db =
            static_cast<idr::OrwgNode*>(net.node(ad.id))->lsdb();
        lsas += db.size();
        db.for_each([&](const idr::PolicyLsa& lsa) {
          lsa_bytes += lsa.encoded_size();
        });
        if (!sample && topo.can_transit(ad.id)) sample = &db;
      }
      layers->set("orwg.lsdb_lsas", "count", static_cast<double>(lsas));
      layers->set("orwg.lsdb_bytes", "B", static_cast<double>(lsa_bytes));
      std::vector<const idr::PolicyLsa*> corpus;
      sample->for_each(
          [&](const idr::PolicyLsa& lsa) { corpus.push_back(&lsa); });
      wire = time_codec(corpus, tr);
    } else {
      layers->not_applicable("orwg.lsdb_lsas", "count", kNotOrwg);
      layers->not_applicable("orwg.lsdb_bytes", "B", kNotOrwg);
    }
    if (wire) {
      layers->set("wire.encode_ns_per_byte", "ns/B", wire->encode_ns_per_byte);
      layers->set("wire.decode_ns_per_byte", "ns/B", wire->decode_ns_per_byte);
      layers->set("wire.corpus_bytes", "B", static_cast<double>(wire->bytes));
    } else {
      const char* why = "ECMA vectors are not timed through a public codec";
      layers->not_applicable("wire.encode_ns_per_byte", "ns/B", why);
      layers->not_applicable("wire.decode_ns_per_byte", "ns/B", why);
      layers->not_applicable("wire.corpus_bytes", "B", why);
    }
  }

  // 3. probe batch.
  const idr::FlowProbeFn probe = idr::make_design_probe(arch, net, topo);
  RouteServerTotals rs0;
  if (traced && arch == "orwg") rs0 = route_server_totals(net, topo);
  AllocWindow probe_alloc;
  ProbeBatch first;
  {
    Scope phase(tr, "phase.probe");
    AllocCounter allocs(traced);
    first = run_probes(probe, in.flows, clock, tr, "probe.batch");
    r.probe = first.time;
    probe_alloc = allocs.stop();
  }
  r.det.delivered = first.delivered;

  // 4. flap storm on transit-transit links, link-state oracle on.
  net.set_link_notifications(true);
  const idr::Counters before_storm = net.total();
  StepTrace storm_trace;
  if (traced) storm_trace.event_ns.reserve(4'000'000);
  const idr::SimTime onset = engine.now() + kStormOnsetMs;
  idr::SimTime last_transition = onset;
  AllocWindow storm_alloc;
  {
    Scope phase(tr, "phase.storm");
    AllocCounter allocs(traced);
    idr::FailureInjector injector(net);
    Scope storm(tr, "storm");
    Drain drain{engine, traced ? &storm_trace : nullptr};
    bool injected = false;
    r.storm = clock.slices(
        [&] {
          if (injected) return drain();
          timed(tr, "failure.inject", [&] {
            for (const Flap& flap : in.storm) {
              injector.flap_link(flap.link, onset + flap.phase_ms,
                                 kFlapPeriodMs, kFlapDuty, w.storm_cycles);
            }
          });
          injected = true;
          return true;
        },
        16);
    r.det.storm_events = drain.finish();
    storm_alloc = allocs.stop();
  }
  for (const Flap& flap : in.storm) {
    last_transition = std::max(
        last_transition, onset + flap.phase_ms +
                             (w.storm_cycles - 1) * kFlapPeriodMs +
                             kFlapDuty * kFlapPeriodMs);
    if (!topo.link(flap.link).up) fail("a flapped link ended down");
  }
  r.det.sim_reconverge_ms = engine.now() - last_transition;

  // 5. re-probe the same flows.
  AllocWindow reprobe_alloc;
  ProbeBatch second;
  {
    Scope phase(tr, "phase.reprobe");
    AllocCounter allocs(traced);
    second = run_probes(probe, in.flows, clock, tr, "reprobe.batch");
    r.reprobe = second.time;
    reprobe_alloc = allocs.stop();
  }
  r.det.redelivered = second.delivered;
  const idr::Counters after_storm = net.total();
  r.det.ctrl_msgs = after_storm.msgs_sent;
  r.det.ctrl_bytes = after_storm.bytes_sent;
  r.attempted = 2 * in.flows.size();
  r.failed = r.attempted - first.delivered - second.delivered;

  if (traced) {
    const double storm_events = static_cast<double>(r.det.storm_events);
    layers->set("engine.storm_events", "count", storm_events);
    std::vector<std::uint32_t> ev = storm_trace.event_ns;
    std::sort(ev.begin(), ev.end());
    layers->set("storm.transitions", "count",
                2.0 * static_cast<double>(in.storm.size()) * w.storm_cycles);
    layers->set("storm.msgs", "count",
                static_cast<double>(after_storm.msgs_sent -
                                    before_storm.msgs_sent));
    layers->set("storm.event_p50_ns", "ns", percentile(ev, 0.50));
    layers->set("storm.event_p99_ns", "ns", percentile(ev, 0.99));
    layers->set("storm.allocs_per_event", "count",
                static_cast<double>(storm_alloc.allocs) / storm_events);

    const auto batch_metrics = [&](const char* prefix, const ProbeBatch& b,
                                   const AllocWindow& a) {
      std::vector<std::int64_t> ns = b.probe_ns;
      std::sort(ns.begin(), ns.end());
      const std::string p = prefix;
      layers->set(p + ".samples", "count", static_cast<double>(ns.size()));
      layers->set(p + ".p50_us", "us", percentile(ns, 0.50) / 1e3);
      // A p99 needs at least ten samples beyond it.
      if (ns.size() >= 1000) {
        layers->set(p + ".p99_us", "us", percentile(ns, 0.99) / 1e3);
      } else {
        layers->not_applicable(p + ".p99_us", "us",
                               "fewer than 1000 samples");
      }
      layers->set(p + ".allocs_per_probe", "count",
                  static_cast<double>(a.allocs) /
                      static_cast<double>(ns.size()));
    };
    batch_metrics("probe", first, probe_alloc);
    batch_metrics("reprobe", second, reprobe_alloc);
    layers->set("probe.hops_mean", "count",
                static_cast<double>(first.hops) /
                    std::max(1.0, static_cast<double>(first.delivered)));

    if (arch == "orwg") {
      const RouteServerTotals rs1 = route_server_totals(net, topo);
      const double synth = static_cast<double>(rs1.synth - rs0.synth);
      const double hits = static_cast<double>(rs1.hits - rs0.hits);
      layers->set("orwg.synth_calls", "count", synth);
      layers->set("orwg.revalidations", "count",
                  static_cast<double>(rs1.revalidations - rs0.revalidations));
      layers->set("orwg.cache_hits", "count", hits);
      layers->set("orwg.cache_hit_ratio", "ratio", hits / (hits + synth));
      layers->set("orwg.expansions_per_synth", "count",
                  static_cast<double>(rs1.expansions - rs0.expansions) /
                      std::max(1.0, synth));
    } else {
      const char* why = "no route server outside ORWG";
      for (const char* name :
           {"orwg.synth_calls", "orwg.revalidations", "orwg.cache_hits"}) {
        layers->not_applicable(name, "count", why);
      }
      layers->not_applicable("orwg.cache_hit_ratio", "ratio", why);
      layers->not_applicable("orwg.expansions_per_synth", "count", why);
    }
  }

  // 6. the same cold start on the 8-shard engine.
  s.net.reset();
  s.engine.reset();
  {
    Scope phase(tr, "phase.par");
    idr::ShardPlan plan;
    const double plan_s = timed(tr, "shard.plan", [&] {
      plan = idr::make_scale_shard_plan(profile, kShards);
    });
    const auto check = [&](const ParRun& run) {
      if (run.events != r.det.events) {
        fail("sharded event count " + std::to_string(run.events) +
             " != sequential " + std::to_string(r.det.events));
      }
      if (run.fingerprint != r.det.fingerprint) {
        fail("sharded counter fingerprint differs from sequential");
      }
    };
    const ParRun run = run_sharded(w, kParWorkers, profile, plan,
                                   r.det.sim_converge_ms, clock, tr);
    check(run);
    r.par_converge = run.time;
    r.det.par_events = run.events;
    if (kind == PassKind::kPlain) {
      const ParRun mc =
          run_sharded(w, o.multicore_workers, profile, plan,
                      r.det.sim_converge_ms, clock, tr);
      check(mc);
      r.multicore_s = mc.time.host_s;
    }
    if (traced) {
      layers->set("shard.plan_s", "s", plan_s);
      layers->set("shard.windows", "count",
                  static_cast<double>(run.stats.windows));
      layers->set("shard.lookahead_ms", "sim_ms", plan.lookahead_ms);
      layers->set("shard.balance_factor", "ratio", plan.balance_factor());
      layers->set("shard.critical_path_speedup", "x",
                  run.stats.critical_path_speedup());
      layers->set("shard.allocs_per_event", "count",
                  static_cast<double>(run.allocs.allocs) /
                      static_cast<double>(run.events));
    }
  }

  // The remaining set-ups, timed as one loop (each rebuild frees the
  // build before it). setup_s is the pass's whole set-up time per build.
  {
    Scope phase(tr, "phase.setup_reps");
    clock.gap();
    Scope reps_span(tr, "setup.reps");
    std::uint32_t rep = 1;
    const PhaseTime reps = clock.slices(
        [&] {
          if (rep == w.setup_reps) return false;
          s.reset();
          const SetupTimes t = build_seq(s, w, o, tr);
          profile_s.push_back(t.profile_s);
          nodes_s.push_back(t.nodes_s);
          ++rep;
          return true;
        },
        1);
    r.setup = {(setup_total.host_s + reps.host_s) / w.setup_reps,
               (setup_total.scaled_s + reps.scaled_s) / w.setup_reps};
  }
  r.ref_s = clock.ref_s();
  r.peak_rss_mb = peak_rss_mb() - host_ref_mb;
  s.reset();
  if (traced) {
    layers->set("core.profile_s", "s", median(profile_s));
    layers->set("proto.nodes_s", "s", median(nodes_s));
  }
  return r;
}

// Runs one untraced pass in a forked child and returns its result. Every
// pass then starts from the same small heap: in one long-lived process a
// later pass would allocate into memory an earlier pass left fragmented,
// and its data layout (hence its cache behaviour and its timing) would
// depend on what ran before.
PassResult run_pass_in_child(const Workload& w, const Options& o,
                              PassKind kind) {
  int fds[2];
  if (pipe(fds) != 0) fail("pipe failed");
  std::fflush(nullptr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) fail("fork failed");
  if (pid == 0) {
    // Die with the parent: a killed benchmark leaves no pass running.
    if (prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || getppid() != parent) {
      _exit(1);
    }
    close(fds[0]);
    const PassResult r = run_pass(w, o, kind, nullptr, nullptr);
    const bool sent = write(fds[1], &r, sizeof r) ==
                      static_cast<ssize_t>(sizeof r);
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  PassResult r;
  std::size_t got = 0;
  while (got < sizeof r) {
    const ssize_t n =
        read(fds[0], reinterpret_cast<char*>(&r) + got, sizeof r - got);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0 || got != sizeof r) {
    fail("a pass failed");
  }
  return r;
}

// --- command line ---------------------------------------------------------

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --workload NAME [--seconds S] [--trace 0|1] [--seed N]\n"
      "          [--profile-seed N] [--storm-seed N] [--smoke] [--spans PATH]\n"
      "workloads:",
      argv0);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::uint64_t parse_u64(const char* s, const char* argv0) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 0);
  if (end == s || *end != '\0') usage(argv0);
  return v;
}

Options parse_args(int argc, char** argv) {
  Options o;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (a == "--workload") {
      const std::string name = value();
      for (const Workload& w : kWorkloads) {
        if (name == w.name) o.workload = &w;
      }
      if (!o.workload) usage(argv[0]);
    } else if (a == "--seconds") {
      o.seconds = std::atof(value());
    } else if (a == "--trace") {
      o.trace = parse_u64(value(), argv[0]) != 0;
    } else if (a == "--seed") {
      o.seed = parse_u64(value(), argv[0]);
    } else if (a == "--profile-seed") {
      o.profile_seed = parse_u64(value(), argv[0]);
    } else if (a == "--storm-seed") {
      o.storm_seed = parse_u64(value(), argv[0]);
    } else if (a == "--smoke") {
      smoke = true;
    } else if (a == "--spans") {
      o.spans_path = value();
    } else {
      usage(argv[0]);
    }
  }
  if (!o.workload) usage(argv[0]);
  // The probe flows are drawn from the run seed.
  std::uint64_t state = o.seed;
  o.flow_seed = idr::splitmix64(state);
  o.passes = std::max<std::size_t>(
      1, static_cast<std::size_t>(o.seconds / o.workload->pass_s));
  o.ads = smoke ? kSmokeAds : o.workload->ads;
  o.probes = smoke ? std::min(kSmokeProbes, o.workload->probes)
                   : o.workload->probes;
  o.multicore_workers =
      std::clamp(std::thread::hardware_concurrency(), 1u, kMaxWorkers);
  return o;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  const auto& items = metrics.items();
  for (std::size_t i = 0; i < items.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i ? ", " : "", items[i].name.c_str(), items[i].value,
                items[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void report(const Metrics& metrics) {
  for (const Metric& m : metrics.items()) {
    if (m.note.empty()) {
      std::fprintf(stderr, "  %-30s %16.6f %s\n", m.name.c_str(), m.value,
                   m.unit.c_str());
    } else {
      std::fprintf(stderr, "  %-30s %16s %s (%s)\n", m.name.c_str(), "n/a",
                   m.unit.c_str(), m.note.c_str());
    }
  }
}

void check_same(const Deterministic& a, const Deterministic& b) {
  if (!(a == b)) fail("a deterministic outcome differs between passes");
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
  const Workload& w = *o.workload;
  std::fprintf(stderr,
               "perfbench %s: ads=%u probes=%zu storm=%zux%u seed=%llu "
               "profile_seed=%#llx storm_seed=%#llx flow_seed=%#llx "
               "par_workers=%u multicore_workers=%u nproc=%u\n",
               w.name, o.ads, o.probes, kStormLinks, w.storm_cycles,
               static_cast<unsigned long long>(o.seed),
               static_cast<unsigned long long>(o.profile_seed),
               static_cast<unsigned long long>(o.storm_seed),
               static_cast<unsigned long long>(o.flow_seed), kParWorkers,
               o.multicore_workers,
               std::thread::hardware_concurrency());
  if (o.trace) {
    Tracer tracer;
    tracer.reserve(2 * o.probes + 4096);  // a span per probe, both batches
    Metrics layers;
    layers.set("host.cpus", "count", std::thread::hardware_concurrency());
    layers.set("shard.workers", "count", kParWorkers);
    layers.set("shard.multicore_workers", "count", o.multicore_workers);
    // The untraced pass first, in a child, so the traced pass still runs
    // in a fresh process and its current-RSS readings track live memory.
    const PassResult plain = run_pass_in_child(w, o, PassKind::kPlain);
    const PassResult traced =
        run_pass(w, o, PassKind::kTraced, &tracer, &layers);
    check_same(traced.det, plain.det);
    const double converge_s = plain.converge.host_s;
    const double events = static_cast<double>(plain.det.events);
    layers.set("engine.ns_per_event", "ns", converge_s * 1e9 / events);
    layers.set("storm.ns_per_event", "ns",
               plain.storm.host_s * 1e9 /
                   static_cast<double>(plain.det.storm_events));
    layers.set("shard.backend_speedup", "x",
               converge_s / plain.par_converge.host_s);
    layers.set("shard.multicore_s", "s", plain.multicore_s);
    const double wall = converge_s / plain.multicore_s;
    layers.set("shard.wall_speedup", "x", wall);
    layers.set("shard.efficiency", "ratio", wall / o.multicore_workers);
    layers.set("shard.cp_efficiency", "ratio",
               wall / *layers.get("shard.critical_path_speedup"));
    // Computed, not measured: the share of converge_s that decoding every
    // delivered byte would take at the codec's measured ns/B.
    if (const auto decode = layers.get("wire.decode_ns_per_byte")) {
      const double delivered_bytes = *layers.get("net.bytes_sent") *
                                     *layers.get("net.delivery_ratio");
      layers.set("wire.decode_share", "ratio",
                 *decode * delivered_bytes / (converge_s * 1e9));
    } else {
      layers.not_applicable("wire.decode_share", "ratio",
                            "no codec timed for this workload");
    }
    layers.set("trace.overhead_pct", "%",
               (traced.converge.host_s / converge_s - 1.0) * 100.0);
    std::fprintf(stderr, "spans (traced pass):\n");
    tracer.summarize(stderr);
    if (!o.spans_path.empty() && !tracer.write(o.spans_path)) {
      fail("cannot write spans to " + o.spans_path);
    }
    std::fprintf(stderr, "per-layer metrics:\n");
    report(layers);
    print_result(true, traced.attempted + plain.attempted,
                 traced.failed + plain.failed, layers);
    return 0;
  }

  std::vector<PassResult> passes;
  while (passes.size() < o.passes) {
    passes.push_back(run_pass_in_child(w, o, PassKind::kTimed));
    check_same(passes.front().det, passes.back().det);
    const PassResult& p = passes.back();
    std::fprintf(stderr,
                 "  pass %zu (reference round %.4f s), scaled / host s:",
                 passes.size(), p.ref_s);
    for (const auto& [name, t] :
         {std::pair{"setup", p.setup}, {"converge", p.converge},
          {"probe", p.probe}, {"storm", p.storm}, {"reprobe", p.reprobe},
          {"par", p.par_converge}}) {
      std::fprintf(stderr, " %s=%.4g/%.4g", name, t.scaled_s, t.host_s);
    }
    std::fprintf(stderr, "\n");
  }

  // Each timed metric: the fastest pass's scaled phase time. A pass's
  // slowdowns are one-sided: besides the residue of the host's drift that
  // scaling leaves, some passes run their probe walks 30-60% slower
  // throughout, on ECMA mostly a run's first pass (perfbench/NOTES.md).
  const auto scaled = [&](PhaseTime PassResult::*phase) {
    double best = (passes.front().*phase).scaled_s;
    for (const PassResult& p : passes) {
      best = std::min(best, (p.*phase).scaled_s);
    }
    return best;
  };
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double peak_mb = 0.0;
  for (const PassResult& p : passes) {
    attempted += p.attempted;
    failed += p.failed;
    peak_mb = std::max(peak_mb, p.peak_rss_mb);
  }
  const Deterministic& det = passes.front().det;
  Metrics e2e;
  e2e.set("setup_s", "s", scaled(&PassResult::setup));
  e2e.set("converge_s", "s", scaled(&PassResult::converge));
  e2e.set("par_converge_s", "s", scaled(&PassResult::par_converge));
  e2e.set("probe_s", "s", scaled(&PassResult::probe));
  e2e.set("storm_s", "s", scaled(&PassResult::storm));
  e2e.set("reprobe_s", "s", scaled(&PassResult::reprobe));
  e2e.set("peak_rss_mb", "MB", peak_mb);
  e2e.set("ctrl_msgs", "count", static_cast<double>(det.ctrl_msgs));
  e2e.set("ctrl_bytes", "B", static_cast<double>(det.ctrl_bytes));
  e2e.set("sim_converge_ms", "sim_ms", det.sim_converge_ms);
  e2e.set("sim_reconverge_ms", "sim_ms", det.sim_reconverge_ms);
  std::fprintf(stderr,
               "%zu passes, events=%llu storm_events=%llu delivered=%llu+%llu "
               "of %zu\n",
               passes.size(), static_cast<unsigned long long>(det.events),
               static_cast<unsigned long long>(det.storm_events),
               static_cast<unsigned long long>(det.delivered),
               static_cast<unsigned long long>(det.redelivered), o.probes);
  report(e2e);
  print_result(true, attempted, failed, e2e);
  return 0;
}
