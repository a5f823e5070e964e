// scenario_matrix -- one runner for the comparative experiments.
//
// The paper's comparison of the four design points (§2.2, §6) holds only
// if every design point faces the same topology, faults and schedule.
// Each matrix in kMatrices is a fixed set of cells -- (scenario, design
// point, recovery knobs, engine backend, seed) -- run through the
// library's entry points (run_chaos, run_scale_chaos, the scale
// profile's factory and shard plan). Every cell becomes one flat
// bench_matrix/v1 row; tools/check_bench.py holds the rows to the bar.
// Each row is also printed to stderr as its cell completes; usage() lists
// the matrices and options.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/chaos.hpp"
#include "core/design_harness.hpp"
#include "core/scale_profile.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "sim/shard.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

namespace {

using namespace idr;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kProfileSeed = 0x5ca1eULL;
constexpr std::uint32_t kBeacons = 64;
constexpr std::size_t kProbes = 256;
constexpr std::uint32_t kShards = 8;
constexpr std::size_t kMaxEvents = 2'000'000'000;

// Process-wide high-water mark (KiB on Linux): only meaningful relative
// to the rows before it, which is why the scale matrix runs ascending.
std::uint64_t peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss);
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// One flat bench_matrix/v1 row. Values are formatted as they are added,
// at the precision the checked-in files carry.
class Row {
 public:
  Row& text(std::string key, const std::string& value) {
    return add(std::move(key), "\"" + value + "\"");
  }
  Row& count(std::string key, std::uint64_t value) {
    return add(std::move(key), std::to_string(value));
  }
  Row& num(std::string key, double value, int digits) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", digits, value);
    return add(std::move(key), buf);
  }
  Row& flag(std::string key, bool value) {
    return add(std::move(key), value ? "true" : "false");
  }
  Row& raw(std::string key, std::string json) {
    return add(std::move(key), std::move(json));
  }

  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (const auto& [k, v] : fields_) {
      if (out.size() > 1) out += ", ";
      out += "\"" + k + "\": " + v;
    }
    return out + "}";
  }

 private:
  Row& add(std::string key, std::string value) {
    fields_.emplace_back(std::move(key), std::move(value));
    return *this;
  }
  std::vector<std::pair<std::string, std::string>> fields_;
};

void emit(std::vector<Row>& rows, const Row& row) {
  std::fprintf(stderr, "%s\n", row.json().c_str());
  rows.push_back(row);
}

// --- scale profile: cold start to convergence (scale, parallel) ---------

struct Converged {
  std::uint64_t events = 0;
  double wall_ms = 0.0;
  SimTime convergence_ms = 0.0;  // simulated time of the last event
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t fingerprint = 0;
  ParallelStats stats;
  std::size_t probes = 0;
  std::size_t probe_delivered = 0;
};

// Converges `arch` over the profile on the calendar engine, sharded when
// `plan` is given, then sends `probes` sampled stub->beacon forwarding
// probes through the design's own data plane.
Converged converge(const std::string& arch, ScaleProfile& profile,
                   const ShardPlan* plan, unsigned threads,
                   std::uint64_t seed, std::size_t probes) {
  Engine engine(SchedulerKind::kCalendar);
  if (plan) engine.enable_sharding(*plan, threads);
  Network net(engine, profile.topo);
  const Network::NodeFactory factory = make_scale_factory(arch, profile);
  net.set_node_factory(factory);
  for (const Ad& ad : profile.topo.ads()) net.attach(ad.id, factory(ad.id));

  Converged out;
  const Clock::time_point t0 = Clock::now();
  net.start_all();
  out.events = engine.run(kMaxEvents);
  out.wall_ms = ms_since(t0);
  IDR_CHECK_MSG(engine.empty(), "scale run hit the event cap");
  out.convergence_ms = engine.now();
  out.msgs_sent = net.total().msgs_sent;
  out.bytes_sent = net.total().bytes_sent;
  out.fingerprint = counter_fingerprint(net, profile.topo);
  if (const ParallelStats* stats = engine.parallel_stats()) out.stats = *stats;

  const FlowProbeFn probe = make_design_probe(arch, net, profile.topo);
  Prng prng(seed ^ 0x9e3779b97f4a7c15ULL);
  const std::size_t n = profile.topo.ad_count();
  for (std::size_t i = 0; i < probes; ++i) {
    FlowSpec flow;
    flow.src = AdId{static_cast<std::uint32_t>(prng.below(n))};
    flow.dst = profile.beacons[prng.below(profile.beacons.size())];
    if (flow.src == flow.dst) continue;
    ++out.probes;
    if (probe(flow).outcome == ProbeOutcome::kDelivered) ++out.probe_delivered;
  }
  return out;
}

// Cells smaller than this converge in 0.2-90 ms, under a shared host's
// run-to-run noise: their wall time is the median of kTimedRuns cold
// starts in one process, which must agree in every other field. Larger
// cells run once.
constexpr std::uint32_t kMedianBelowAds = 10'000;
constexpr std::size_t kTimedRuns = 5;

bool same_outcome(const Converged& a, const Converged& b) {
  return a.events == b.events && a.convergence_ms == b.convergence_ms &&
         a.msgs_sent == b.msgs_sent && a.bytes_sent == b.bytes_sent &&
         a.fingerprint == b.fingerprint && a.probes == b.probes &&
         a.probe_delivered == b.probe_delivered;
}

void run_scale(std::uint32_t max_ads, std::uint64_t seed,
               std::vector<Row>& rows) {
  for (const std::uint32_t size : {100u, 1'000u, 10'000u, 100'000u}) {
    if (size > max_ads) break;  // ascending, for the RSS high-water mark
    ScaleProfile profile = make_scale_profile(size, seed, kBeacons);
    for (const std::string& arch : design_point_names()) {
      const std::uint64_t rss_before_kb = peak_rss_kb();
      Converged c = converge(arch, profile, nullptr, 0, seed, kProbes);
      if (size < kMedianBelowAds) {
        std::vector<double> wall_ms = {c.wall_ms};
        while (wall_ms.size() < kTimedRuns) {
          const Converged again =
              converge(arch, profile, nullptr, 0, seed, kProbes);
          IDR_CHECK_MSG(same_outcome(again, c),
                        "scale: a repeated cold start diverged");
          wall_ms.push_back(again.wall_ms);
        }
        std::sort(wall_ms.begin(), wall_ms.end());
        c.wall_ms = wall_ms[kTimedRuns / 2];
      }
      emit(rows,
           Row()
               .text("arch", arch)
               .count("ads", profile.topo.ad_count())
               .count("seed", seed)
               .count("beacons", kBeacons)
               .count("transit_ads", profile.transits.size())
               .count("links", profile.topo.link_count())
               .count("events", c.events)
               .num("wall_ms", c.wall_ms, 3)
               .num("events_per_sec", ratio(c.events, c.wall_ms / 1e3), 1)
               .count("msgs_sent", c.msgs_sent)
               .count("bytes_sent", c.bytes_sent)
               .num("bytes_per_event", ratio(c.bytes_sent, c.events), 2)
               .num("convergence_ms", c.convergence_ms, 3)
               .count("probes", c.probes)
               .count("probe_delivered", c.probe_delivered)
               .count("rss_before_kb", rss_before_kb)
               .count("rss_after_kb", peak_rss_kb()));
    }
  }
}

// Every sharded run must reproduce the sequential fingerprint and event
// count; critical_path_speedup is the schedule's available parallelism
// (host-independent), wall_speedup the measured ratio on this host.
void run_parallel(std::uint32_t ads, std::uint64_t seed,
                  std::vector<Row>& rows) {
  ScaleProfile profile = make_scale_profile(ads, seed, kBeacons);
  const ShardPlan plan = make_scale_shard_plan(profile, kShards);
  for (const std::string& arch : design_point_names()) {
    const Converged seq = converge(arch, profile, nullptr, 0, seed, 0);
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      const Converged par = converge(arch, profile, &plan, threads, seed, 0);
      emit(rows,
           Row()
               .text("arch", arch)
               .count("ads", profile.topo.ad_count())
               .count("seed", seed)
               .count("threads", threads)
               .count("shards", kShards)
               .count("events", seq.events)
               .num("seq_wall_ms", seq.wall_ms, 3)
               .num("seq_events_per_sec",
                    ratio(seq.events, seq.wall_ms / 1e3), 1)
               .count("windows", par.stats.windows)
               .count("control_events", par.stats.control_events)
               .num("lookahead_ms", plan.lookahead_ms, 3)
               .num("balance_factor", plan.balance_factor(), 3)
               .num("critical_path_speedup",
                    par.stats.critical_path_speedup(), 3)
               .num("wall_ms", par.wall_ms, 3)
               .num("events_per_sec", ratio(par.events, par.wall_ms / 1e3), 1)
               .num("wall_speedup", ratio(seq.wall_ms, par.wall_ms), 3)
               .flag("fingerprint_match", par.fingerprint == seq.fingerprint)
               .flag("events_match", par.events == seq.events));
    }
  }
}

// --- scale profile under storms (chaos-scale, restart) -----------------

ScaleChaosParams storm_params(std::uint32_t ads, std::uint64_t seed,
                              StormFamily storm) {
  ScaleChaosParams params;
  params.seed = seed;
  params.target_ads = ads;
  params.storm = storm;
  // A long flap storm: suppression needs ~3 transitions per link to
  // engage, and the A/B ratio is only meaningful once the suppressed
  // steady state dominates the pre-suppression waves.
  params.flap_cycles = 24;
  return params;
}

// One storm cell: its result, wall time and a row begun with its name.
struct StormRun {
  ScaleChaosResult s;
  double wall_ms = 0.0;
  Row row;
};

StormRun run_storm(const std::string& arch, const ScaleChaosParams& params) {
  const Clock::time_point t0 = Clock::now();
  StormRun run{run_scale_chaos(arch, params), 0.0, Row()};
  run.wall_ms = ms_since(t0);
  run.row.text("arch", arch)
      .count("ads", run.s.ads)
      .count("transit_ads", run.s.transit_ads)
      .count("seed", params.seed)
      .count("beacons", run.s.beacons);
  return run;
}

// Appends the measurements both storm matrices record, then each
// persistent violation with the probe walk that exhibited it (only when
// there are any) -- what a failing gate prints.
void emit_storm(std::vector<Row>& rows, StormRun& run) {
  const ScaleChaosResult& s = run.s;
  run.row.num("converge_ms", s.converge_ms, 3)
      .num("reconverge_ms", s.reconverge_ms, 3)
      .count("storm_msgs", s.updates_during_storm)
      .count("post_storm_msgs", s.updates_after_storm)
      .count("transient_violations", s.invariants.transient_violations())
      .count("persistent_violations", s.invariants.persistent_violations())
      .count("counter_fingerprint", s.counter_fingerprint)
      .num("wall_ms", run.wall_ms, 3)
      .count("rss_after_kb", peak_rss_kb());
  if (!s.persistent_findings.empty()) {
    std::string json;
    for (const InvariantFinding& f : s.persistent_findings) {
      char head[160];
      std::snprintf(head, sizeof head,
                    "{\"kind\": \"%s\", \"src\": %u, \"dst\": %u, "
                    "\"at_ms\": %.1f, \"path\": [",
                    to_string(f.kind), f.src.v, f.dst.v, f.at_ms);
      json += (json.empty() ? "" : ", ") + std::string(head);
      for (std::size_t i = 0; i < f.path.size(); ++i) {
        json += (i ? ", " : "") + std::to_string(f.path[i].v);
      }
      json += "]}";
    }
    run.row.raw("persistent_findings", "[" + json + "]");
  }
  emit(rows, run.row);
}

// Flap-storm A/B rows: one recovery knob on, for the design family that
// has it, gated against the knob-off row of the same design point.
struct FlapKnob {
  const char* arch;
  bool damping;            // DV route-flap damping
  SimTime ls_holddown_ms;  // LS origination hold-down
};
constexpr FlapKnob kFlapKnobs[] = {
    {"ecma", true, 0.0},
    {"idrp", true, 0.0},
    {"ls-hbh", false, 150.0},
    {"orwg", false, 150.0},
};

void run_chaos_scale(std::uint32_t ads, std::uint64_t seed,
                     std::vector<Row>& rows) {
  std::map<std::string, std::uint64_t> flap_msgs;  // knob-off churn
  const auto add = [&](const std::string& arch, const ScaleChaosParams& p) {
    StormRun run = run_storm(arch, p);
    const ScaleChaosResult& s = run.s;
    const bool knob = p.damping.enabled || p.ls_holddown_ms > 0.0;
    if (!knob && s.storm == StormFamily::kFlapStorm) {
      flap_msgs[arch] = s.updates_during_storm;
    }
    // Class 0 is the implicit start-up class; the storm class is the one
    // run_scale_chaos registers after it.
    const auto& classes = s.invariants.fault_classes;
    run.row.text("storm", to_string(s.storm))
        .flag("damping", p.damping.enabled)
        .num("ls_holddown_ms", p.ls_holddown_ms, 1)
        .count("storm_transitions", s.storm_transitions)
        .num("storm_msgs_per_sec", s.updates_per_sec_storm, 1)
        .num("churn_drop",
             knob ? ratio(flap_msgs[arch], s.updates_during_storm) : 0.0, 2)
        .num("peak_blast", classes.size() > 1 ? classes[1].peak_blast : 0.0, 4)
        .count("flaps", s.flaps_recorded)
        .count("routes_suppressed", s.routes_suppressed)
        .count("routes_reused", s.routes_reused)
        .count("suppressed_at_end", s.suppressed_at_end)
        .count("ls_originations_suppressed", s.ls_originations_suppressed);
    emit_storm(rows, run);
  };
  for (const StormFamily storm : storm_families()) {
    if (storm == StormFamily::kRestartStorm) continue;  // the restart matrix
    for (const std::string& arch : design_point_names()) {
      add(arch, storm_params(ads, seed, storm));
    }
  }
  for (const FlapKnob& knob : kFlapKnobs) {
    ScaleChaosParams params = storm_params(ads, seed, StormFamily::kFlapStorm);
    params.damping.enabled = knob.damping;
    if (knob.damping) params.damping.half_life_ms = 500.0;
    params.ls_holddown_ms = knob.ls_holddown_ms;
    add(knob.arch, params);
  }
}

// Restart-storm modes. cold: no graceful restart, no overload protection.
// gr: the grace window outlasts the outage, so every window ends in a
// recovery handover. gr-flush: grace is shorter than the outage, so every
// window expires into the stale flush. Both GR modes run bounded
// class-priority ingress queues sized for storm churn.
struct RestartMode {
  const char* name;
  SimTime grace_ms;  // 0 = graceful restart and overload protection off
  SimTime down_ms;
};
constexpr RestartMode kRestartModes[] = {
    {"cold", 0.0, 300.0},
    {"gr", 2'000.0, 300.0},
    {"gr-flush", 150.0, 600.0},
};

void run_restart(std::uint32_t ads, std::uint64_t seed,
                 std::vector<Row>& rows) {
  for (const std::string& arch : design_point_names()) {
    for (const RestartMode& mode : kRestartModes) {
      ScaleChaosParams params =
          storm_params(ads, seed, StormFamily::kRestartStorm);
      params.restart_down_ms = mode.down_ms;
      if (mode.grace_ms > 0.0) {
        params.gr.enabled = true;
        params.gr.grace_ms = mode.grace_ms;
        params.overload.queue_limit = 64;
      }
      StormRun run = run_storm(arch, params);
      const ScaleChaosResult& s = run.s;
      run.row.text("mode", mode.name)
          .count("restart_nodes", kRestartStormNodes)
          .count("restart_waves", kRestartStormWaves)
          .count("node_crashes", s.node_crashes)
          .num("continuity_pct", 100.0 * s.invariants.continuity(), 4)
          .count("continuity_probes", s.invariants.continuity_probes)
          .count("continuity_ok", s.invariants.continuity_ok)
          .count("gr_recoveries", s.gr_recoveries)
          .count("gr_flushes", s.gr_flushes)
          .count("gr_stale_flushed", s.gr_stale_flushed)
          .count("gr_resyncs", s.gr_resyncs)
          .count("gr_retained", s.gr_retained)
          .count("gr_memoized", s.gr_memoized)
          .count("queue_enqueued", s.overload.enqueued)
          .count("queue_served", s.overload.served)
          .count("peak_queue_depth", s.overload.peak_depth);
      for (std::size_t c = 0; c < kMsgClassCount; ++c) {
        run.row.count(
            std::string("dropped_") + to_string(static_cast<MsgClass>(c)),
            s.overload.dropped[c]);
      }
      run.row.count("cleared_on_crash", s.overload.cleared_on_crash);
      emit_storm(rows, run);
    }
  }
}

// --- Figure 1 (chaos, byzantine): every cell runs twice ----------------

void add_figure1_row(const std::string& arch, const ChaosParams& params,
                     std::vector<Row>& rows) {
  const Clock::time_point t0 = Clock::now();
  const ChaosResult r = run_chaos(arch, params);
  const double wall_ms = ms_since(t0);
  const ChaosResult repeat = run_chaos(arch, params);
  const InvariantStats& inv = r.invariants;
  const AuditStats& audit = r.audit;
  const bool reconverged = inv.reconverge_ms.count() > 0;
  std::string schedule;
  for (const ByzantineSpec& spec : r.byzantine) {
    if (!schedule.empty()) schedule += ' ';
    schedule += "ad" + std::to_string(spec.ad.v) + "=" + to_string(spec.kind);
    if (spec.victim.valid()) schedule += "->ad" + std::to_string(spec.victim.v);
  }
  emit(rows,
       Row()
           .text("arch", arch)
           .count("seed", params.seed)
           .count("byzantine", r.byzantine.size())
           .flag("defended", r.defended)
           .text("schedule", schedule)
           .count("counter_fingerprint", r.counter_fingerprint)
           .count("repeat_fingerprint", repeat.counter_fingerprint)
           .count("link_failures", r.link_failures)
           .count("node_crashes", r.node_crashes)
           .count("msgs_sent", r.totals.msgs_sent)
           .count("bytes_sent", r.totals.bytes_sent)
           .count("msgs_corrupted", r.totals.msgs_corrupted)
           .count("msgs_duplicated", r.totals.msgs_duplicated)
           .count("msgs_reordered", r.totals.msgs_reordered)
           .count("malformed_dropped", r.totals.malformed_dropped)
           .count("defense_rejections", r.defense_rejections)
           .count("probes", inv.probes)
           .count("transient_violations", inv.transient_violations())
           .count("persistent_violations", inv.persistent_violations())
           .count("persistent_loops", inv.persistent_loops)
           .count("persistent_black_holes", inv.persistent_black_holes)
           .count("persistent_stale", inv.persistent_stale_routes)
           .num("reconverge_p50_ms",
                reconverged ? inv.reconverge_ms.median() : -1.0, 1)
           .num("reconverge_max_ms",
                reconverged ? inv.reconverge_ms.max() : -1.0, 1)
           .count("audit_sweeps", audit.sweeps)
           .count("audit_probes", audit.probes)
           .count("hijacked_pairs", audit.hijacked_pairs)
           .count("leaked_pairs", audit.leaked_pairs)
           .count("black_holed_pairs", audit.black_holed_pairs)
           .count("collateral_pairs", audit.collateral_pairs)
           .num("peak_pollution", audit.peak_pollution, 6)
           .num("final_pollution", audit.final_pollution, 6)
           .num("containment_ms", audit.containment_ms, 1)
           .flag("contained", audit.contained())
           .num("wall_ms", wall_ms, 3));
}

void run_figure1_chaos(std::uint32_t, std::uint64_t seed,
                       std::vector<Row>& rows) {
  ChaosParams params;
  params.seed = seed;
  for (const std::string& arch : design_point_names()) {
    add_figure1_row(arch, params, rows);
  }
}

// A pure Byzantine schedule: no churn and no delivery faults, so every
// polluted pair is attributable to misbehaviour. Provider/customer
// policies give a route leak a transit promise to break.
void run_byzantine(std::uint32_t, std::uint64_t seed, std::vector<Row>& rows) {
  for (const std::string& arch : design_point_names()) {
    for (const bool defended : {false, true}) {
      ChaosParams params;
      params.seed = seed;
      params.horizon_ms = 8'000.0;
      params.churn_fraction = 0.0;
      params.faults = FaultConfig{};
      params.policy_mode = PolicyMode::kProviderCustomer;
      params.byzantine.count = 4;
      params.byzantine.defended = defended;
      params.audit_sample_pairs = 0;  // every honest ordered pair
      add_figure1_row(arch, params, rows);
    }
  }
}

// --- the matrix table ---------------------------------------------------

struct Matrix {
  const char* name;
  const char* what;
  const char* default_out;    // nullptr: stdout
  std::uint32_t default_ads;  // 0: the fixed Figure 1 topology
  std::uint64_t default_seed;
  void (*run)(std::uint32_t ads, std::uint64_t seed, std::vector<Row>& rows);
};

constexpr Matrix kMatrices[] = {
    {"scale", "4 designs x sizes 1e2..--ads: converge, then probe",
     "BENCH_scale.json", 100'000, kProfileSeed, run_scale},
    {"parallel", "4 designs: sequential vs 8 shards at 1, 2, 4, 8 threads",
     "BENCH_parallel.json", 100'000, kProfileSeed, run_parallel},
    {"chaos-scale", "4 storm families x 4 designs + flap-storm knob A/B",
     "BENCH_chaos_scale.json", 10'000, kProfileSeed, run_chaos_scale},
    {"restart", "4 designs x {cold, gr, gr-flush} restart storm",
     "BENCH_restart.json", 10'000, kProfileSeed, run_restart},
    {"chaos", "Figure 1, churn and delivery faults, 10 s", nullptr, 0, 1,
     run_figure1_chaos},
    {"byzantine", "Figure 1, 4 Byzantine ADs, undefended and defended, 8 s",
     nullptr, 0, 11, run_byzantine},
};

int usage() {
  std::fprintf(
      stderr,
      "usage: scenario_matrix <matrix> [--ads N] [--seed S] [--runs K] "
      "[--out PATH]\n"
      "  --ads N   profile size (scale: the largest); not for Figure 1\n"
      "  --seed S  first profile seed, or Figure 1 schedule seed\n"
      "  --runs K  run seeds S..S+K-1\n"
      "  --out P   default: the matrix's BENCH_*.json, or stdout\n"
      "matrices:\n");
  for (const Matrix& m : kMatrices) {
    std::fprintf(stderr, "  %-12s %s\n", m.name, m.what);
  }
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return *s != '\0' && *s != '-' && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const Matrix* matrix = nullptr;
  for (const Matrix& m : kMatrices) {
    if (std::strcmp(argv[1], m.name) == 0) matrix = &m;
  }
  if (!matrix) return usage();

  std::uint64_t ads = matrix->default_ads;
  std::uint64_t seed = matrix->default_seed;
  std::uint64_t runs = 1;
  std::string out_path = matrix->default_out ? matrix->default_out : "";
  if (argc % 2 != 0) return usage();  // every option takes a value
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--ads" && matrix->default_ads == 0) {
      std::fprintf(stderr,
                   "scenario_matrix: --ads does not apply to '%s', which "
                   "runs the fixed Figure 1 internetwork\n",
                   matrix->name);
      return 2;
    }
    bool ok = true;
    if (flag == "--ads") {
      ok = parse_u64(value, ads) && ads > 0 &&
           ads <= std::numeric_limits<std::uint32_t>::max();
    } else if (flag == "--seed") {
      ok = parse_u64(value, seed);
    } else if (flag == "--runs") {
      ok = parse_u64(value, runs) && runs > 0;
    } else if (flag == "--out") {
      out_path = value;
    } else {
      ok = false;
    }
    if (!ok) return usage();
  }

  std::vector<Row> rows;
  for (std::uint64_t r = 0; r < runs; ++r) {
    matrix->run(static_cast<std::uint32_t>(ads), seed + r, rows);
  }

  std::FILE* out =
      out_path.empty() ? stdout : std::fopen(out_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "scenario_matrix: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  const std::string profile_seed =
      matrix->default_ads == 0 ? "null" : std::to_string(seed);
  std::fprintf(out,
               "{\n  \"schema\": \"bench_matrix/v1\",\n"
               "  \"matrix\": \"%s\",\n  \"profile_seed\": %s,\n"
               "  \"host_cpus\": %u,\n  \"runs\": [\n",
               matrix->name, profile_seed.c_str(),
               std::thread::hardware_concurrency());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(out, "    %s%s\n", rows[i].json().c_str(),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  if (out != stdout) std::fclose(out);
  return 0;
}
