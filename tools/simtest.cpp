// simtest -- deterministic simulation-testing driver.
//
// Generates seeded random worlds (topology + policies + flows + scripted
// churn/crash/Byzantine schedule), runs each on all four design points
// (ECMA, IDRP, LS-HbH, ORWG), and classifies every flow's outcome against
// the ground-truth oracle into agreements, paper-sanctioned divergences
// and genuine violations (illegal path, loop, stale route, black hole
// with a legal route, nondeterminism). Exit 1 iff any genuine violation
// was found.
//
// Usage: simtest [--seeds N] [--seed S] [--shrink] [--json PATH]
//                [--replay FILE] [--out DIR] [--inject-bug]
//                [--min-ads N] [--max-ads N] [--flows N] [--horizon-ms T]
//                [--no-determinism] [--shards N] [--threads N]
//   --seeds N      run seeds S..S+N-1 (default S=1, N=8)
//   --shrink       delta-debug every failing case to a minimal reproducer
//   --out DIR      write (shrunk) reproducers to DIR/<case>.simcase
//   --replay FILE  load one reproducer and run it instead of generating
//   --inject-bug   arm the known-bad LS-HbH probe defect (tests the tester)
//   --json PATH    machine-readable per-seed report
//   --shards N     run the sharded-parallel engine with N shards (1 =
//                  sequential reference; results are identical either way)
//   --threads N    worker threads for the shards (0 = inline windows)
// Seeds and counts are plain decimals (digits only): --seeds 1..100000,
// --shards 1..64, --threads 0..64, --min-ads and --max-ads 0..1024 with
// min <= max, --flows 0..4096. --horizon-ms is a finite number above 0.
// Anything else exits 2 before a case runs.
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>

#include "simtest/differential.hpp"
#include "simtest/scenario_generator.hpp"
#include "simtest/shrink.hpp"
#include "simtest/simcase.hpp"

namespace {

using namespace idr;

// Upper bounds on the counts: far above any useful simtest run, far below
// a count that exhausts memory, threads or a uint32 size range.
constexpr std::uint64_t kMaxSeeds = 100'000;
constexpr std::uint64_t kMaxShards = 64;  // also bounds --threads
constexpr std::uint64_t kMaxAds = 1'024;
constexpr std::uint64_t kMaxFlows = 4'096;

struct ToolOptions {
  std::uint64_t seed = 1;
  std::uint64_t seeds = 8;
  bool shrink = false;
  bool inject_bug = false;
  bool determinism = true;
  std::uint32_t shards = 1;
  unsigned threads = 0;
  std::string json_path;
  std::string out_dir;
  std::string replay_path;
  std::string write_dir;  // dump every case before running (corpus refresh)
  SimCaseParams gen;
};

// A plain decimal in [lo, hi]: digits only, no overflow.
bool parse_u64(const char* s, std::uint64_t lo, std::uint64_t hi,
               std::uint64_t& out) {
  if (*s == '\0') return false;
  for (const char* p = s; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
  }
  errno = 0;
  out = std::strtoull(s, nullptr, 10);
  return errno == 0 && out >= lo && out <= hi;
}

// A finite decimal above zero, nothing after it.
bool parse_positive(const char* s, double& out) {
  char* end = nullptr;
  errno = 0;
  out = std::strtod(s, &end);
  return end != s && *end == '\0' && errno == 0 && std::isfinite(out) &&
         out > 0.0;
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    std::fprintf(stderr, "simtest: cannot open %s\n", path.c_str());
    std::exit(2);
  }
  std::string text;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) {
    text.append(buf, got);
  }
  std::fclose(f);
  return text;
}

void write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) {
    std::fprintf(stderr, "simtest: cannot write %s\n", path.c_str());
    return;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "simtest: wrote %s\n", path.c_str());
}

void print_result(const SimCase& c, const DiffResult& result) {
  std::printf("%-12s ads=%-3zu links=%-3zu flows=%-3zu events=%zu\n",
              c.name.c_str(), c.topo.ad_count(), c.topo.link_count(),
              c.flows.size(), c.events.size());
  for (const ArchDiffResult& a : result.archs) {
    std::printf(
        "  %-7s legal=%-3zu no-route=%-3zu expected=%-3zu unknown=%-3zu "
        "skipped=%-3zu violations=%zu fp=%016" PRIx64 "\n",
        a.arch.c_str(), a.delivered_legal, a.agreed_no_route,
        a.expected_divergences, a.unknown, a.flows_skipped,
        a.violations.size(), a.fingerprint);
    for (const DiffFinding& f : a.violations) {
      std::printf("    VIOLATION %s: %s", f.signature().c_str(),
                  f.detail.c_str());
      if (f.flow.src.valid() && f.flow.dst.valid() &&
          f.flow.src.v < c.topo.ad_count() && f.flow.dst.v < c.topo.ad_count()) {
        std::printf(" [%s -> %s]", c.topo.ad(f.flow.src).name.c_str(),
                    c.topo.ad(f.flow.dst).name.c_str());
      }
      std::printf("\n");
    }
  }
}

void json_report(std::FILE* f, const SimCase& c, const DiffResult& result,
                 bool last) {
  std::fprintf(f, "    {\"case\": \"%s\", \"seed\": %" PRIu64
                  ", \"ads\": %zu, \"archs\": [\n",
               c.name.c_str(), c.seed, c.topo.ad_count());
  for (std::size_t i = 0; i < result.archs.size(); ++i) {
    const ArchDiffResult& a = result.archs[i];
    std::fprintf(f,
                 "      {\"arch\": \"%s\", \"delivered_legal\": %zu, "
                 "\"agreed_no_route\": %zu, \"expected\": %zu, "
                 "\"unknown\": %zu, \"skipped\": %zu, \"violations\": %zu, "
                 "\"fingerprint\": \"%016" PRIx64 "\"}%s\n",
                 a.arch.c_str(), a.delivered_legal, a.agreed_no_route,
                 a.expected_divergences, a.unknown, a.flows_skipped,
                 a.violations.size(), a.fingerprint,
                 i + 1 < result.archs.size() ? "," : "");
  }
  std::fprintf(f, "    ]}%s\n", last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  constexpr std::uint64_t kU64 = std::numeric_limits<std::uint64_t>::max();
  ToolOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "simtest: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    std::uint64_t n = 0;
    bool ok = true;
    if (arg == "--seed") ok = parse_u64(next(), 0, kU64, opts.seed);
    else if (arg == "--seeds")
      ok = parse_u64(next(), 1, kMaxSeeds, opts.seeds);
    else if (arg == "--shrink") opts.shrink = true;
    else if (arg == "--inject-bug") opts.inject_bug = true;
    else if (arg == "--no-determinism") opts.determinism = false;
    else if (arg == "--shards") {
      ok = parse_u64(next(), 1, kMaxShards, n);
      opts.shards = static_cast<std::uint32_t>(n);
    } else if (arg == "--threads") {
      ok = parse_u64(next(), 0, kMaxShards, n);
      opts.threads = static_cast<unsigned>(n);
    } else if (arg == "--json") opts.json_path = next();
    else if (arg == "--out") opts.out_dir = next();
    else if (arg == "--replay") opts.replay_path = next();
    else if (arg == "--write-cases") opts.write_dir = next();
    else if (arg == "--min-ads") {
      ok = parse_u64(next(), 0, kMaxAds, n);
      opts.gen.min_ads = static_cast<std::uint32_t>(n);
    } else if (arg == "--max-ads") {
      ok = parse_u64(next(), 0, kMaxAds, n);
      opts.gen.max_ads = static_cast<std::uint32_t>(n);
    } else if (arg == "--flows") {
      ok = parse_u64(next(), 0, kMaxFlows, n);
      opts.gen.flow_count = static_cast<std::size_t>(n);
    } else if (arg == "--horizon-ms") {
      ok = parse_positive(next(), opts.gen.horizon_ms);
    } else {
      std::fprintf(stderr, "simtest: unknown option %s\n", arg.c_str());
      return 2;
    }
    if (!ok) {
      std::fprintf(stderr, "simtest: bad value for %s: %s\n", arg.c_str(),
                   argv[i]);
      return 2;
    }
  }
  if (opts.gen.min_ads > opts.gen.max_ads) {
    std::fprintf(stderr, "simtest: --min-ads %u is above --max-ads %u\n",
                 opts.gen.min_ads, opts.gen.max_ads);
    return 2;
  }

  DiffOptions diff;
  diff.check_determinism = opts.determinism;
  diff.inject_probe_bug = opts.inject_bug;
  diff.shards = opts.shards;
  diff.threads = opts.threads;

  // A replayed case, or seeds generated one at a time as they run.
  std::optional<SimCase> replayed;
  if (!opts.replay_path.empty()) {
    SimCaseParseResult parsed = parse_sim_case(read_file(opts.replay_path));
    if (const auto* e = std::get_if<SimCaseParseError>(&parsed)) {
      std::fprintf(stderr, "simtest: %s: %s\n", opts.replay_path.c_str(),
                   e->describe().c_str());
      return 2;
    }
    replayed = std::move(std::get<SimCase>(parsed));
  }
  const std::uint64_t case_count = replayed ? 1 : opts.seeds;

  std::FILE* json = nullptr;
  if (!opts.json_path.empty()) {
    json = std::fopen(opts.json_path.c_str(), "w");
    if (!json) {
      std::fprintf(stderr, "simtest: cannot write %s\n",
                   opts.json_path.c_str());
      return 2;
    }
    std::fprintf(json, "{\n  \"cases\": [\n");
  }

  std::size_t failing_cases = 0;
  std::size_t total_violations = 0;
  for (std::uint64_t i = 0; i < case_count; ++i) {
    SimCaseParams params = opts.gen;
    params.seed = opts.seed + i;
    const SimCase c = replayed ? *replayed : generate_sim_case(params);
    if (!opts.write_dir.empty()) {
      write_file(opts.write_dir + "/" + c.name + ".simcase",
                 format_sim_case(c));
    }
    const DiffResult result = run_differential(c, diff);
    print_result(c, result);
    if (json) json_report(json, c, result, i + 1 == case_count);
    if (result.clean()) continue;
    ++failing_cases;
    total_violations += result.violation_count();

    SimCase reproducer = c;
    if (opts.shrink) {
      const FailurePredicate predicate =
          signature_predicate(result.signatures(), diff);
      const ShrinkResult shrunk = shrink_sim_case(c, predicate);
      reproducer = shrunk.minimized;
      reproducer.name = c.name + "-min";
      std::printf(
          "  shrunk %zu->%zu ads, %zu->%zu flows, %zu->%zu events "
          "(%zu checks, %zu rounds)\n",
          c.topo.ad_count(), reproducer.topo.ad_count(), c.flows.size(),
          reproducer.flows.size(), c.events.size(),
          reproducer.events.size(), shrunk.checks, shrunk.rounds);
    }
    if (!opts.out_dir.empty()) {
      write_file(opts.out_dir + "/" + reproducer.name + ".simcase",
                 format_sim_case(reproducer));
    }
  }

  if (json) {
    std::fprintf(json, "  ],\n  \"failing_cases\": %zu\n}\n", failing_cases);
    std::fclose(json);
  }
  std::printf("simtest: %" PRIu64 "/%" PRIu64
              " cases clean, %zu genuine violations\n",
              case_count - failing_cases, case_count, total_violations);
  return failing_cases == 0 ? 0 : 1;
}
