#!/usr/bin/env python3
"""One gate for every bench_matrix/v1 file tools/scenario_matrix writes.

Usage: tools/check_bench.py --current PATH [--baseline PATH]

RULES has one entry per matrix. `key` names a cell; files are matched on
it. `row` rules (message, applies(r, f), holds(r, f)) judge each current
row alone; `pair` rules (message, partner(r), holds(r, o)) judge it
against the row of the same file whose key has partner(r)'s fields
replaced; `base` rules (message, holds(r, o)) against the baseline row
of its cell; `note` entries are printed, never failed. Messages format
the row as r, the other row as o and the file as f. Where a bar depends
on the profile size, the rule reads it from the row's `ads`. A cell on
only one side is noted, never failed.

Exit status: 0 = every rule holds, 1 = a rule failed, 2 = bad input.
"""

import argparse
import json
import sys

SCHEMA = "bench_matrix/v1"
PAPER_ADS = 9904  # the 1e4-AD profile; smaller rows are CI-size runs
SPEEDUP_FLOOR = 3.0


def paper_scale(r):
    return r["ads"] >= PAPER_ADS


def top_threads(r, f):
    return r["threads"] == max(x["threads"] for x in f.rows
                               if x["arch"] == r["arch"]
                               and x["ads"] == r["ads"]
                               and x["seed"] == r["seed"])


STORM_VS_BASELINE = [
    ("{r[persistent_violations]} persistent violations vs baseline "
     "{o[persistent_violations]}",
     lambda r, o: r["persistent_violations"] == o["persistent_violations"]),
    ("reconverge {r[reconverge_ms]:.1f} ms > 1.20x baseline "
     "{o[reconverge_ms]:.1f} ms",
     lambda r, o: o["reconverge_ms"] <= 0
     or r["reconverge_ms"] <= 1.20 * o["reconverge_ms"]),
]

REPEATABLE = (
    "not deterministic: counter fingerprint {r[counter_fingerprint]} vs "
    "repeat {r[repeat_fingerprint]}",
    None, lambda r, f: r["counter_fingerprint"] == r["repeat_fingerprint"])

RULES = {
    "scale": {
        "key": ("arch", "ads", "seed"),
        "base": [
            ("events/sec {r[events_per_sec]:.0f} < 0.80x baseline "
             "{o[events_per_sec]:.0f}",
             lambda r, o: r["events_per_sec"] >= 0.80 * o["events_per_sec"]),
            ("delivered {r[probe_delivered]}/{r[probes]} probes vs baseline "
             "{o[probe_delivered]}/{o[probes]}",
             lambda r, o: r["probe_delivered"] >= o["probe_delivered"]),
        ],
    },
    "parallel": {
        "key": ("arch", "threads", "ads", "seed"),
        "row": [
            ("fingerprint diverged from the sequential run", None,
             lambda r, f: r["fingerprint_match"] is True),
            ("event count diverged from the sequential run", None,
             lambda r, f: r["events_match"] is True),
            ("critical-path speedup {r[critical_path_speedup]:.2f}x < 3.0x",
             None, lambda r, f: r["critical_path_speedup"] >= SPEEDUP_FLOOR),
            # Threads cannot beat the sequential run without cores to run on.
            ("wall speedup {r[wall_speedup]:.2f}x < 3.0x at the top thread "
             "count (host_cpus={f.host_cpus})",
             lambda r, f: top_threads(r, f) and f.host_cpus >= r["threads"],
             lambda r, f: r["wall_speedup"] >= SPEEDUP_FLOOR),
        ],
        "note": [
            ("wall speedup {r[wall_speedup]:.2f}x is informational: "
             "host_cpus={f.host_cpus} < {r[threads]} threads",
             lambda r, f: top_threads(r, f) and f.host_cpus < r["threads"]),
        ],
    },
    "chaos-scale": {
        "key": ("arch", "storm", "damping", "ls_holddown_ms", "ads", "seed"),
        "row": [
            ("{r[persistent_violations]} persistent invariant violation(s)",
             None, lambda r, f: r["persistent_violations"] == 0),
            ("never reconverged", None, lambda r, f: r["reconverge_ms"] >= 0),
            ("storm injected no transitions", None,
             lambda r, f: r["storm_transitions"] > 0),
        ],
        "pair": [
            ("recovery knob cut flap-storm churn less than 5x: "
             "{o[storm_msgs]} -> {r[storm_msgs]} messages",
             lambda r: {"damping": False, "ls_holddown_ms": 0.0}
             if r["storm"] == "flap-storm"
             and (r["damping"] or r["ls_holddown_ms"] > 0) else None,
             lambda r, o: o["storm_msgs"] >= 5 * r["storm_msgs"]),
        ],
        "base": STORM_VS_BASELINE,
    },
    "restart": {
        "key": ("arch", "mode", "ads", "seed"),
        "row": [
            ("storm crashed no nodes", None,
             lambda r, f: r["node_crashes"] > 0),
            ("never reconverged", None, lambda r, f: r["reconverge_ms"] >= 0),
            ("continuity {r[continuity_pct]:.2f}% below the bar "
             "({r[continuity_ok]}/{r[continuity_probes]})",
             lambda r, f: r["mode"] == "gr",
             lambda r, f: r["continuity_pct"]
             >= (99.0 if paper_scale(r) else 97.5)),
            ("no grace window ended in a recovery",
             lambda r, f: r["mode"] == "gr",
             lambda r, f: r["gr_recoveries"] > 0),
            ("no grace window expired into a flush",
             lambda r, f: r["mode"] == "gr-flush",
             lambda r, f: r["gr_flushes"] > 0),
            ("{r[persistent_violations]} persistent invariant violation(s)",
             lambda r, f: r["mode"] != "cold",
             lambda r, f: r["persistent_violations"] == 0),
            ("peak queue depth {r[peak_queue_depth]} > 64",
             lambda r, f: r["mode"] != "cold",
             lambda r, f: r["peak_queue_depth"] <= 64),
        ],
        "pair": [
            ("gr continuity {r[continuity_pct]:.2f}% gained too little over "
             "cold {o[continuity_pct]:.2f}%",
             lambda r: {"mode": "cold"} if r["mode"] == "gr" else None,
             lambda r, o: r["continuity_pct"] - o["continuity_pct"]
             >= (5.0 if paper_scale(r) else 10.0)),
        ],
        "base": STORM_VS_BASELINE,
    },
    "chaos": {
        "key": ("arch", "seed"),
        "row": [
            REPEATABLE,
            ("{r[persistent_violations]} persistent invariant violations "
             "(loops={r[persistent_loops]} "
             "black holes={r[persistent_black_holes]} "
             "stale={r[persistent_stale]})",
             None, lambda r, f: r["persistent_violations"] == 0),
        ] + [
            (f"vacuous soak: no {field.replace('_', ' ')}", None,
             lambda r, f, field=field: r[field] > 0)
            for field in ("node_crashes", "msgs_corrupted", "msgs_duplicated",
                          "msgs_reordered")
        ],
    },
    "byzantine": {
        "key": ("arch", "seed", "defended"),
        "row": [
            REPEATABLE,
            ("defended run not contained (containment {r[containment_ms]} ms, "
             "final pollution {r[final_pollution]})",
             lambda r, f: r["defended"],
             lambda r, f: r["contained"] and r["final_pollution"] == 0),
            ("defended run left {r[persistent_violations]} persistent "
             "invariant violations",
             lambda r, f: r["defended"],
             lambda r, f: r["persistent_violations"] == 0),
            ("defenses never fired", lambda r, f: r["defended"],
             lambda r, f: r["defense_rejections"] > 0),
            ("no pollution observed: the Byzantine schedule had no effect",
             lambda r, f: not r["defended"],
             lambda r, f: not r["contained"] or r["hijacked_pairs"]
             + r["leaked_pairs"] + r["black_holed_pairs"]
             + r["collateral_pairs"] > 0),
        ],
    },
}


class File:
    def __init__(self, path):
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise ValueError(f"cannot read {path}: {e}")
        if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
            raise ValueError(f"{path} is not a {SCHEMA} file")
        self.matrix = doc.get("matrix")
        if self.matrix not in RULES:
            raise ValueError(f"{path}: unknown matrix {self.matrix!r}")
        self.rows = doc.get("runs")
        if not isinstance(self.rows, list) or not self.rows \
                or not all(isinstance(r, dict) for r in self.rows):
            raise ValueError(f"{path}: 'runs' is not a non-empty list of rows")
        self.host_cpus = doc.get("host_cpus") or 0
        self.rules = RULES[self.matrix]
        self.cells = {}
        for r in self.rows:
            key = self.key(r)
            if key in self.cells:
                raise ValueError(f"{path}: duplicate cell {self.label(r)}")
            self.cells[key] = r

    def key(self, r):
        return tuple(r[k] for k in self.rules["key"])

    def label(self, r):
        return " ".join(f"{k}={r.get(k)}" for k in self.rules["key"])


def diagnostics(r):  # what a failing row carries beyond its message
    lines = []
    if "repeat_fingerprint" in r:
        lines.append(f"fingerprints {r['counter_fingerprint']} / "
                     f"{r['repeat_fingerprint']}")
    for fd in r.get("persistent_findings", []):
        lines.append(f"{fd['kind']} ad{fd['src']}->ad{fd['dst']} at "
                     f"{fd['at_ms']:.0f} ms, path: "
                     + " ".join(str(hop) for hop in fd["path"]))
    return lines


def check(cur, base):
    rules = cur.rules
    failures = []
    compared = 0
    for r in cur.rows:
        errs = [msg.format(r=r, f=cur)
                for msg, applies, holds in rules.get("row", [])
                if (applies is None or applies(r, cur)) and not holds(r, cur)]
        for msg, partner, holds in rules.get("pair", []):
            swap = partner(r)
            if swap is None:
                continue
            o = cur.cells.get(cur.key({**r, **swap}))
            if o is None:
                print(f"  note: {cur.label(r)} has no A/B partner; skipped")
            elif not holds(r, o):
                errs.append(msg.format(r=r, o=o))
        o = base.cells.get(cur.key(r)) if base else None
        if o is not None:
            compared += 1
            errs += [msg.format(r=r, o=o)
                     for msg, ok in rules.get("base", []) if not ok(r, o)]
        for msg, applies in rules.get("note", []):
            if applies(r, cur):
                print(f"  note: {cur.label(r)}: {msg.format(r=r, f=cur)}")
        status = "FAIL" if errs else "ok"
        print(f"  {cur.label(r)}{' (vs baseline)' if o else ''} [{status}]")
        failures += [(cur.label(r), e, diagnostics(r)) for e in errs]
    if base:
        for key, r in base.cells.items():
            if key not in cur.cells:
                print(f"  note: {base.label(r)} only in baseline; skipped")
    return failures, compared


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--current", required=True, help="bench_matrix/v1 file")
    ap.add_argument("--baseline", help="checked-in file of the same matrix")
    args = ap.parse_args()
    try:
        cur = File(args.current)
        base = File(args.baseline) if args.baseline else None
        if base and base.matrix != cur.matrix:
            raise ValueError(f"baseline is matrix {base.matrix!r}, "
                             f"current is {cur.matrix!r}")
        failures, compared = check(cur, base)
    except (KeyError, TypeError, ValueError) as e:
        print(f"check_bench: bad input: {type(e).__name__}: {e}",
              file=sys.stderr)
        return 2
    if failures:
        print(f"check_bench: {cur.matrix}: {len(failures)} failure(s):",
              file=sys.stderr)
        for label, err, diag in failures:
            print(f"  FAIL [{label}]: {err}", file=sys.stderr)
            for line in diag:
                print(f"    {line}", file=sys.stderr)
        return 1
    print(f"check_bench: {cur.matrix}: {len(cur.rows)} row(s) clean, "
          f"{compared} compared against baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
