#!/usr/bin/env python3
"""Tests for tools/check_bench.py: one passing file per matrix, one
failing row per rule, the wall-speedup rule gated and informational, a
baseline-only cell and malformed input.

Run: python3 tools/test_check_bench.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "check_bench.py")
SEED = 379422


def doc(matrix, rows, host_cpus=4):
    return {"schema": "bench_matrix/v1", "matrix": matrix,
            "profile_seed": SEED, "host_cpus": host_cpus, "runs": rows}


def scale_rows():
    return [{"arch": arch, "ads": 987, "seed": SEED,
             "events_per_sec": 100000.0, "probes": 256,
             "probe_delivered": 256} for arch in ("ecma", "orwg")]


def parallel_rows():
    return [{"arch": "ecma", "ads": 9904, "seed": SEED, "threads": t,
             "critical_path_speedup": 6.4, "wall_speedup": 1.1 * t,
             "fingerprint_match": True, "events_match": True}
            for t in (1, 2, 4, 8)]


def storm_row(arch, storm, damping=False, holddown=0.0, msgs=100000):
    return {"arch": arch, "storm": storm, "damping": damping,
            "ls_holddown_ms": holddown, "ads": 987, "seed": SEED,
            "storm_transitions": 192, "reconverge_ms": 165.0,
            "storm_msgs": msgs, "persistent_violations": 0}


def chaos_scale_rows():
    return [storm_row("ecma", "flap-storm"),
            storm_row("ecma", "partition"),
            storm_row("ecma", "flap-storm", damping=True, msgs=20000),
            storm_row("ls-hbh", "flap-storm"),
            storm_row("ls-hbh", "flap-storm", holddown=150.0, msgs=12000)]


def restart_row(mode, ads, continuity):
    gr = mode != "cold"
    return {"arch": "idrp", "mode": mode, "ads": ads, "seed": SEED,
            "node_crashes": 16, "reconverge_ms": 170.0,
            "continuity_pct": continuity, "continuity_ok": 0,
            "continuity_probes": 0, "persistent_violations": 0,
            "gr_recoveries": 8 if mode == "gr" else 0,
            "gr_flushes": 16 if mode == "gr-flush" else 0,
            "peak_queue_depth": 50 if gr else 0}


def restart_rows():
    return [restart_row("cold", 9904, 94.0), restart_row("gr", 9904, 99.9),
            restart_row("gr-flush", 9904, 93.0),
            restart_row("cold", 987, 85.0), restart_row("gr", 987, 98.0),
            restart_row("gr-flush", 987, 84.0)]


def figure1_row(arch, seed, **kv):
    row = {"arch": arch, "seed": seed, "counter_fingerprint": 42,
           "repeat_fingerprint": 42, "persistent_violations": 0,
           "persistent_loops": 0, "persistent_black_holes": 0,
           "persistent_stale": 0, "node_crashes": 12, "msgs_corrupted": 300,
           "msgs_duplicated": 300, "msgs_reordered": 900,
           "defense_rejections": 0, "contained": False,
           "containment_ms": -1.0, "final_pollution": 0.0,
           "hijacked_pairs": 0, "leaked_pairs": 0, "black_holed_pairs": 0,
           "collateral_pairs": 0}
    row.update(kv)
    return row


def chaos_rows():
    return [figure1_row(arch, seed) for seed in (1, 2)
            for arch in ("ecma", "orwg")]


def byzantine_rows():
    return [figure1_row("orwg", 11, defended=False, hijacked_pairs=14,
                        final_pollution=0.44),
            figure1_row("orwg", 11, defended=True, defense_rejections=8,
                        contained=True, containment_ms=300.0)]


PASSING = {
    "scale": scale_rows,
    "parallel": parallel_rows,
    "chaos-scale": chaos_scale_rows,
    "restart": restart_rows,
    "chaos": chaos_rows,
    "byzantine": byzantine_rows,
}


class CheckBenchTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.files = 0

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, content):
        self.files += 1
        path = os.path.join(self.tmp.name, f"f{self.files}.json")
        with open(path, "w") as f:
            f.write(content if isinstance(content, str)
                    else json.dumps(content))
        return path

    def gate(self, current, baseline=None):
        args = [sys.executable, GATE, "--current", self.write(current)]
        if baseline is not None:
            args += ["--baseline", self.write(baseline)]
        p = subprocess.run(args, capture_output=True, text=True)
        return p.returncode, p.stdout, p.stderr

    def assert_fails(self, current, expected, baseline=None):
        code, out, err = self.gate(current, baseline)
        self.assertEqual(code, 1, out + err)
        self.assertIn(expected, err)
        return err

    def assert_passes(self, current, baseline=None):
        code, out, err = self.gate(current, baseline)
        self.assertEqual(code, 0, out + err)
        return out

    def mutate(self, matrix, index, **kv):
        rows = PASSING[matrix]()
        rows[index].update(kv)
        return doc(matrix, rows)

    def test_passing_file_per_matrix(self):
        for matrix, rows in PASSING.items():
            with self.subTest(matrix=matrix):
                self.assert_passes(doc(matrix, rows()))
                self.assert_passes(doc(matrix, rows()), doc(matrix, rows()))

    def test_scale_rules(self):
        base = doc("scale", scale_rows())
        self.assert_passes(self.mutate("scale", 0, events_per_sec=81000.0),
                           base)
        self.assert_fails(self.mutate("scale", 0, events_per_sec=79000.0),
                          "events/sec 79000 < 0.80x baseline", base)
        self.assert_fails(self.mutate("scale", 1, probe_delivered=255),
                          "delivered 255/256 probes", base)

    def test_parallel_rules(self):
        self.assert_fails(self.mutate("parallel", 1, fingerprint_match=False),
                          "fingerprint diverged")
        self.assert_fails(self.mutate("parallel", 2, events_match=False),
                          "event count diverged")
        self.assert_fails(
            self.mutate("parallel", 0, critical_path_speedup=2.9),
            "critical-path speedup 2.90x < 3.0x")

    def test_parallel_wall_rule_gated_and_informational(self):
        slow = parallel_rows()  # 8.8x at 8 threads; make it 1.2x
        slow[3]["wall_speedup"] = 1.2
        self.assert_fails(doc("parallel", slow, host_cpus=8),
                          "wall speedup 1.20x < 3.0x at the top thread count")
        out = self.assert_passes(doc("parallel", slow, host_cpus=4))
        self.assertIn("informational: host_cpus=4 < 8 threads", out)
        # Below the top thread count the wall speedup is never gated.
        slow[3]["wall_speedup"] = 3.0
        slow[1]["wall_speedup"] = 0.5
        self.assert_passes(doc("parallel", slow, host_cpus=8))

    def test_chaos_scale_rules(self):
        self.assert_fails(
            self.mutate("chaos-scale", 1, persistent_violations=2),
            "2 persistent invariant violation(s)")
        self.assert_fails(self.mutate("chaos-scale", 1, reconverge_ms=-1.0),
                          "never reconverged")
        self.assert_fails(self.mutate("chaos-scale", 1, storm_transitions=0),
                          "storm injected no transitions")
        self.assert_fails(self.mutate("chaos-scale", 2, storm_msgs=20001),
                          "100000 -> 20001 messages")
        self.assert_fails(self.mutate("chaos-scale", 4, storm_msgs=25000),
                          "100000 -> 25000 messages")
        base = doc("chaos-scale", chaos_scale_rows())
        self.assert_fails(
            self.mutate("chaos-scale", 0, reconverge_ms=198.1),
            "reconverge 198.1 ms > 1.20x baseline 165.0 ms", base)
        self.assert_passes(self.mutate("chaos-scale", 0, reconverge_ms=198.0),
                           base)
        base["runs"][1]["persistent_violations"] = 1
        self.assert_fails(doc("chaos-scale", chaos_scale_rows()),
                          "0 persistent violations vs baseline 1", base)

    def test_storm_findings_are_printed(self):
        finding = {"kind": "black-hole", "src": 7, "dst": 3, "at_ms": 2500.0,
                   "path": [7, 1, 4]}
        err = self.assert_fails(
            self.mutate("chaos-scale", 1, persistent_violations=1,
                        persistent_findings=[finding]),
            "1 persistent invariant violation(s)")
        self.assertIn("black-hole ad7->ad3 at 2500 ms, path: 7 1 4", err)

    def test_restart_rules(self):
        cases = [
            (0, {"node_crashes": 0}, "storm crashed no nodes"),
            (0, {"reconverge_ms": -1.0}, "never reconverged"),
            (1, {"continuity_pct": 98.9}, "continuity 98.90% below the bar"),
            (4, {"continuity_pct": 97.4}, "continuity 97.40% below the bar"),
            (1, {"gr_recoveries": 0}, "no grace window ended in a recovery"),
            (2, {"gr_flushes": 0}, "no grace window expired into a flush"),
            (1, {"persistent_violations": 1},
             "1 persistent invariant violation(s)"),
            (5, {"persistent_violations": 3},
             "3 persistent invariant violation(s)"),
            (2, {"peak_queue_depth": 65}, "peak queue depth 65 > 64"),
            (0, {"continuity_pct": 95.0}, "gained too little over cold"),
            (3, {"continuity_pct": 88.5}, "gained too little over cold"),
        ]
        for index, change, expected in cases:
            with self.subTest(expected=expected, index=index):
                self.assert_fails(self.mutate("restart", index, **change),
                                  expected)
        # Cold rows carry no continuity, persistence or queue bars.
        self.assert_passes(self.mutate("restart", 0, persistent_violations=1,
                                       peak_queue_depth=500))
        base = doc("restart", restart_rows())
        self.assert_fails(self.mutate("restart", 3, reconverge_ms=205.0),
                          "reconverge 205.0 ms > 1.20x baseline", base)
        self.assert_fails(self.mutate("restart", 3, persistent_violations=1),
                          "1 persistent violations vs baseline 0", base)

    def test_chaos_rules(self):
        err = self.assert_fails(
            self.mutate("chaos", 2, repeat_fingerprint=43),
            "not deterministic: counter fingerprint 42 vs repeat 43")
        self.assertIn("fingerprints 42 / 43", err)
        self.assert_fails(
            self.mutate("chaos", 1, persistent_violations=1,
                        persistent_stale=1),
            "1 persistent invariant violations (loops=0 black holes=0 "
            "stale=1)")
        for field in ("node_crashes", "msgs_corrupted", "msgs_duplicated",
                      "msgs_reordered"):
            with self.subTest(field=field):
                self.assert_fails(self.mutate("chaos", 0, **{field: 0}),
                                  "vacuous soak: no "
                                  + field.replace("_", " "))

    def test_byzantine_rules(self):
        self.assert_fails(self.mutate("byzantine", 0, repeat_fingerprint=7),
                          "not deterministic")
        self.assert_fails(
            self.mutate("byzantine", 1, contained=False,
                        containment_ms=-1.0),
            "defended run not contained")
        self.assert_fails(self.mutate("byzantine", 1, final_pollution=0.01),
                          "defended run not contained")
        self.assert_fails(
            self.mutate("byzantine", 1, persistent_violations=2),
            "defended run left 2 persistent invariant violations")
        self.assert_fails(self.mutate("byzantine", 1, defense_rejections=0),
                          "defenses never fired")
        self.assert_fails(
            self.mutate("byzantine", 0, hijacked_pairs=0, contained=True,
                        containment_ms=0.0, final_pollution=0.0),
            "no pollution observed")

    def test_one_sided_cells_are_noted_not_failed(self):
        base = doc("scale", scale_rows())
        base["runs"][0]["events_per_sec"] = 1e9  # would fail if compared
        cur = doc("scale", scale_rows()[1:])
        out = self.assert_passes(cur, base)
        self.assertIn("arch=ecma ads=987 seed=379422 only in baseline", out)
        self.assertIn("1 compared against baseline", out)

    def test_malformed_input_exits_2(self):
        cases = {
            "not json": "{",
            "wrong schema": dict(doc("scale", scale_rows()),
                                 schema="bench_scale/v1"),
            "unknown matrix": doc("nope", scale_rows()),
            "no rows": doc("scale", []),
            "missing field": doc("chaos", [{"arch": "ecma", "seed": 1}]),
            "duplicate cell": doc("scale", scale_rows() + scale_rows()),
        }
        for name, current in cases.items():
            with self.subTest(name):
                self.assertEqual(self.gate(current)[0], 2)
        self.assertEqual(self.gate(doc("scale", scale_rows()),
                                   doc("restart", restart_rows()))[0], 2)


if __name__ == "__main__":
    unittest.main()
