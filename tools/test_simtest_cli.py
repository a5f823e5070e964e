#!/usr/bin/env python3
"""The simtest CLI rejects a malformed or out-of-range number with exit 2
and a message naming the option, before any case runs.

Run: python3 tools/test_simtest_cli.py build/tools/simtest

The checks run in order and stop at the first failure. The malformed
--seeds values come first. Every later check, the upper bounds included,
also names a replay file that does not exist, so a build that accepted
the bad number would stop at the missing file instead of running a case
with it.
"""

import os
import subprocess
import sys
import tempfile


def run(binary, args):
    return subprocess.run([binary, *args], capture_output=True, text=True,
                          timeout=120)


def main():
    binary = sys.argv[1]
    with tempfile.TemporaryDirectory() as tmp:
        missing = ["--replay", os.path.join(tmp, "absent.simcase")]
        bad = [["--seeds", v] for v in ("abc", "-1", "0", "3x", "", " 4")]
        bad += [[flag, v] + missing for flag, v in (
            ("--seed", "abc"), ("--seed", "-5"),
            ("--seed", "99999999999999999999999"),
            ("--shards", "-1"), ("--shards", "0"), ("--shards", "65"),
            ("--shards", "4294967295"),
            ("--threads", "-1"), ("--threads", "65"), ("--threads", "2.5"),
            ("--min-ads", "-3"), ("--max-ads", "ten"), ("--flows", "-1"),
            ("--seeds", "100001"), ("--seeds", "4294967296"),
            ("--min-ads", "1025"), ("--max-ads", "1025"),
            ("--max-ads", "4294967295"), ("--flows", "4097"),
            ("--flows", "4000000000"),
            ("--horizon-ms", "abc"), ("--horizon-ms", "0"),
            ("--horizon-ms", "-1"), ("--horizon-ms", "inf"),
            ("--horizon-ms", "5ms"))]
        checks = [(args, f"bad value for {args[0]}") for args in bad]
        checks.append((["--min-ads", "20", "--max-ads", "10"] + missing,
                       "--min-ads 20 is above --max-ads 10"))
        for args, message in checks:
            got = run(binary, args)
            if (got.returncode != 2 or message not in got.stderr or
                    "cases clean" in got.stdout):
                print(f"FAIL: simtest {args}: exit {got.returncode}, "
                      f"stderr {got.stderr.strip()!r}")
                return 1

    # In-range values still run: one case on 4 shards, 2 threads.
    good = ["--seeds", "1", "--shards", "4", "--threads", "2",
            "--horizon-ms", "4000"]
    got = run(binary, good)
    if got.returncode != 0 or "1/1 cases clean" not in got.stdout:
        print(f"FAIL: simtest {good}: exit {got.returncode}\n{got.stdout}")
        return 1
    print(f"ok: {len(checks)} bad values rejected, in-range values accepted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
