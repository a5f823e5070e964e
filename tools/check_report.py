#!/usr/bin/env python3
"""Run one bench/ report binary and compare its stdout with a golden copy.

Usage: check_report.py BINARY GOLDEN

Exits 0 when the report is byte-identical to GOLDEN, 1 with a unified
diff when it is not, and 2 when the binary fails or GOLDEN is missing.
A deliberate report change regenerates the golden copy:

    ./build/bench/<name> > data/reports/<name>.txt
"""

import difflib
import subprocess
import sys


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    binary, golden_path = argv[1], argv[2]
    try:
        with open(golden_path, "rb") as f:
            golden = f.read()
    except OSError as e:
        print(f"cannot read golden report: {e}", file=sys.stderr)
        return 2
    run = subprocess.run([binary], stdout=subprocess.PIPE, check=False)
    if run.returncode != 0:
        print(f"{binary} exited {run.returncode}", file=sys.stderr)
        return 2
    if run.stdout == golden:
        return 0
    diff = difflib.unified_diff(
        golden.decode(errors="replace").splitlines(keepends=True),
        run.stdout.decode(errors="replace").splitlines(keepends=True),
        fromfile=golden_path,
        tofile=binary,
    )
    sys.stdout.writelines(diff)
    print(f"\nreport differs from {golden_path}; if the change is "
          "deliberate, regenerate the golden copy and say why")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
