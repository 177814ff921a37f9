#!/usr/bin/env python3
"""Check that traced runs are deterministic and report the tracing overhead.

    python3 perfbench/check_trace.py [--seed N] [--seconds S] [WORKLOAD ...]

For each workload (default: ``verdicts suite``) this runs ``run.py`` once
untraced and twice traced with the same seed.  Every count and ratio of the
two traced runs (``*.calls``, ``rref.entries``, ``qmatrix.entries_coerced``,
``*.repeat_ratio``, ``*.kept_ratio`` and the other counters) must be
identical.  The overhead is the traced minus the untraced ``wall_s``, both
raw: the untraced run's reported ``wall_s`` is normalised to a fixed host
speed and the traced run's is not, so on a host whose speed drifts the
overhead is only as exact as that drift allows.  Each line also names the
traced run's top self-time layer.  Exits with code 1 when a counter differs
or a run fails.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WALL = re.compile(r"^note raw wall_s = (\S+) s", re.M)
TOP = re.compile(r"^top self-time layer: .*$", re.M)


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} exited with "
                         f"{proc.returncode}:\n{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    top = TOP.search(proc.stdout)
    return (float(WALL.search(proc.stdout).group(1)), result["metrics"],
            top.group(0) if top else None)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("workloads", nargs="*", default=["verdicts", "suite"])
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=10)
    args = p.parse_args(argv)
    ok = True
    for wl in args.workloads:
        plain = run(wl, args.seed, args.seconds, 0)[0]
        traced = [run(wl, args.seed, args.seconds, 1) for _ in range(2)]
        counts = [{k: v["value"] for k, v in m.items()
                   if v["unit"] in ("count", "ratio")} for _, m, _ in traced]
        differ = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        ok = ok and not differ
        over = [w - plain for w, _, _ in traced]
        print(f"{wl}: {len(counts[0])} counters, "
              f"{'identical' if not differ else 'DIFFER: ' + ', '.join(differ)}"
              f"; untraced wall_s {plain:.3f} s, traced "
              f"{traced[0][0]:.3f} / {traced[1][0]:.3f} s, overhead "
              f"{over[0]:+.3f} / {over[1]:+.3f} s "
              f"({over[0] / plain:+.1%} / {over[1] / plain:+.1%}); "
              f"{traced[0][2]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
