#!/usr/bin/env python3
"""Summarise or compare benchmark result records.

    python3 perfbench/compare.py [--json] RESULTS_DIR
        spread of each end-to-end metric per workload: median, quartiles and
        (Q3 - Q1) / median against the bound in BENCHMARK.json; with --json
        the same as one JSON document (the form of each set in baseline.json)

    python3 perfbench/compare.py BASE_DIR NEW_DIR
        median change of each metric per workload, judged against its bound

A results directory holds the JSON records ``run.py`` writes to
``perfbench/out/results``.  Records whose rational backends differ are never
compared: the command refuses and exits with code 2.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_records(directory, trace=0):
    recs = []
    for path in sorted(Path(directory).glob("*.json")):
        with open(path, "r", encoding="utf-8") as fh:
            rec = json.load(fh)
        if rec["stamp"]["trace"] == trace and rec["stamp"]["size"] == "full":
            recs.append(rec)
    return recs


def load_spec():
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"]}


def by_workload(recs):
    out = {}
    for rec in recs:
        out.setdefault(rec["stamp"]["workload"], []).append(rec)
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def backends(recs):
    return {r["stamp"]["backend"] for r in recs}


def spread_report(recs, spec):
    ok = True
    for wl, rs in sorted(by_workload(recs).items()):
        seeds = sorted(r["stamp"]["seed"] for r in rs)
        print(f"{wl}: {len(rs)} runs, seeds {seeds}, "
              f"backend {', '.join(sorted(backends(rs)))}")
        for name, m in spec.items():
            vals = [r["end_to_end"][name] for r in rs]
            q1, q2, q3 = quartiles(vals)
            spread = (q3 - q1) / statistics.median(vals)
            flag = ""
            if spread > m["bound"] / 3:
                flag = "  <- above a third of the bound"
                ok = False
            print(f"  {name:16s} median {statistics.median(vals):12.5g} "
                  f"{m['unit']:4s} q1 {q1:12.5g} q3 {q3:12.5g} "
                  f"spread {spread:6.3f} bound {m['bound']}{flag}")
        fails = sum(r["failed"] for r in rs)
        print(f"  fail_ratio       {fails} of "
              f"{sum(r['attempted'] for r in rs)} checks failed")
    return ok


def spread_json(recs, spec):
    doc = {}
    for wl, rs in sorted(by_workload(recs).items()):
        st = rs[0]["stamp"]
        entry = {"runs": len(rs),
                 "seeds": sorted(r["stamp"]["seed"] for r in rs),
                 "seconds": st["seconds"],
                 "stamp": {k: st[k] for k in ("backend", "python", "nproc",
                                              "git_sha", "source_sha256")},
                 "checks_attempted": sum(r["attempted"] for r in rs),
                 "checks_failed": sum(r["failed"] for r in rs),
                 "metrics": {}}
        for name, m in spec.items():
            vals = [r["end_to_end"][name] for r in rs]
            q1, _, q3 = quartiles(vals)
            med = statistics.median(vals)
            entry["metrics"][name] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med, "bound": m["bound"]}
        doc[wl] = entry
    print(json.dumps(doc, indent=1, sort_keys=True))
    return True


def compare_report(base, new, spec):
    worse = False
    for wl in sorted(set(by_workload(base)) | set(by_workload(new))):
        b = by_workload(base).get(wl, [])
        n = by_workload(new).get(wl, [])
        if not b or not n:
            print(f"{wl}: missing on one side")
            continue
        print(f"{wl}: base {len(b)} runs, new {len(n)} runs")
        for name, m in spec.items():
            bv = [r["end_to_end"][name] for r in b]
            nv = [r["end_to_end"][name] for r in n]
            bm, nm = statistics.median(bv), statistics.median(nv)
            change = (nm - bm) / bm
            harm = change if m["better"] == "lower" else -change
            bq1, _, bq3 = quartiles(bv)
            noise = (bq3 - bq1) / bm
            if harm > m["bound"]:
                verdict = "WORSE than the bound"
                worse = True
            elif -harm > noise:
                verdict = "better, beyond the base spread"
            elif noise > m["bound"]:
                verdict = "unresolved (base spread exceeds the bound)"
            else:
                verdict = "within the bound"
            print(f"  {name:16s} {bm:12.5g} -> {nm:12.5g} {m['unit']:4s} "
                  f"{change:+7.1%}  {verdict}")
    return not worse


def main(argv):
    as_json = argv[:1] == ["--json"]
    if as_json:
        argv = argv[1:]
    if len(argv) not in (1, 2) or (as_json and len(argv) != 1):
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    sets = [load_records(d) for d in argv]
    found = set().union(*(backends(s) for s in sets))
    if len(found) > 1:
        print("refusing to compare results from different rational "
              f"backends: {', '.join(sorted(found))}", file=sys.stderr)
        return 2
    if any(not s for s in sets):
        print("no untraced full-size records found", file=sys.stderr)
        return 2
    if len(sets) == 1:
        report = spread_json if as_json else spread_report
        return 0 if report(sets[0], spec) else 1
    return 0 if compare_report(sets[0], sets[1], spec) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
