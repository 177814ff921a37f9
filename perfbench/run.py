#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload suite|morita|verdicts --seed N \\
        --seconds S --trace 0|1

Load is a closed loop with one client: each operation starts when the
previous one has finished, and a child process (the ``suite`` command line)
runs while this process waits.  Set-up runs several times and ``setup_s`` is
the median; then passes of operations run until ``--seconds`` have elapsed
(at least one pass).  Every output is checked against its oracle.

The process pins itself to one CPU.  Untraced, every end-to-end time is
normalised to a fixed host speed with reference slices run next to the work
(see ``hostspeed.py``); the raw times are printed and recorded beside them.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` the tracer's wrappers are installed, a fixed number of passes
runs, and the last line carries the per-layer metrics.  The lines before it
name every metric with its unit, ``fail_ratio`` and the result stamp
(rational backend, Python version, core count, git SHA, seed).  A record of
the run is written under ``perfbench/out/``.  The exit code is 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import sys
import time
from pathlib import Path

from hostspeed import factor, pin_to_one_cpu, reference_slice

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: name -> unit, in the order of BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "verdicts_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

#: reference slices run just before and just after each set-up
SETUP_SLICES = 5


def per_layer_units():
    """Per-layer metric name -> unit, in the order of BENCHMARK.json."""
    from tracer import COUNTERS, TRACED, traced_names
    units = {f"{layer}.self_s": "s" for layer in TRACED}
    units["exactlin.under_homology.self_s"] = "s"
    units["cli.import_s"] = "s"
    for span in traced_names():
        units[span + ".calls"] = "count"
        units[span + ".self_s"] = "s"
    for name in COUNTERS:
        units[name] = "ratio" if name.endswith("_ratio") else "count"
    return units


# ---------------------------------------------------------------------------
# stamps


def _git_sha(root):
    """HEAD of the checkout's own git directory, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256(src):
    h = hashlib.sha256()
    for path in sorted((src / "hccourant").rglob("*")):
        if path.suffix in (".py", ".json") and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def stamp(args):
    from hccourant.exactlin import Q
    backend = type(Q(0))
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"backend": f"{backend.__module__}.{backend.__qualname__}",
            "python": platform.python_version(), "nproc": nproc,
            "git_sha": _git_sha(ROOT), "source_sha256": _source_sha256(SRC),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "size": args.size}


# ---------------------------------------------------------------------------
# measurement


def percentile(sorted_values, pct):
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def measure(wl, seed, seconds, tracer):
    """Set up, then run passes; returns the raw measurements.

    Untraced, each set-up time is normalised at once (``setup_norm``) and
    each pass comes with the reference slices measured within it
    (``pass_slices``; see ``hostspeed``).  A workload with ``timed_setup``
    times and normalises its own set-up, as an op with ``times_itself``
    times its own run.
    """
    normalise = tracer is None
    setup_times, setup_norm = [], []
    for _ in range(1 if tracer else wl.setup_repeats):
        req = tracer.begin_request("bench.setup") if tracer else None
        if hasattr(wl, "timed_setup"):
            state, dt, norm = wl.timed_setup(normalise)
        else:
            slices = [reference_slice() for _ in range(SETUP_SLICES)] \
                if normalise else []
            t0 = time.perf_counter()
            state = wl.setup()
            dt = norm = time.perf_counter() - t0
            if normalise:
                slices += [reference_slice() for _ in range(SETUP_SLICES)]
                norm = dt * factor(slices)
        setup_times.append(dt)
        setup_norm.append(norm)
        if tracer:
            tracer.end_request(req)

    rng = random.Random(seed)
    passes = wl.passes(state, rng)
    latencies, kinds, pass_ops, pass_slices = [], [], [], []
    attempted = failed = 0
    errors = []
    start = time.perf_counter()
    while True:
        req = tracer.begin_request("bench.prepare") if tracer else None
        ops = next(passes)
        if tracer:
            tracer.end_request(req)
        slices = []
        for op in ops:
            req = tracer.begin_request("bench." + op.kind) if tracer else None
            t0 = time.perf_counter()
            try:
                if op.times_itself:
                    out, dt, op_slices = op.run(normalise)
                else:
                    op_slices = [reference_slice()] if normalise else []
                    t0 = time.perf_counter()
                    out = op.run()
                    dt = time.perf_counter() - t0
                err = None
            except Exception as exc:  # counted as a failed operation
                out, err, op_slices = None, exc, []
                dt = time.perf_counter() - t0
            if tracer:
                tracer.end_request(req)
            latencies.append(dt)
            kinds.append(op.kind)
            slices += op_slices
            if err is None:
                try:
                    a, f = op.check(out)
                except Exception as exc:  # a check that raises fails
                    a, f, err = op.size, op.size, exc
            else:
                a, f = op.size, op.size
            if err is not None:
                errors.append(f"{op.kind}: {type(err).__name__}: {err}")
            attempted += a
            failed += f
        pass_ops.append(len(ops))
        pass_slices.append(slices)
        if tracer is not None:
            if len(pass_ops) >= wl.trace_passes:
                break
        elif (time.perf_counter() - start) * (len(pass_ops) + 1) \
                / len(pass_ops) > seconds:
            break  # another pass of the mean length would overrun
    return {"setup_times": setup_times, "setup_norm": setup_norm,
            "latencies": latencies, "kinds": kinds,
            "pass_ops": pass_ops, "pass_slices": pass_slices,
            "attempted": attempted, "failed": failed, "errors": errors}


def end_to_end(wl, raw):
    """End-to-end metrics from normalised times, plus a description of the
    run (``info``) that also holds the raw, unnormalised figures."""
    setup = raw["setup_norm"]
    lat, pass_times, raw_pass_times = [], [], []
    i = 0
    for n, slices in zip(raw["pass_ops"], raw["pass_slices"]):
        f = factor(slices) if slices else 1.0
        chunk = raw["latencies"][i:i + n]
        i += n
        lat += [dt * f for dt in chunk]
        pass_times.append(sum(chunk) * f)
        raw_pass_times.append(sum(chunk))
    slat = sorted(lat)
    tail = percentile(slat, wl.tail_pct)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.fmean(pass_times),
        "verdicts_per_s": raw["attempted"] / sum(pass_times),
        "verdict_p50_ms": 1e3 * statistics.median(slat),
        "verdict_tail_ms": 1e3 * tail,
        "peak_rss_mb": wl.peak_rss_mb(),
    }
    by_kind = {}
    for kind, dt in zip(raw["kinds"], lat):
        by_kind.setdefault(kind, []).append(dt)
    slices = [s for group in raw["pass_slices"] for s in group]
    info = {"tail_percentile": wl.tail_pct, "latency_samples": len(slat),
            "samples_beyond_tail": sum(1 for x in slat if x > tail),
            "passes": len(pass_times),
            "setup_samples": len(setup),
            "kind_p50_ms": {k: 1e3 * statistics.median(v)
                            for k, v in sorted(by_kind.items())},
            "kind_count": {k: len(v) for k, v in sorted(by_kind.items())},
            "reference_slices": len(slices),
            "reference_slice_ms": 1e3 * statistics.median(slices)
            if slices else None,
            "raw_setup_s": statistics.median(raw["setup_times"]),
            "raw_wall_s": statistics.fmean(raw_pass_times),
            "raw_verdict_p50_ms":
                1e3 * statistics.median(raw["latencies"])}
    return metrics, info


def per_layer(tracer, import_s):
    table = tracer.function_table()
    layer_self = {}
    for name, (_, _, self_s) in table.items():
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + self_s
    values = {}
    for name in per_layer_units():
        if name.endswith(".calls"):
            values[name] = table.get(name[:-6], (0, 0.0, 0.0))[0]
        elif name == "exactlin.under_homology.self_s":
            values[name] = tracer.self_under("exactlin", "hochschild.homology")
        elif name == "cli.import_s":
            values[name] = import_s
        elif name.count(".") == 1 and name.endswith(".self_s"):
            values[name] = layer_self.get(name.split(".")[0], 0.0)
        elif name.endswith(".self_s"):
            values[name] = table.get(name[:-7], (0, 0.0, 0.0))[2]
    values.update(tracer.counters())
    return values, table, layer_self


# ---------------------------------------------------------------------------
# output


def _fmt(v):
    return repr(v) if isinstance(v, float) else str(v)


def print_layers(table, layer_self, tracer):
    print("layer self time (s), traced run:")
    for layer, s in sorted(layer_self.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:12s} {s:10.4f}")
    print("function calls / total_s / self_s:")
    for name, (calls, total, self_s) in sorted(table.items()):
        print(f"  {name:40s} {calls:8d} {total:10.4f} {self_s:10.4f}")
    ranked = [kv for kv in sorted(layer_self.items(), key=lambda kv: -kv[1])
              if kv[0] != "bench"]
    if ranked:
        top, top_s = ranked[0]
        under = tracer.self_under(top, "hochschild.homology")
        share = under / top_s if top_s else 0.0
        print(f"top self-time layer: {top} ({top_s:.4f} s; "
              f"{share:.1%} of it under hochschild.homology)")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("suite", "morita", "verdicts"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a small input for the harness self-test")
    args = p.parse_args(argv)

    if not (SRC / "hccourant" / "__init__.py").is_file():
        print(f"perfbench: no hccourant sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import hccourant.cli  # noqa: F401 - imports every package module
    import_s = time.perf_counter() - t0
    st = stamp(args)
    st["cpu"] = pin_to_one_cpu()

    from tracer import Tracer
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    wl = WORKLOADS[args.workload](args.seed, args.size, tracer)
    try:
        raw = measure(wl, args.seed, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    e2e, info = end_to_end(wl, raw)
    fail_ratio = raw["failed"] / raw["attempted"]
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} size={args.size}")
    print("stamp " + " ".join(f"{k}={v}" for k, v in st.items()))
    for err in raw["errors"]:
        print("error " + err)
    for name, unit in END_TO_END.items():
        print(f"metric {name} = {_fmt(e2e[name])} {unit}")
    print(f"metric fail_ratio = {_fmt(fail_ratio)} 1 "
          f"({raw['failed']} of {raw['attempted']} checks failed)")
    print(f"note verdict_tail_ms is p{info['tail_percentile']} over "
          f"{info['latency_samples']} samples "
          f"({info['samples_beyond_tail']} beyond); "
          f"{info['passes']} passes; setup_s is the median of "
          f"{info['setup_samples']}")
    print(f"note raw wall_s = {_fmt(info['raw_wall_s'])} s, raw setup_s = "
          f"{_fmt(info['raw_setup_s'])} s, raw verdict_p50_ms = "
          f"{_fmt(info['raw_verdict_p50_ms'])} ms; reference slice median "
          f"{info['reference_slice_ms']} ms over "
          f"{info['reference_slices']} slices")
    print("note per-kind p50 ms: " + ", ".join(
        f"{k}={v:.2f} (n={info['kind_count'][k]})"
        for k, v in info["kind_p50_ms"].items()))

    record = {"stamp": st, "end_to_end": e2e, "fail_ratio": fail_ratio,
              "info": info, "attempted": raw["attempted"],
              "failed": raw["failed"], "errors": raw["errors"]}
    units = dict(END_TO_END)
    if tracer is not None:
        layers, table, layer_self = per_layer(tracer, import_s)
        units = per_layer_units()
        for name, unit in units.items():
            print(f"metric {name} = {_fmt(layers[name])} {unit}")
        print_layers(table, layer_self, tracer)
        metrics = layers
        record.update(per_layer=layers, functions=table,
                      layer_self_s=layer_self, hook_s=tracer.hook_s)
    else:
        metrics = e2e

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    with open(OUT / "results" / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if tracer is not None:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        tracer.write_spans(OUT / "traces" / f"{tag}.jsonl")

    correct = raw["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"],
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
