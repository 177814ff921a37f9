"""Self-test of the benchmark harness at tiny input sizes.

    python3 -m pytest perfbench/tests -q

Checks that every metric is printed by name with its unit, that a wrong
expected answer in each workload's output check is counted as a failure,
that traced counters repeat exactly,
that BENCHMARK.json matches the harness, that the benchmark refuses to run
without the package sources, and that compare.py refuses to compare results
of different rational backends.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import COUNTERS  # noqa: E402

WORKLOADS = ("suite", "morita", "verdicts")
METRIC_LINE = re.compile(r"^metric (\S+) = (\S+) (\S+)")


def bench(workload, *extra, trace=0, cwd=ROOT, script=None):
    cmd = [sys.executable, str(script or HERE / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    return proc


def tiny(workload, *extra, trace=0):
    proc = bench(workload, "--size", "tiny", *extra, trace=trace)
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines:
        m = METRIC_LINE.match(line)
        if m:
            printed[m.group(1)] = (float(m.group(2)), m.group(3))
    return proc, printed, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    proc, printed, result = tiny(workload)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    for name, unit in run.END_TO_END.items():
        assert printed[name][1] == unit
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert printed["fail_ratio"][0] == 0.0
    stamp = next(line for line in proc.stdout.splitlines()
                 if line.startswith("stamp "))
    for key in ("backend=", "python=", "nproc=", "git_sha=", "seed=7"):
        assert key in stamp


# -- a wrong expected answer must be counted as a failure ------------------


def measure_tiny(wl):
    raw = run.measure(wl, 7, 0.1, None)
    return raw["failed"] / raw["attempted"]


def test_verdicts_count_a_wrong_oracle_answer(monkeypatch):
    import hccourant.dirac
    is_poisson = hccourant.dirac.is_poisson
    monkeypatch.setattr(hccourant.dirac, "is_poisson",
                        lambda t: not is_poisson(t))
    assert measure_tiny(workloads.Verdicts(7, "tiny")) > 0


def test_verdicts_count_a_wrong_lie_bracket_oracle(monkeypatch):
    is_lie = workloads._is_lie_bracket
    monkeypatch.setattr(workloads, "_is_lie_bracket",
                        lambda mu, n: not is_lie(mu, n))
    assert measure_tiny(workloads.Verdicts(7, "tiny")) > 0


def test_morita_counts_a_report_that_differs_from_the_recorded_one():
    wl = workloads.Morita(7, "tiny")
    assert measure_tiny(wl) == 0
    wl.golden["morita/q"] = {"ok": True}
    assert measure_tiny(wl) > 0


def test_suite_counts_a_report_that_differs_from_the_first_one(
        monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "OUT", tmp_path)
    wl = workloads.Suite(7, "tiny")
    assert measure_tiny(wl) == 0
    first = next((tmp_path / "reports").glob("omni-*.json"))
    first.write_bytes(first.read_bytes().replace(b"true", b"false", 1))
    assert measure_tiny(wl) == 1


def suite_report():
    """A report of the full battery, as the golden cases give it."""
    golden = workloads.load_golden()
    cases = [golden["cases"].get(cid, {"id": cid, "pass": True})
             for cid in golden["case_ids"]]
    return {"exit_code": 0, "all_pass": True, "case_count": len(cases),
            "cases": cases}


def test_suite_counts_cases_that_differ_from_the_golden_ones(
        monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "OUT", tmp_path)
    wl = workloads.Suite(7)
    report = tmp_path / "report.json"
    (tmp_path / "reports").mkdir()
    doc = suite_report()
    report.write_text(json.dumps(doc))
    assert wl._check(0, report) == (44, 0)

    doc["cases"][0] = dict(doc["cases"][0], note="changed")
    assert wl._failed_cases(doc) == 1
    report.write_text(json.dumps(doc))
    assert wl._check(0, report) == (44, 44)  # no longer the first report

    del doc["cases"][-1]
    assert wl._failed_cases(doc) == 44
    assert wl._check(1, report) == (44, 44)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_repeat_exactly(workload):
    runs = [tiny(workload, trace=1) for _ in range(2)]
    units = run.per_layer_units()
    for proc, printed, result in runs:
        assert proc.returncode == 0, proc.stderr
        assert set(result["metrics"]) == set(units)
        for name, unit in units.items():
            assert printed[name][1] == unit
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if v["unit"] in ("count", "ratio")} for _, _, r in runs]
    assert counts[0] == counts[1]
    assert set(COUNTERS) <= set(counts[0])


def test_benchmark_json_matches_the_harness():
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.per_layer_units().items())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("verdicts", cwd=tmp_path,
                 script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_refuses_mixed_backends(tmp_path):
    for side, backend in (("a", "fractions.Fraction"), ("b", "gmpy2.mpq")):
        (tmp_path / side).mkdir()
        record = {"stamp": {"backend": backend, "trace": 0, "size": "full",
                            "workload": "verdicts", "seed": 1},
                  "end_to_end": {}, "attempted": 1, "failed": 0}
        (tmp_path / side / "r.json").write_text(json.dumps(record))
    proc = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(tmp_path / "a"),
         str(tmp_path / "b")], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "different rational backends" in proc.stderr
