"""The benchmark workloads: ``suite``, ``morita`` and ``verdicts``.

A workload has a set-up step (timed on its own as ``setup_s``) and yields
passes of operations.  Each operation has an untimed input step, a timed
``run`` and an untimed ``check`` that compares the output with an oracle and
returns ``(attempted, failed)``.  Inputs come only from the seeded
``random.Random`` the runner passes in.

The workloads call only public functions of ``hccourant``; the ``suite``
workload runs the ``hccourant`` command line in a child process.
"""

from __future__ import annotations

import functools
import json
import os
import random
import resource
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from hostspeed import (NOMINAL_COLD_S, factor, reference_cold_start,
                       reference_slice)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
GOLDEN = HERE / "golden" / "suite_cases.json"


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple]   # output -> (attempted, failed)
    size: int = 1                      # checks counted when ``run`` raises
    #: ``run(normalise)`` returns (output, seconds, reference slices)
    times_itself: bool = False


def load_golden():
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        return json.load(fh)


def self_peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _is_lie_bracket(mu, n):
    """Skew-symmetry and Jacobi for structure constants mu[i][j][k]; an
    oracle written independently of ``hccourant.omni``."""
    for i in range(n):
        for j in range(n):
            if any(mu[i][j][k] != -mu[j][i][k] for k in range(n)):
                return False
    for i in range(n):
        for j in range(n):
            for k in range(n):
                total = [0] * n
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for s in range(n):
                        x = mu[a][b][s]
                        if x:
                            for t in range(n):
                                total[t] += x * mu[s][c][t]
                if any(total):
                    return False
    return True


# ---------------------------------------------------------------------------
# suite: the ``hccourant suite`` battery in a fresh process


class Suite:
    """One ``hccourant suite --seed S --format json`` run per pass.

    Set-up is one cold start of ``hccourant validate --algebra q`` in a fresh
    interpreter.  Untraced, the battery runs in a child process while this
    process waits; traced, ``hccourant.cli.main`` runs in this process with
    the tracer's wrappers installed.

    The child inherits this process's CPU.  While the battery runs, the
    child is stopped every ``SAMPLE_S`` for one reference slice on that CPU,
    so that its time can be normalised to the host speed it met.  Each cold
    start is normalised by the reference cold starts just before and after.
    """

    name = "suite"
    setup_repeats = 15
    tail_pct = 100
    trace_passes = 1
    SAMPLE_S = 0.5

    def __init__(self, seed, size="full", tracer=None):
        self.tiny = size == "tiny"
        self.tracer = tracer
        self.peak_rss_kb = 0
        if self.tiny:
            self.setup_repeats = 1
            self.argv = ["omni", "--dim", "2", "--format", "json"]
        else:
            self.argv = ["suite", "--seed", str(seed), "--format", "json"]
        self.golden = load_golden()

    def _env(self):
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        return env

    def _child(self, argv, out_path, sample=False):
        """Run the CLI in a child process and wait for it.

        Returns (exit code, seconds the child ran, reference slices, max
        RSS kB).  With ``sample``, one slice is taken before the start and
        one each time the child is stopped; the stopped time is not counted
        as the child's.
        """
        cmd = [sys.executable, "-m", "hccourant.cli"] + argv
        if out_path is not None:
            cmd += ["--out", str(out_path)]
        slices = [reference_slice()] if sample else []
        paused = 0.0
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self._env(),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL)
        try:
            with os.fdopen(os.pidfd_open(proc.pid)) as exited:
                while True:
                    if select.select([exited], [], [],
                                     self.SAMPLE_S if sample else None)[0]:
                        _, status, usage = os.wait4(proc.pid, 0)
                        end = time.perf_counter()
                        break
                    t = time.perf_counter()
                    os.kill(proc.pid, signal.SIGSTOP)
                    _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                    if not os.WIFSTOPPED(status):  # it exited first
                        end = t
                        break
                    slices.append(reference_slice())
                    os.kill(proc.pid, signal.SIGCONT)
                    paused += time.perf_counter() - t
        except BaseException:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, end - start - paused, slices, usage.ru_maxrss

    def timed_setup(self, normalise):
        """One cold start; returns (None, seconds, normalised seconds)."""
        refs = [reference_cold_start()] if normalise else []
        code, seconds, _, _ = self._child(["validate", "--algebra", "q"],
                                          None)
        if code != 0:
            raise RuntimeError(f"cold start exited with {code}")
        if not normalise:
            return None, seconds, seconds
        refs.append(reference_cold_start())
        return None, seconds, seconds * factor(refs, NOMINAL_COLD_S)

    def passes(self, state, rng):
        report = OUT / "reports" / f"{self.name}-run-{os.getpid()}.json"
        report.parent.mkdir(parents=True, exist_ok=True)
        while True:
            if report.exists():
                report.unlink()
            yield [Op(self.name,
                      functools.partial(self._run, report),
                      lambda code: self._check(code, report),
                      size=1 if self.tiny else 44,
                      times_itself=self.tracer is None)]

    def _run(self, report, normalise=False):
        if self.tracer is None:
            code, seconds, slices, rss = self._child(self.argv, report,
                                                     normalise)
            self.peak_rss_kb = max(self.peak_rss_kb, rss)
            return code, seconds, slices
        import hccourant.cli
        return hccourant.cli.main(self.argv + ["--out", str(report)])

    def _check(self, code, report):
        attempted = 1 if self.tiny else 44
        if code != 0 or not report.exists():
            return attempted, attempted
        data = report.read_bytes()
        report.unlink()
        doc = json.loads(data)
        if self.tiny:
            failed = not (doc["exit_code"] == 0 and doc["ev1"]["ok"]
                          and doc["main_theorem"]["ok"])
        else:
            failed = self._failed_cases(doc)
        # the bytes must equal the first report of this seed in this checkout
        first = OUT / "reports" / (
            "-".join(a.lstrip("-") for a in self.argv) + ".json")
        if first.exists():
            if first.read_bytes() != data:
                failed = attempted
        elif not failed:
            first.write_bytes(data)
        return attempted, int(failed)

    def _failed_cases(self, doc):
        """Cases that fail, differ from the recorded oracle, or are missing."""
        cases = {c["id"]: c for c in doc.get("cases", [])}
        expected = self.golden["case_ids"]
        if doc.get("exit_code") != 0 or not doc.get("all_pass") \
                or doc.get("case_count") != len(expected) \
                or sorted(cases) != sorted(expected):
            return len(expected)
        failed = 0
        for cid in expected:
            case = cases[cid]
            want = self.golden["cases"].get(cid)
            if not case["pass"] or (want is not None and case != want):
                failed += 1
        return failed

    def peak_rss_mb(self):
        if self.tracer is not None:  # the battery ran in this process
            return self_peak_rss_mb()
        return self.peak_rss_kb / 1024.0


# ---------------------------------------------------------------------------
# morita: large algebras at low degree, in process


class Morita:
    """``verify_morita(A, r)`` on each case; every report must be ``ok`` and
    equal the recorded report of the same case.

    ``qx2`` at r = 3 (dimension 18) is left out: one run takes minutes.
    The workload is not in BENCHMARK.json: a benchmark round makes 4 + 22
    runs per listed workload within 3420 s, and next to ``suite`` its
    20-30 s runs do not fit; both calls run inside every ``suite`` battery.
    """

    name = "morita"
    setup_repeats = 25
    tail_pct = 100
    trace_passes = 1
    CASES = (("qx2", 2), ("v1_2", 2))
    TINY_CASES = (("q", 2), ("qx2", 1))

    def __init__(self, seed, size="full", tracer=None):
        self.cases = self.TINY_CASES if size == "tiny" else self.CASES
        self.golden = load_golden()["cases"]

    def setup(self):
        from hccourant.files import load_algebra_ref
        return {name: load_algebra_ref(name) for name, _ in self.cases}

    def passes(self, algebras, rng):
        from hccourant.morita import verify_morita
        while True:
            yield [Op(self.name,
                      lambda A=algebras[name], r=r: verify_morita(A, r),
                      lambda ctx, name=name, r=r: self._check(ctx, name, r))
                   for name, r in self.cases]

    def _check(self, ctx, name, r):
        rep = ctx.report
        want = self.golden.get(f"morita/{name}") if r == 2 else None
        if want is not None:
            want = {k: v for k, v in want.items() if k not in ("id", "pass")}
            if rep.to_json() != want:
                return 1, 1
        return 1, int(not rep.ok)

    def peak_rss_mb(self):
        return self_peak_rss_mb()


# ---------------------------------------------------------------------------
# verdicts: single verdicts against spaces built once


class Verdicts:
    """A seeded, shuffled mix of single verdicts per pass.

    Kinds (their shares of a pass are in ``MIX``):

    * ``poisson_random`` - Poisson-graph verdict on V[1], n = 3, for a random
      biderivation table; oracle ``is_poisson``;
    * ``poisson_so3`` - the same for the bundled so(3) table scaled by a
      seeded nonzero rational (always Poisson);
    * ``dstructure_random`` - ``d_structure_check`` for a random mu with
      entries in {-1, 0, 1}; oracle: an independent Lie-bracket test of mu;
    * ``dstructure_metabelian`` - the same for mu(x, y) = a(x)y - a(y)x with
      a seeded functional a with nonzero entries (always a Lie bracket);
    * ``lie_algebroid`` - ``lie_algebroid_check`` on a scaled so(3) graph;
      must be ``ok``.
    """

    name = "verdicts"
    setup_repeats = 5
    tail_pct = 90
    trace_passes = 4
    #: kind -> verdicts per pass.  The shares put the median inside the
    #: ``poisson_so3`` latencies and p90 inside ``dstructure_metabelian``, so
    #: neither percentile sits on the edge between two kinds.
    MIX = (("poisson_random", 7), ("poisson_so3", 9),
           ("dstructure_random", 2), ("dstructure_metabelian", 5),
           ("lie_algebroid", 1))
    OMNI_N = 4

    def __init__(self, seed, size="full", tracer=None):
        self.mix = tuple((k, 1) for k, _ in self.MIX) \
            if size == "tiny" else self.MIX
        self.omni_n = 2 if size == "tiny" else self.OMNI_N
        if size == "tiny":
            self.setup_repeats = 1
            self.trace_passes = 1

    def setup(self):
        from hccourant.courant import EpsilonSpace, ESpace
        from hccourant.dirac import biderivation_space
        from hccourant.files import load_algebra_ref, load_bracket_table
        from hccourant.omni import build_omni_iso
        A = load_algebra_ref("v1_3")
        E = ESpace(A)
        eps = EpsilonSpace(E)
        return {"A": A, "E": E, "eps": eps,
                "space": biderivation_space(A),
                "so3": load_bracket_table("bracket_so3_v1_3", A),
                "iso": build_omni_iso(self.omni_n)}

    def passes(self, st, rng):
        kinds = [k for k, share in self.mix for _ in range(share)]
        while True:
            rng.shuffle(kinds)
            yield [getattr(self, "_op_" + k)(st, rng) for k in kinds]

    # -- operations (input drawn here; only ``run`` is timed) ---------------

    def _random_table(self, st, rng):
        """A random biderivation: integer combination of the space basis."""
        from hccourant.dirac import table_from_flat
        A = st["A"]
        while True:
            flat = [0] * (A.dim ** 3)
            for row in st["space"]:
                c = rng.randint(-3, 3)
                if c:
                    for k, x in enumerate(row):
                        if x:
                            flat[k] += c * x
            if any(flat):
                return table_from_flat(A, flat)

    def _scaled_so3(self, st, rng):
        from hccourant.dirac import make_bracket_table
        A = st["A"]
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        return make_bracket_table(
            A, [[[c * x for x in st["so3"].table[i][j]] for j in range(A.dim)]
                for i in range(A.dim)])

    def _graph_op(self, kind, st, t):
        from hccourant.dirac import is_dirac, is_poisson, poisson_graph

        def run():
            _, L = poisson_graph(st["E"], st["eps"], t)
            return is_dirac(L).dirac

        return Op(kind, run, lambda dirac: (1, int(dirac != is_poisson(t))))

    def _op_poisson_random(self, st, rng):
        return self._graph_op("poisson_random", st,
                              self._random_table(st, rng))

    def _op_poisson_so3(self, st, rng):
        return self._graph_op("poisson_so3", st, self._scaled_so3(st, rng))

    def _dstructure_op(self, kind, st, mu):
        from hccourant.omni import d_structure_check
        n = self.omni_n
        return Op(kind, lambda: d_structure_check(st["iso"], mu),
                  lambda rep: (1, int(not rep.consistent
                                      or rep.dirac != _is_lie_bracket(mu, n))))

    def _op_dstructure_random(self, st, rng):
        n = self.omni_n
        mu = [[[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]
              for _ in range(n)]
        return self._dstructure_op("dstructure_random", st, mu)

    def _op_dstructure_metabelian(self, st, rng):
        n = self.omni_n
        a = [rng.choice((-1, 1)) * rng.randint(1, 3) for _ in range(n)]
        mu = [[[a[i] * (k == j) - a[j] * (k == i) for k in range(n)]
               for j in range(n)] for i in range(n)]
        return self._dstructure_op("dstructure_metabelian", st, mu)

    def _op_lie_algebroid(self, st, rng):
        from hccourant.dirac import lie_algebroid_check, poisson_graph
        _, L = poisson_graph(st["E"], st["eps"], self._scaled_so3(st, rng))
        z_rng = random.Random(rng.randrange(2 ** 32))
        return Op("lie_algebroid",
                  lambda: lie_algebroid_check(st["eps"], L, rng=z_rng),
                  lambda rep: (1, int(not rep.ok)))

    def peak_rss_mb(self):
        return self_peak_rss_mb()


WORKLOADS = {w.name: w for w in (Suite, Morita, Verdicts)}
