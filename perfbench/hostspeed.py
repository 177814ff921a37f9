"""Host-speed reference: normalise measured times to a fixed host speed.

The machine this benchmark was built on shares its CPUs with other tenants.
The speed of one vCPU swings by up to a factor of two from second to second
and drifts by a third over an hour, and the two vCPUs swing independently.
Raw times of the same code therefore spread far beyond any useful bound.

A reference slice is a fixed piece of ``fractions.Fraction`` arithmetic that
does not touch ``hccourant``.  The benchmark pins itself (and so its child
processes) to one CPU and runs slices interleaved with the work it times.
A time is reported as ``measured * NOMINAL_S / mean(slices)``: the time the
work would take on a host where one slice takes ``NOMINAL_S``.  A change to
the package cannot change the slices, so it shows in full; a change of host
speed moves the work and the slices alike and cancels.  Over 5 s windows of
``verdicts`` work on this host, this took the coefficient of variation of
each verdict kind's mean time from 0.12-0.16 (raw) to 0.03-0.06.

A cold start of the command line (exec, interpreter start, imports) slows
less than a slice does on a slow host: the slope of its log time against
the log slice time was 0.55.  It is normalised instead by a reference cold
start, a fresh interpreter that imports the standard modules ``hccourant``
imports (slope 0.98, correlation 0.86), as
``measured * NOMINAL_COLD_S / mean(reference cold starts)``.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

#: the reference slice's time on the nominal host
NOMINAL_S = 0.002
_TERMS = 250   # about 2 ms a slice on the machine above
#: the reference cold start's time on the nominal host
NOMINAL_COLD_S = 0.1
_COLD_START = [sys.executable, "-c",
               "import argparse, dataclasses, fractions, itertools, json, "
               "random, typing"]


def reference_slice():
    """Run one reference slice and return its duration in seconds."""
    t0 = time.perf_counter()
    s = Fraction(0)
    for i in range(1, _TERMS):
        s += Fraction(i, i + 7) * Fraction(3, i + 1)
    return time.perf_counter() - t0


def reference_cold_start():
    """Start and wait for the reference interpreter; returns its seconds."""
    t0 = time.perf_counter()
    subprocess.run(_COLD_START, stdin=subprocess.DEVNULL, check=True)
    return time.perf_counter() - t0


def factor(slices, nominal=NOMINAL_S):
    """Multiply a measured time by this to normalise it."""
    return nominal / statistics.fmean(slices)


def pin_to_one_cpu():
    """Run this process, and every child it starts, on one CPU, so that
    slices and work meet the same vCPU; returns that CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
