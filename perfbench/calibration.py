"""Host speed, from fixed work timed next to the benchmark's own.

The host's CPU speed drifts by up to 2x within minutes, and process CPU
time drifts with it.  So before every timed operation the worker times a
fixed piece of work of the same kind, and again after it, and the
end-to-end times are scaled to the speed at which that work takes its
reference time.  The speed changes within seconds, so each operation is
scaled by the probes on either side of it:

- ``battery`` and ``scale`` run in process: the probe is a pure-Python loop
  of dict, int and ``Fraction`` work, like spingeo's own (about 5 ms);
- ``cli`` time is process start-up and imports in child processes, which
  that loop does not track: its probe is a child interpreter importing a
  fixed set of standard-library modules (about 0.15 s).

Set-up up to the end of input generation is mostly interpreter start and
imports in every workload, so it is scaled by that child-interpreter probe,
taken just before a worker is spawned and just after its inputs are built.

Both probes use only the standard library, so no change to spingeo can
move them.  Per-layer times stay raw.  Stdlib only: the parent imports it.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from fractions import Fraction

STDLIB_IMPORTS = (
    "import argparse, asyncio, dataclasses, decimal, email.parser, fractions,"
    " http.client, inspect, json, unittest, xml.dom.minidom"
)


def calibration_loop() -> Fraction:
    table: dict[int, int] = {}
    acc = Fraction(0)
    for i in range(2000):
        table[i & 127] = table.get(i & 127, 0) + i * i
        acc += Fraction(i % 7, i % 5 + 1)
    return acc


def calibration_child() -> None:
    subprocess.run([sys.executable, "-I", "-c", STDLIB_IMPORTS], check=True)


#: probe -> (work, its seconds at the reference speed, runs per measurement)
PROBES = {
    "loop": (calibration_loop, 0.005, 3),
    "child": (calibration_child, 0.15, 1),
    "setup": (calibration_child, 0.15, 2),
}

#: the probe timed next to each workload's operations
OP_PROBES = {"cli": "child", "battery": "loop", "scale": "loop"}


def calibrate(probe: str) -> float:
    """Median seconds of the named probe's runs."""
    work, _, runs = PROBES[probe]
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def speed(probe: str, before_s: float, after_s: float) -> float:
    """Factor that scales a time bracketed by two measurements of ``probe`` to the reference speed."""
    return PROBES[probe][1] / ((before_s + after_s) / 2)
