"""One benchmark process: set up a workload, then time or trace its passes.

``python worker.py --workload W --seed S --seconds T --mode M`` prints
``READY`` once set-up is done (imports, inputs, warm-up), then, for mode
``run`` or ``trace``, one JSON line with what it measured.  Mode ``probe``
stops after ``READY``; the parent times set-up from it and from the
``BUILT``, ``CALIBRATION`` and ``WARM`` lines that :func:`setup` prints.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from calibration import OP_PROBES, calibrate, speed
from run import WORKLOADS
from tracing import COUNTED, LAYERS, DependencyProfile, Tracer

RESULTS = Path(__file__).resolve().parent / "results"
MIN_PASSES = 3


@dataclass
class PassResult:
    keep_outputs: bool = False  # else outputs are dropped after their check
    op_times: list[float] = field(default_factory=list)  # raw wall seconds
    speeds: list[float] = field(default_factory=list)  # host-speed factor of each op; 1.0 uncalibrated
    outputs: list[object] = field(default_factory=list)
    failed: int = 0
    unexpected: list[str] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(self.op_times)

    @property
    def scaled_op_times(self) -> list[float]:
        """Each op's time at the reference speed."""
        return [t * s for t, s in zip(self.op_times, self.speeds)]

    def record(self, op, seconds: float, factor: float, out, problem: str | None) -> None:
        """Add one op's time, then check its output (untimed)."""
        self.op_times.append(seconds)
        self.speeds.append(factor)
        expected = op.known_fault
        if problem is None:
            try:
                problem = op.check(out)
            except Exception as exc:  # the check itself found the output unusable
                problem, expected = f"{op.name}: {type(exc).__name__}: {exc}", False
        if self.keep_outputs:
            self.outputs.append(out)
        if problem is not None:
            self.failed += 1
            if not expected:
                self.unexpected.append(problem)


def call(op, during=None) -> tuple[float, object, str | None]:
    """Run one op; only the program call is timed.  ``during()`` is a context
    entered just outside the timer (the tracer or the profiler)."""
    with during() if during else nullcontext():
        start = time.perf_counter()
        try:
            out, problem = op.run(), None
        except Exception as exc:  # a failed operation, counted by the caller
            out, problem = None, f"{op.name} raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return seconds, out, problem


def run_steps(steps, calibrate_for: str | None = None) -> None:
    """Run ``(result, op, during)`` steps in order, each recorded into its result.

    With ``calibrate_for`` a workload name, that workload's host-speed probe
    runs before the first op and right after each, and each op's speed
    factor comes from the probes on either side of it.
    """
    probe = OP_PROBES[calibrate_for] if calibrate_for else None
    before = calibrate(probe) if probe else None
    for res, op, during in steps:
        seconds, out, problem = call(op, during)
        factor = 1.0
        if probe:
            after = calibrate(probe)
            factor, before = speed(probe, before, after), after
        res.record(op, seconds, factor, out, problem)
        del out


def run_pass(ops, keep_outputs: bool = False, calibrate_for: str | None = None, during=None) -> PassResult:
    """Each op once, in list order."""
    res = PassResult(keep_outputs)
    run_steps([(res, op, during) for op in ops], calibrate_for)
    return res


def paired_pass(workload: str, plain_ops, traced_ops, during) -> tuple[PassResult, PassResult]:
    """Each op untraced and then traced, back to back, all calibrated, so that
    host drift hits both halves of a pair alike."""
    plain, traced = PassResult(), PassResult(keep_outputs=True)
    steps = [s for p, t in zip(plain_ops, traced_ops) for s in ((plain, p, None), (traced, t, during))]
    run_steps(steps, workload)
    return plain, traced


def timed_passes(workload: str, ops, seconds: float) -> list[PassResult]:
    """Whole passes until the next one would end after ``seconds``."""
    start = time.perf_counter()
    passes = []
    while True:
        passes.append(run_pass(ops, calibrate_for=workload))
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def setup(workload: str, seed: int) -> tuple[list, PassResult]:
    """Imports and inputs, then the warm-up, timed like a pass.

    ``BUILT`` and a host-speed probe mark the end of the inputs: the parent
    scales the time up to there by its own probe just before the spawn and
    this one, and adds the scaled warm-up time printed after ``WARM``.
    """
    ops = workloads.build(workload, seed)
    print("BUILT", flush=True)
    print(f"CALIBRATION {calibrate('setup')!r}", flush=True)
    # battery: one pass; cli: one invocation, which brings the files into the
    # page cache; scale: none, as a pass is too long to repeat in set-up
    warm_ops = {"battery": ops, "cli": ops[:1], "scale": []}[workload]
    warm = run_pass(warm_ops, calibrate_for=workload) if warm_ops else PassResult()
    print(f"WARM {sum(warm.scaled_op_times)!r}", flush=True)
    return ops, warm


def summarize(passes: list[PassResult]) -> dict:
    return {
        "raw_pass_s": [p.seconds for p in passes],
        "pass_s": [sum(p.scaled_op_times) for p in passes],
        "op_s": [t for p in passes for t in p.scaled_op_times],
        "attempted": sum(len(p.op_times) for p in passes),
        "failed": sum(p.failed for p in passes),
        "unexpected": [u for p in passes for u in p.unexpected],
    }


# -- traced run -------------------------------------------------------------------

def _median_dict(dicts: list[dict]) -> dict:
    keys = {k for d in dicts for k in d}
    return {k: statistics.median(d.get(k, 0.0) for d in dicts) for k in sorted(keys)}


def _layer_values(workload: str, ops, res: PassResult, snapshot: dict) -> dict:
    """Per-layer figures of one traced pass."""
    values = {f"{layer}.self_s": snapshot["self_s"].get(layer, 0.0) for layer in LAYERS}
    if workload == "cli":
        children = [out.child for out in res.outputs if out is not None and out.child]
        values["cli.interpreter_s"] = statistics.median(c["interpreter_s"] for c in children)
        values["cli.import_s"] = statistics.median(c["import_s"] for c in children)
        values["cli.modules_loaded"] = statistics.median(c["modules_loaded"] for c in children)
        for op, out in zip(ops, res.outputs):
            if out is not None and out.child:
                values[op.metric] = values.get(op.metric, 0.0) + out.child["main_s"]
        for child in children:
            for layer, s in child["self_s"].items():
                values[f"{layer}.self_s"] += s
        return values
    for op, t in zip(ops, res.op_times):
        if op.metric is not None:
            values[op.metric] = values.get(op.metric, 0.0) + t
    if workload == "scale":
        for key in COUNTED.values():
            values[key] = snapshot["counts"].get(key, 0)
    return values


def trace(workload: str, seed: int, seconds: float) -> dict:
    """Per-layer metrics from traced passes of every list.

    The named workload runs paired passes for ``seconds`` (at least one):
    each op untraced and then traced, with host-speed probes around each,
    and ``trace.overhead_s`` is the median over those passes of the scaled
    traced minus the scaled untraced pass time.  Every other list gets one
    traced pass, so each per-layer metric is measured whichever workload is
    named.  The in-process lists are warmed up first and run once more at
    the end with the profiler on, for the time spent inside dependencies.
    The tracer and the profiler are on only around program calls, never
    around checks.
    """
    lists = {w: workloads.build(w, seed) for w in WORKLOADS}
    traced_ops = {**lists, "cli": workloads.build("cli", seed, traced_cli=True)}
    unexpected = []
    for w in ("battery", "scale"):
        unexpected += run_pass(lists[w]).unexpected
    print("READY", flush=True)

    tracer = Tracer()
    per_list: dict[str, list[dict]] = {w: [] for w in WORKLOADS}

    def layer_pass(w: str, paired: bool) -> tuple[PassResult | None, PassResult]:
        tracer.reset()
        during = tracer.installed if w != "cli" else None  # cli children trace themselves
        if paired:
            plain, traced = paired_pass(w, lists[w], traced_ops[w], during)
        else:
            plain, traced = None, run_pass(traced_ops[w], keep_outputs=True, during=during)
        per_list[w].append(_layer_values(w, traced_ops[w], traced, tracer.snapshot()))
        return plain, traced

    pairs = []
    start = time.perf_counter()
    while not pairs or (time.perf_counter() - start) * (len(pairs) + 1) / len(pairs) <= seconds:
        pairs.append(layer_pass(workload, paired=True))
    for w in WORKLOADS:
        if w != workload:
            unexpected += layer_pass(w, paired=False)[1].unexpected
    profile = DependencyProfile()
    for w in ("battery", "scale"):
        unexpected += run_pass(lists[w], during=profile.enabled).unexpected

    medians = {w: _median_dict(v) for w, v in per_list.items()}
    metrics = {}
    for w, values in medians.items():
        for key, v in values.items():
            if key.endswith(".self_s"):
                metrics[key] = metrics.get(key, 0.0) + v
            else:
                metrics[key] = v
    metrics.update(profile.totals())
    overhead_per_op = [[t - p for p, t in zip(plain.scaled_op_times, traced.scaled_op_times)]
                       for plain, traced in pairs]
    metrics["trace.overhead_s"] = statistics.median(sum(d) for d in overhead_per_op)
    own = [r for pair in pairs for r in pair]
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(
        {"per_list_passes": per_list, "overhead_per_op_s": overhead_per_op, "metrics": metrics},
        indent=1, sort_keys=True,
    ))
    return {
        "metrics": metrics,
        "attempted": sum(len(r.op_times) for r in own),
        "failed": sum(r.failed for r in own),
        "unexpected": [u for r in own for u in r.unexpected] + unexpected,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("probe", "run", "trace"), required=True)
    args = parser.parse_args()

    if args.mode == "trace":
        print(json.dumps(trace(args.workload, args.seed, args.seconds)), flush=True)
        return 0
    ops, warm = setup(args.workload, args.seed)
    print("READY", flush=True)
    if args.mode == "probe":
        return 0
    out = summarize(timed_passes(args.workload, ops, args.seconds))
    out["unexpected"] = warm.unexpected + out["unexpected"]
    # largest finished child, in KiB: the cli invocations
    out["child_maxrss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
