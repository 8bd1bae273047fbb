"""spingeo benchmark: ``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1``.

Workloads ``cli``, ``battery`` and ``scale`` (see README.md).  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer ones; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  All work runs in
child processes, one at a time, with BLAS and OpenMP held to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
from calibration import calibrate, speed  # noqa: E402
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"
WORKLOADS = ("cli", "battery", "scale")

#: Set-up samples per run: the run's own worker plus fresh probes.
SETUP_SAMPLES = {"cli": 3, "battery": 3, "scale": 5}
WORKER_TIMEOUT_S = 170

END_TO_END = {"batch_s": "s", "op_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    **{f"cli.{k}": "s" for k in ("interpreter_s", "import_s", "classify_s", "cech_s", "genus_s", "index_s", "spinrep_s")},
    "cli.modules_loaded": "count",
    **{f"acceptance.{k}_s": "s" for k in (
        "classification_table", "periodicity", "clifford_relations", "spinor_representation",
        "twisted_adjoint", "berezin", "genus_expansions", "chern_gauss_bonnet", "cech",
        "index_lab", "substitution_suites")},
    "clifford.dense_exact_n6_s": "s",
    "clifford.dense_exact_n8_s": "s",
    "clifford.dense_float_n8_s": "s",
    "clifford.mv_mul_calls": "count",
    "clifford.blade_mul_calls": "count",
    "clifford.self_s": "s",
    "spinrep.rotor_n8_s": "s",
    "spinrep.berezin_n6_s": "s",
    "spinrep.berezin_n8_s": "s",
    "spinrep.exterior_module_n8_s": "s",
    "spinrep.self_s": "s",
    "chern_weil.genus_s4xs4_s": "s",
    "chern_weil.genus_s2x4_s": "s",
    "chern_weil.formpoly_mul_calls": "count",
    "chern_weil.self_s": "s",
    "cech.spin_grid3x4_s": "s",
    "cech.spin_genus2_s": "s",
    "cech.cohomology_grid20_s": "s",
    "cech.coset_reductions": "count",
    "cech.self_s": "s",
    "index_lab.torus_dirac_s": "s",
    "index_lab.sphere2_hodge_s": "s",
    "index_lab.heat_kernel_s": "s",
    "index_lab.self_s": "s",
    "classification.self_s": "s",
    "deps.fractions_self_s": "s",
    "deps.sympy_self_s": "s",
    "deps.numpy_scipy_self_s": "s",
    "trace.overhead_s": "s",
}

#: Held for this process and every child: the host has two cores and the
#: bundled OpenBLAS is threaded; PYTHONHASHSEED fixes set and dict order.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def spawn_worker(workload: str, seed: int, seconds: float, mode: str):
    """Run worker.py to its end.

    Returns the raw set-up seconds (spawn to ``READY``), the scaled ones
    (None in mode ``trace``), the worker's last line and its max RSS in KiB.
    """
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    before = calibrate("setup") if mode != "trace" else None
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    built = ready = after = warm = last = None
    try:
        for line in proc.stdout:
            word, _, value = line.strip().partition(" ")
            if word == "BUILT" and built is None:
                built = time.perf_counter() - start
            elif word == "READY" and ready is None:
                ready = time.perf_counter() - start
            elif word == "CALIBRATION":
                after = float(value)
            elif word == "WARM":
                warm = float(value)
            elif word:
                last = line
    finally:
        watchdog.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or ready is None:
        raise RuntimeError(f"{mode} worker for {workload} exited {proc.returncode}")
    # inputs scaled by the probes on either side of them; the warm-up op by op
    scaled = None if mode == "trace" else built * speed("setup", before, after) + warm
    return ready, scaled, last, usage.ru_maxrss


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Set-up samples from fresh probes and the run itself, then the run's passes."""
    raw, scaled = [], []
    for i in range(SETUP_SAMPLES[workload]):
        mode = "run" if i == SETUP_SAMPLES[workload] - 1 else "probe"
        ready, setup_s, line, maxrss_kb = spawn_worker(workload, seed, seconds, mode)
        raw.append(ready)
        scaled.append(setup_s)
    out = json.loads(line)
    rss_kb = out["child_maxrss_kb"] if workload == "cli" else maxrss_kb
    out["raw_setup_s"], out["setup_s"] = raw, scaled
    out["metrics"] = {
        "batch_s": statistics.median(out["pass_s"]),
        "op_p50_ms": statistics.median(out["op_s"]) * 1e3,
        "setup_s": statistics.median(scaled),
        "peak_rss_mb": rss_kb / 1024,
    }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "spingeo" / "__init__.py").is_file():
        print(f"error: no spingeo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    RESULTS.mkdir(exist_ok=True)

    if args.trace:
        line = spawn_worker(args.workload, args.seed, args.seconds, "trace")[2]
        out = json.loads(line)
        declared = PER_LAYER
    else:
        out = measure(args.workload, args.seed, args.seconds)
        declared = END_TO_END
    missing = sorted(set(declared) - set(out["metrics"]))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    for problem in out["unexpected"]:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    result = {
        "correct": not out["unexpected"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": out["metrics"][k], "unit": unit} for k, unit in declared.items()},
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps({"result": result, "raw": out}, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
