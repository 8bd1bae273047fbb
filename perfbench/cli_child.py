"""Run ``spingeo.cli`` with layer tracing: ``python cli_child.py <cli args>``.

Writes interpreter start, import time, modules loaded, time in ``main`` and
the layer spans to the JSON file named by ``PERFBENCH_CHILD_OUT``.  The
start of the interpreter is measured from ``PERFBENCH_SPAWN_NS``, the
parent's CLOCK_MONOTONIC reading just before it spawned this process.
"""

import time

STARTED_NS = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

import os  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    before = len(sys.modules)
    t0 = time.perf_counter()
    import spingeo.cli

    t1 = time.perf_counter()
    loaded = len(sys.modules) - before

    import json

    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    t2 = time.perf_counter()
    try:
        code = spingeo.cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        t3 = time.perf_counter()
        tracer.uninstall()
        sys.stdout.flush()
    record = {
        "interpreter_s": (STARTED_NS - int(os.environ["PERFBENCH_SPAWN_NS"])) / 1e9,
        "import_s": t1 - t0,
        "modules_loaded": loaded,
        "main_s": t3 - t2,
        **tracer.snapshot(),
    }
    with open(os.environ["PERFBENCH_CHILD_OUT"], "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
