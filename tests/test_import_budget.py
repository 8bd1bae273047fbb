"""Each CLI entry point loads only the heavy dependencies and layers it uses.

Watched are numpy, scipy and sympy, the Clifford kernel ``spingeo.clifford``
(only ``genus`` and ``spinrep`` build multivectors) and ``dataclasses``, which
brings ``inspect`` with it; no subcommand loads sympy or ``dataclasses``.
Every case runs in a fresh interpreter, so modules imported by other tests
cannot hide an eager import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

WATCHED = ("numpy", "scipy", "sympy", "spingeo.clifford", "dataclasses")

PROBE = """
import contextlib, io, json, sys
import spingeo.cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = spingeo.cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps({"code": code, "loaded": sorted(m for m in %r if m in sys.modules)}))
""" % (WATCHED,)


def run_fresh(code, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120
    )


def loaded_after(argv):
    proc = run_fresh(PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["code"] == 0, proc.stderr
    return set(report["loaded"])


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["--help"], set()),
        (["classify", "3", "0"], set()),
        (["cech", "--nerve", "torus", "--w2"], set()),
        (["index", "--model", "sphere2"], set()),
        (["index", "--model", "torus_dirac", "--delta", "0.5,0.5"], set()),
        (["index", "--model", "dlambda"], set()),
        (["index", "--model", "torus2"], set()),
        (["genus", "--name", "ahat", "--model", "sphere4"], {"spingeo.clifford"}),
        (["genus", "--name", "euler", "--model", "sphere2", "--radius", "1/2"], {"spingeo.clifford"}),
        (["spinrep", "4", "--check", "all"], {"numpy", "spingeo.clifford"}),
        (["selftest"], {"numpy", "spingeo.clifford"}),
    ],
)
def test_heavy_imports_per_subcommand(argv, expected):
    assert loaded_after(argv) == expected


def test_import_spingeo_loads_no_layer():
    proc = run_fresh("import json, sys, spingeo; print(json.dumps(sorted(m for m in sys.modules if 'spingeo' in m)))")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["spingeo"]


def test_genus_model_file_loads_only_the_clifford_kernel(tmp_path):
    # model files are parsed exactly into PiLaurent, without sympy
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"n": 2, "entries": [[1, 2, [[[1, 2], "1/4"]]], [2, 1, [[[1, 2], "-1/4"]]]], "volume": "16*pi"}))
    assert loaded_after(["genus", "--model-file", str(path)]) == {"spingeo.clifford"}

