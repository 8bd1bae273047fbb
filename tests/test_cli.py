import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from spingeo import index_lab
from spingeo.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


class TestClassify:
    def test_human_output(self, capsys):
        code, out = run_cli(capsys, ["classify", "3", "0"])
        assert code == 0
        assert out.strip() == "Cl(3,0) = H + H"

    def test_json_schema_field(self, capsys):
        code, out = run_cli(capsys, ["classify", "2", "0", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == "spingeo-report/1"
        assert data["result"] == {"base": "H", "size": 1, "doubled": False}

    def test_complex_flag(self, capsys):
        code, out = run_cli(capsys, ["classify", "--complex", "4"])
        assert code == 0
        assert "M4(C)" in out

    def test_even_flag(self, capsys):
        code, out = run_cli(capsys, ["classify", "2", "0", "--even"])
        assert code == 0
        assert out.strip() == "Cl^0(2,0) = C"

    @pytest.mark.parametrize("n, want", [(1, "C"), (2, "C + C"), (3, "M2(C)"), (4, "M2(C) + M2(C)")])
    def test_complex_even_flag(self, capsys, n, want):
        # the even part of Cl^c_n is Cl^c_{n-1}
        code, out = run_cli(capsys, ["classify", "--complex", str(n), "--even"])
        assert code == 0
        assert out.strip() == f"Cl^{{c,0}}_{n} = {want}"

    def test_complex_even_json(self, capsys):
        code, out = run_cli(capsys, ["classify", "--complex", "3", "--even", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["complex_n"] == 3 and data["even"] is True
        assert data["result"] == {"base": "C", "size": 2, "doubled": False}

    def test_largest_signature_prints(self, capsys):
        code, out = run_cli(capsys, ["classify", "28569", "0", "--format", "json"])
        assert code == 0
        assert json.loads(out)["result"]["size"] == 1 << 14284  # 4,300 digits


class TestSpinrep:
    def test_all_checks_pass(self, capsys):
        code, out = run_cli(
            capsys, ["spinrep", "4", "--check", "all", "--seed", "1", "--trials", "3"]
        )
        assert code == 0
        assert "PASS" in out

    def test_json_payload(self, capsys):
        code, out = run_cli(
            capsys,
            ["spinrep", "2", "--check", "berezin", "--seed", "5", "--format", "json"],
        )
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True
        assert data["results"]["berezin_residual"] <= 1e-10

    def test_spinor_checks_run_past_the_exterior_module_limit(self, capsys):
        code, out = run_cli(capsys, ["spinrep", "14", "--check", "relations"])
        assert code == 0 and "PASS" in out

    @pytest.mark.parametrize("argv", [["spinrep", "14", "--check", "berezin"], ["spinrep", "18"]])
    def test_berezin_runs_past_the_exterior_module_limit(self, capsys, argv):
        # the left side is a supertrace on the spinor module; its oracle is the right side,
        # Pf(-2iA)/det^{1/2}Â(-2A), for each of the five seeded draws
        code, out = run_cli(capsys, argv + ["--format", "json"])
        data = json.loads(out)
        assert code == 0 and data["passed"] is True
        assert data["results"]["berezin_trials"] == 5 and data["results"]["berezin_residual"] <= 1e-10

    def test_berezin_at_the_largest_n_is_quick(self, capsys):
        start = time.perf_counter()
        code, out = run_cli(capsys, ["spinrep", "20", "--check", "berezin", "--format", "json"])
        assert time.perf_counter() - start < 2.0
        assert code == 0 and json.loads(out)["results"]["berezin_residual"] <= 1e-10

    @pytest.mark.parametrize("argv", [["spinrep", "22"], ["spinrep", "20", "--trials", "0"]])
    def test_bad_input_exits_2_before_any_check_runs(self, capsys, argv):
        start = time.perf_counter()
        code = main(argv)
        assert time.perf_counter() - start < 2.0
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: spinrep ")

    def test_odd_n_exits_2(self, capsys):
        code = main(["spinrep", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ") and "even" in captured.err
        assert captured.out == ""


class TestGenus:
    def test_euler_torus_is_zero(self, capsys):
        code, out = run_cli(capsys, ["genus", "--name", "euler", "--model", "torus2"])
        assert code == 0
        assert "integral = 0" in out

    def test_euler_sphere_json(self, capsys):
        code, out = run_cli(
            capsys,
            ["genus", "--name", "euler", "--model", "sphere2", "--radius", "1/2", "--format", "json"],
        )
        assert code == 0
        data = json.loads(out)
        assert data["integral"] == "2"

    def test_radius_is_reported_for_built_in_models_only(self, capsys, tmp_path):
        code, out = run_cli(capsys, ["genus", "--model", "sphere2", "--format", "json"])
        assert code == 0 and json.loads(out)["radius"] == "1"
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"n": 2, "entries": [[1, 2, [[[1, 2], "1"]]], [2, 1, [[[1, 2], "-1"]]]],
                                    "volume": "4*pi"}))
        code, out = run_cli(capsys, ["genus", "--model-file", str(path), "--format", "json"])
        data = json.loads(out)
        assert code == 0 and data["integral"] == "2"
        assert "radius" not in data

    def test_decimal_coefficient_stays_exact(self, capsys, tmp_path):
        # a decimal coefficient is the rational it spells, in the JSON fields as on the human line
        entries = [[1, 2, [[[1, 2], "13/3"]]], [2, 1, [[[1, 2], "-13/3"]]],
                   [3, 4, [[[3, 4], "0.25"]]], [4, 3, [[[3, 4], "-1/4"]]]]
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"name": "s2xs2", "n": 4, "entries": entries, "volume": "8*pi**2/3"}))
        code, out = run_cli(capsys, ["genus", "--model-file", str(path), "--format", "json"])
        data = json.loads(out)
        assert code == 0 and data["integral"] == "13/18" and data["top_coefficient"] == "13/(48*pi**2)"
        code, out = run_cli(capsys, ["genus", "--model-file", str(path)])
        assert code == 0 and out == "euler on s2xs2: integral = 13/18\n"

    def test_missing_model_file_exits_2(self, capsys):
        code, _ = run_cli(capsys, ["genus", "--model-file", "/nonexistent/model.json"])
        assert code == 2

    @pytest.mark.parametrize("name", ["euler", "ahat"])
    def test_non_antisymmetric_model_file_exits_2(self, capsys, tmp_path, name):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"n": 2, "entries": [[1, 2, [[[1, 2], "1"]]]], "volume": "1"}))
        code = main(["genus", "--name", name, "--model-file", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ") and "antisymmetric" in captured.err
        assert captured.out == ""


    @pytest.mark.parametrize("name", ["chern", "ahat", "euler"])
    @pytest.mark.parametrize("indices", [[], [1]], ids=["constant", "one_form"])
    def test_non_curvature_model_file_exits_2(self, capsys, tmp_path, name, indices):
        # genera need entries of positive even degree: constants and 1-forms are rejected
        entries = [[1, 2, [[indices, "1"]]], [2, 1, [[indices, "-1"]]]]
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"n": 2, "entries": entries, "volume": "1"}))
        code = main(["genus", "--name", name, "--model-file", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "positive even degree" in captured.err
        assert captured.out == ""


    @pytest.mark.parametrize(
        "content, message",
        [
            (
                {"n": 2, "entries": [[0, 1, [[[1, 2], "1"]]], [1, 0, [[[1, 2], "-1"]]]]},
                "matrix position must be an integer in 1..2, not 0",
            ),
            ({"n": 2, "entries": [[3, 1, [[[1, 2], "1"]]]]}, "matrix position must be an integer in 1..2, not 3"),
            ({"n": 2, "entries": [[1, 2.0, [[[1, 2], "1"]]]]}, "matrix position must be an integer in 1..2, not 2.0"),
            ({"n": 2, "entries": 5}, "entries must be a list, not 5"),
            ({"n": 2, "entries": [[1, 2]]}, "an entry must be [i, j, [[indices, coeff], ...]]"),
            ({"n": 2, "entries": [[1, 2, [[1, "1"]]]]}, "a monomial must be [indices, coeff]"),
            ([1, 2], "a model file holds a JSON object, not list"),
            ({"n": 2.5, "entries": []}, "n must be an integer >= 1, not 2.5"),
            ({"entries": []}, "n must be an integer >= 1, not None"),
            ({"n": 0, "entries": []}, "n must be an integer >= 1, not 0"),
            (
                {"n": 2, "entries": [[1, 2, [[[0, 2], "1"]]], [2, 1, [[[0, 2], "-1"]]]]},
                "generator index must be an integer in 1..2, not 0",
            ),
            ({"n": 2, "entries": [[1, 2, [[[1, 3], "1"]]]]}, "generator index must be an integer in 1..2, not 3"),
            ({"n": 2, "entries": [[1, 2, [[[1, 2], "1/"]]]]}, "a coefficient must be a finite expression, not '1/'"),
            ({"n": 2, "entries": [[1, 2, [[[1, 2], "x.y"]]]]}, "a coefficient must be a finite expression, not 'x.y'"),
            ({"n": 2, "entries": [[1, 2, [[[1, 2], None]]]]}, "a coefficient must be a finite expression, not None"),
            ({"n": 2, "entries": [[1, 2, [[[1, 2], "1/0"]]]]}, "a coefficient must be a finite expression, not '1/0'"),
            ({"n": 2, "entries": [], "volume": "((("}, "volume must be a finite expression, not '((('"),
            ({"n": 2, "entries": [[1, 2, [[[1, 2], "x"]]]]}, "a coefficient must be a finite expression, not 'x'"),
            ({"n": 2, "entries": [], "volume": "sqrt(2)"}, "volume must be a finite expression, not 'sqrt(2)'"),
            ({"n": 2, "entries": [], "volume": "1/(1+pi)"}, "volume must be a finite expression, not '1/(1+pi)'"),
            ({"n": 2, "entries": [], "volume": "2**0.5"}, "volume must be a finite expression, not '2**0.5'"),
            ({"n": 2, "entries": [], "volume": "1e400"}, "volume must be a finite expression, not '1e400'"),
            ({"n": 2, "entries": [], "volume": "2**101"}, "volume must be a finite expression, not '2**101'"),
            ({"n": 2, "entries": [[1, 2, [[[1, 2], True]]]]}, "a coefficient must be a finite expression, not True"),
            ({"n": 15, "entries": []}, "n must be at most 14, not 15"),
        ],
    )
    def test_bad_model_file_exits_2(self, capsys, tmp_path, content, message):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(content))
        code = main(["genus", "--model-file", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: cannot load curvature model: ") and captured.err.count("\n") == 1
        assert message in captured.err


# stdout of `genus --format json`, byte for byte, as the implementation that
# scaled F by i/2π before any product printed it.  Every genus but the Euler
# class is 0 on these round and flat models.
GENUS_JSON = ('{"command": "genus", "genus": "%s", "integral": "%s", "model": "%s", "radius": "%s", '
              '"schema": "spingeo-report/1", "top_coefficient": "%s", "version": "0.1.0"}\n')
MODEL_NAMES = {"sphere2": "sphere2", "sphere4": "sphere4", "torus2": "torus2", "product": "product(sphere2,sphere2)"}
PINNED_EULER = [  # (model, radius, top coefficient, integral)
    ('sphere2', '1', '1/(2*pi)', '2'),
    ('sphere2', '2/3', '9/(8*pi)', '2'),
    ('sphere4', '1', '3/(4*pi**2)', '2'),
    ('sphere4', '2/3', '243/(64*pi**2)', '2'),
    ('product', '1', '1/(4*pi**2)', '4'),
    ('product', '2/3', '81/(64*pi**2)', '4'),
    ('torus2', '1', '0', '0'),
    ('torus2', '2/3', '0', '0'),
]
PINNED_BUILT_IN = [("euler", *row) for row in PINNED_EULER] + [
    (name, model, radius, "0", "0") for name in ("ahat", "lgenus", "pontryagin", "chern", "todd", "chern_char")
    for model in MODEL_NAMES for radius in ("1", "2/3")
]
PI_AND_I_MODEL = {
    "name": "pi-and-I", "n": 4, "volume": "8*pi**2/3",
    "entries": [
        [1, 2, [[[1, 2], "pi/3"], [[3, 4], "I"]]],
        [2, 1, [[[1, 2], "-pi/3"], [[3, 4], "-I"]]],
        [3, 4, [[[1, 2], "2*I + 1/pi"], [[3, 4], "1/2"]]],
        [4, 3, [[[1, 2], "-2*I - 1/pi"], [[3, 4], "-1/2"]]],
        [1, 3, [[[1, 3], "pi**2"], [[2, 4], "3"]]],
        [3, 1, [[[1, 3], "-pi**2"], [[2, 4], "-3"]]],
        [2, 4, [[[1, 3], "I*pi"], [[2, 4], "-1/7"]]],
        [4, 2, [[[1, 3], "-I*pi"], [[2, 4], "1/7"]]],
        [1, 4, [[[1, 4], "5/4"], [[2, 3], "pi - I"]]],
        [4, 1, [[[1, 4], "-5/4"], [[2, 3], "I - pi"]]],
        [2, 3, [[[1, 4], "2"], [[2, 3], "1/pi**2"]]],
        [3, 2, [[[1, 4], "-2"], [[2, 3], "-1/pi**2"]]],
    ],
}
PINNED_MODEL_FILE = [  # (genus, stdout line) on PI_AND_I_MODEL
    ('euler',
     '{"command": "genus", "genus": "euler", '
     '"integral": "-2*pi**2/21 + pi*(13/9 + 2*I) - 4/3 - 4*I/3 + 2*I/(3*pi) + 5/(6*pi**2)", '
     '"model": "pi-and-I", "schema": "spingeo-report/1", '
     '"top_coefficient": "-1/28 + (13/24 + 3*I/4)/pi + (-1/2 - I/2)/pi**2 + I/(4*pi**3) + 5/(16*pi**4)", '
     '"version": "0.1.0"}'),
    ('ahat',
     '{"command": "genus", "genus": "ahat", '
     '"integral": "pi**2/6 + pi*(-5/72 - 5*I/189) + I/72 - 1/(36*pi) - 1/(9*pi**2)", '
     '"model": "pi-and-I", "schema": "spingeo-report/1", '
     '"top_coefficient": "1/16 + (-5/192 - 5*I/504)/pi + I/(192*pi**2) - 1/(96*pi**3) - 1/(24*pi**4)", '
     '"version": "0.1.0"}'),
    ('lgenus',
     '{"command": "genus", "genus": "lgenus", '
     '"integral": "-4*pi**2/3 + pi*(5/9 + 40*I/189) - I/9 + 2/(9*pi) + 8/(9*pi**2)", '
     '"model": "pi-and-I", "schema": "spingeo-report/1", '
     '"top_coefficient": "-1/2 + (5/24 + 5*I/63)/pi - I/(24*pi**2) + 1/(12*pi**3) + 1/(3*pi**4)", '
     '"version": "0.1.0"}'),
    ('pontryagin',
     '{"command": "genus", "genus": "pontryagin", '
     '"integral": "-4*pi**2 + pi*(5/3 + 40*I/63) - I/3 + 2/(3*pi) + 8/(3*pi**2)", '
     '"model": "pi-and-I", "schema": "spingeo-report/1", '
     '"top_coefficient": "-3/2 + (5/8 + 5*I/21)/pi - I/(8*pi**2) + 1/(4*pi**3) + pi**(-4)", '
     '"version": "0.1.0"}'),
    ('chern',
     '{"command": "genus", "genus": "chern", '
     '"integral": "4*pi**2 + pi*(-5/3 - 40*I/63) + I/3 - 2/(3*pi) - 8/(3*pi**2)", '
     '"model": "pi-and-I", "schema": "spingeo-report/1", '
     '"top_coefficient": "3/2 + (-5/8 - 5*I/21)/pi + I/(8*pi**2) - 1/(4*pi**3) - 1/pi**4", '
     '"version": "0.1.0"}'),
    ('todd',
     '{"command": "genus", "genus": "todd", '
     '"integral": "pi**2/3 + pi*(-5/36 - 10*I/189) + I/36 - 1/(18*pi) - 2/(9*pi**2)", '
     '"model": "pi-and-I", "schema": "spingeo-report/1", '
     '"top_coefficient": "1/8 + (-5/96 - 5*I/252)/pi + I/(96*pi**2) - 1/(48*pi**3) - 1/(12*pi**4)", '
     '"version": "0.1.0"}'),
    ('chern_char',
     '{"command": "genus", "genus": "chern_char", '
     '"integral": "-4*pi**2 + pi*(5/3 + 40*I/63) - I/3 + 2/(3*pi) + 8/(3*pi**2)", '
     '"model": "pi-and-I", "schema": "spingeo-report/1", '
     '"top_coefficient": "-3/2 + (5/8 + 5*I/21)/pi - I/(8*pi**2) + 1/(4*pi**3) + pi**(-4)", '
     '"version": "0.1.0"}'),
]


class TestPinnedGenusOutput:
    @pytest.mark.parametrize("name, model, radius, top, integral", PINNED_BUILT_IN)
    def test_built_in_model(self, capsys, name, model, radius, top, integral):
        argv = ["genus", "--name", name, "--model", model, "--radius", radius, "--format", "json"]
        assert run_cli(capsys, argv) == (0, GENUS_JSON % (name, integral, MODEL_NAMES[model], radius, top))

    @pytest.mark.parametrize("name, line", PINNED_MODEL_FILE)
    def test_model_file_with_pi_and_i(self, capsys, tmp_path, name, line):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(PI_AND_I_MODEL))
        argv = ["genus", "--name", name, "--model-file", str(path), "--format", "json"]
        assert run_cli(capsys, argv) == (0, line + "\n")


# `cech --nerve NAME --w2 --format json`, byte for byte.
PINNED_CECH_W2 = {
    "circle": '{"cohomology_dims": {"H0": 1, "H1": 1, "H2": 0}, "command": "cech", "nerve": "circle", "patches": 3, '
              '"schema": "spingeo-report/1", "spin_structures": 2, "torsor_verified": true, "version": "0.1.0", '
              '"w2_trivial": true}',
    "sphere": '{"cohomology_dims": {"H0": 1, "H1": 0, "H2": 1}, "command": "cech", "nerve": "sphere", "patches": 4, '
              '"schema": "spingeo-report/1", "spin_structures": 1, "torsor_verified": true, "version": "0.1.0", '
              '"w2_trivial": true}',
    "torus": '{"cohomology_dims": {"H0": 1, "H1": 2, "H2": 1}, "command": "cech", "nerve": "torus", "patches": 9, '
             '"schema": "spingeo-report/1", "spin_structures": 4, "torsor_verified": true, "version": "0.1.0", '
             '"w2_trivial": true}',
}

# Nerve files `cech` rejects with exit 2, as (n, file content, message).  The test id of a row is
# "--nerve-content{n}-{message}": n is the row's place in the table as it stood when it also held the
# rows of the former `--lifts` option, so the ids did not change when those rows went.  The rows one
# past a size limit stay small enough to build in process; far larger files run under a memory cap in
# test_oversized_files_exit_2_under_a_memory_cap.
BAD_NERVE_FILES = [
    (2, {"patches": 3, "simplices": [[0, "a"]]}, "cannot load nerve"),
    (3, [1, 2], "cannot load nerve"),
    (6, {"patches": 3.7, "simplices": [[0, 1]]}, "patches must be an integer"),
    (7, {"patches": "3", "simplices": [[0, 1]]}, "patches must be an integer"),
    (8, {"patches": 3, "simplices": [[0, 1.5]]}, "must have integer vertices"),
    (9, {"patches": 3, "simplices": [[0, 1.0], [1, 2]]}, "must have integer vertices"),
    (10, {"patches": 3, "simplices": [[0, True], [1, 2]]}, "must have integer vertices"),
    (11, {"patches": -1, "simplices": []}, "patches must be an integer >= 0"),
    (12, {"patches": 3, "simplices": [[0, "a"]]}, "simplex (0, 'a') must have integer vertices"),
    (13, {"patches": 3, "simplices": [[0, None]]}, "simplex (0, None) must have integer vertices"),
    (14, {"patches": 3, "simplices": [0]}, "simplex 0 must be a list of vertices"),
    (15, {"patches": 3, "simplices": 0}, "simplices must be a list of simplices"),
    (16, [1, 2], "a nerve file holds a JSON object, not list"),
    (17, {"simplices": []}, "a nerve file holds {patches, simplices}, not {simplices}"),
    (18, {"patches": 3}, "a nerve file holds {patches, simplices}, not {patches}"),
    (19, {"patches": 1_000_001, "simplices": []}, "patches must be at most 1,000,000, not 1,000,001"),
    (20, {"patches": 18, "simplices": [list(range(18))]}, "close down to more than 131,072 faces"),
    (21, {"patches": 2**14 + 1, "simplices": [list(range(17))]}, "16,385 patches times 131,072 faces is over"),
]


class TestCech:
    def test_torus_spin_structures(self, capsys):
        code, out = run_cli(capsys, ["cech", "--nerve", "torus", "--w2", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["cohomology_dims"] == {"H0": 1, "H1": 2, "H2": 1}
        assert data["spin_structures"] == 4
        assert data["torsor_verified"] is True

    def test_missing_nerve_file_exits_2(self, capsys):
        code, _ = run_cli(capsys, ["cech", "--nerve", "/nonexistent/nerve.json"])
        assert code == 2

    def test_nerve_from_file(self, capsys, tmp_path):
        path = tmp_path / "nerve.json"
        path.write_text(json.dumps({"patches": 3, "simplices": [[0, 1], [1, 2], [0, 2]]}))
        code, out = run_cli(capsys, [ "cech", "--nerve", str(path), "--format", "json"])
        assert code == 0
        assert json.loads(out)["cohomology_dims"]["H1"] == 1

    @pytest.mark.parametrize("nerve", sorted(PINNED_CECH_W2))
    def test_w2_json_is_pinned(self, capsys, nerve):
        argv = ["cech", "--nerve", nerve, "--w2", "--format", "json"]
        assert run_cli(capsys, argv) == (0, PINNED_CECH_W2[nerve] + "\n")

    def test_lifts_option_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "lifts.json"
        path.write_text(json.dumps([[[0, 1], -1]]))
        with pytest.raises(SystemExit) as exc:
            main(["cech", "--nerve", "circle", "--w2", "--lifts", str(path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --lifts" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, message",
        [pytest.param(content, message, id=f"--nerve-content{n}-{message}") for n, content, message in BAD_NERVE_FILES],
    )
    def test_bad_input_file_exits_2(self, capsys, tmp_path, content, message):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(content))
        code = main(["cech", "--nerve", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err

    @pytest.mark.parametrize(
        "content, h0",
        [
            ({"patches": 1_000_000, "simplices": []}, 1_000_000),  # the patch limit
            ({"patches": 2**14, "simplices": [list(range(17))]}, 2**14 - 16),  # 2^17 faces, 2^31 for the product
        ],
    )
    def test_nerve_files_at_the_limits_run(self, capsys, tmp_path, content, h0):
        path = tmp_path / "nerve.json"
        path.write_text(json.dumps(content))
        code, out = run_cli(capsys, ["cech", "--nerve", str(path), "--format", "json"])
        assert code == 0 and json.loads(out)["cohomology_dims"] == {"H0": h0, "H1": 0, "H2": 0}


# Files past a limit, as (argv before the path, content): without the limits, `cech` dies of a
# MemoryError traceback in Nerve's vertex list and `genus` in FormMatrix.zero under a memory cap.
OVERSIZED_FILES = {
    "nerve": (["cech", "--nerve"], {"patches": 10**8, "simplices": []}),
    "model": (["genus", "--name", "ahat", "--model-file"], {"n": 100000, "entries": []}),
}


@pytest.mark.parametrize("name", sorted(OVERSIZED_FILES))
def test_oversized_files_exit_2_under_a_memory_cap(tmp_path, name):
    argv, content = OVERSIZED_FILES[name]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    cap = 512 * 2**20
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(__file__).parents[1] / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "spingeo.cli", *argv, str(path)], env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


class TestIndex:
    def test_dlambda_human(self, capsys):
        code, out = run_cli(capsys, ["index", "--model", "dlambda", "--lambda", "3"])
        assert code == 0
        assert "kernel 1" in out and "index 0" in out

    def test_csv_output(self, capsys):
        code, out = run_cli(
            capsys, ["index", "--model", "sphere2", "--t", "0.5,1", "--format", "csv"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,supertrace"
        assert len(lines) == 3
        for line in lines[1:]:
            t, val = line.split(",")
            assert float(val) == pytest.approx(2.0, abs=1e-10)

    def test_sphere2_default_grid_passes(self, capsys):
        code, out = run_cli(capsys, ["index", "--model", "sphere2", "--format", "json"])
        data = json.loads(out)
        assert code == 0 and data["passed"] and data["t"] == [0.1, 0.5, 1.0, 2.0] and data["lmax"] == 40
        assert max(r["tail_bound"] for r in data["rows"]) < 0.5

    def test_torus_dirac_json(self, capsys):
        code, out = run_cli(
            capsys,
            ["index", "--model", "torus_dirac", "--delta", "0.5,0.5", "--cutoff", "4",
             "--t", "0.2", "--format", "json"],
        )
        assert code == 0
        data = json.loads(out)
        assert data["kernel_dim"] == 0
        assert abs(data["rows"][0]["supertrace"]) <= 1e-12

    def test_dlambda_csv_evaluates_its_grid(self, capsys):
        code, out = run_cli(capsys, ["index", "--model", "dlambda", "--t", "0.3,1", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,supertrace" and len(lines) == 3
        assert [line.split(",")[0] for line in lines[1:]] == ["0.3", "1.0"]
        for line in lines[1:]:
            assert abs(float(line.split(",")[1])) <= 1e-12

    def test_dlambda_json(self, capsys):
        code, out = run_cli(capsys, ["index", "--model", "dlambda", "--lambda", "2", "--t", "0.2", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert (data["kernel_dim"], data["cokernel_dim"], data["index"]) == (1, 1, 0)
        assert (data["cutoff"], data["lambda"], data["passed"]) == (12, 2.0, True)
        assert [row["t"] for row in data["rows"]] == [0.2]
        assert abs(data["rows"][0]["supertrace"]) <= 1e-12

    def test_verdict_counts_the_kernel(self, capsys, monkeypatch):
        # e^{-t·1e-300} = 1 to 1e-12 on any grid: the heat trace reads index 0, yet only the + side has a zero mode
        planted = index_lab.SpectralModel("dlambda", [(0.0, 1, +1), (1e-300, 1, -1)])
        monkeypatch.setattr(index_lab, "dlambda_model", lambda lam, cutoff: planted)
        code, out = run_cli(capsys, ["index", "--model", "dlambda", "--t", "0.5"])
        assert code == 1
        assert out.splitlines()[-2:] == ["D_λ (λ=0.5, cutoff=12): kernel 1, cokernel 0, index 1", "result: FAIL"]

    def test_unknown_model_exits_2(self, capsys):
        code, _ = run_cli(capsys, ["index", "--model", "klein"])
        assert code == 2

    @pytest.mark.parametrize("model, options", [
        ("dlambda", ["--lambda", "0.5", "--cutoff", "12"]),
        ("sphere2", ["--lmax", "40"]),
        ("torus2", ["--lmax", "40"]),
        ("torus_dirac", ["--delta", "0,0", "--cutoff", "12"]),
    ])
    def test_omitted_options_take_their_model_defaults(self, capsys, model, options):
        for fmt in ("human", "json"):
            want = run_cli(capsys, ["index", "--model", model, *options, "--format", fmt])
            assert want[0] == 0 and run_cli(capsys, ["index", "--model", model, "--format", fmt]) == want

    def test_bad_spin_structure_exits_2(self, capsys):
        code = main(["index", "--model", "torus_dirac", "--delta", "0.3,0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ") and "offsets" in captured.err
        assert captured.out == ""


class TestSelftest:
    def test_passes_and_is_deterministic(self, capsys):
        code1, out1 = run_cli(capsys, ["selftest", "--seed", "7", "--format", "json"])
        code2, out2 = run_cli(capsys, ["selftest", "--seed", "7", "--format", "json"])
        assert code1 == code2 == 0
        assert out1 == out2  # byte-identical for identical seeds
        data = json.loads(out1)
        assert data["passed"] is True
        assert len(data["results"]) == 11


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["classify", "-1", "0"], "signature counts must be nonnegative"),
            (["classify", "0", "0", "--even"], "needs p + q >= 1"),
            (["classify", "--complex", "-1"], "n must be nonnegative"),
            (["genus", "--radius", "0"], "radius must be a positive rational"),
            (["genus", "--radius", "abc"], "radius must be a positive rational"),
            (["genus", "--radius", "-1"], "radius must be a positive rational"),
            (["spinrep", "4", "--trials", "0"], "trials must be at least 1"),
            (["genus", "--radius", "1/"], "radius must be a positive rational"),
            (["genus", "--radius", "1/0"], "radius must be a positive rational"),
            (["index", "--model", "torus2", "--lmax", "-3"], "cutoff must be nonnegative"),
            (["index", "--model", "sphere2", "--t", ","], "empty t grid"),
            (["index", "--model", "sphere2", "--t", "nan"], "t must be positive"),
            (["index", "--model", "torus2", "--t", "0.5,inf"], "t must be positive"),
            (["index", "--model", "torus_dirac", "--t", "inf"], "t must be positive"),
            (["index", "--model", "torus_dirac", "--delta", "0.5"], "not (0.5,)"),
            (["index", "--model", "torus_dirac", "--delta", ","], "not ()"),
            (["index", "--model", "torus_dirac", "--delta", "0,0,0.5"], "not (0.0, 0.0, 0.5)"),
            (["index", "--model", "dlambda", "--lambda", "nan"], "λ must be finite"),
            (["genus", "--model", "product_of_nothing"], "unknown curvature model"),
            (["index", "--model", "dlambda", "--t", "nan", "--format", "json"], "t must be positive and finite"),
            (["index", "--model", "dlambda", "--t", ","], "empty t grid"),
            (["index", "--model", "dlambda", "--lambda", "5", "--cutoff", "5"], "cutoff must exceed |λ| + 1"),
            (["classify", "--complex", "0", "--even"], "even subalgebra type needs n >= 1"),
            (["genus", "--model-file", "model.json", "--radius", "5"], "--radius does not apply to --model-file"),
            (["genus", "--model-file", "model.json", "--radius", "1"], "a model file has no radius"),
            (["index", "--model", "sphere2", "--lmax", "3", "--t", "0.01"], "holds for t ≥ 0.1, not t = 0.01"),
            (["index", "--model", "sphere2", "--t", "0.5,0.09"], "holds for t ≥ 0.1, not t = 0.09"),
            (["index", "--model", "sphere2", "--lmax", "3", "--t", "0.1"],
             "tail bound 19.3 at t=0.1, lmax=3 is not below 0.5"),
            (["index", "--model", "sphere2", "--lmax", "1", "--t", "2,0.5", "--format", "csv"], "at t=0.5, lmax=1"),
            (["classify", "5", "2", "--complex", "4", "--even"], "--complex N takes no signature P Q"),
            (["spinrep", "22", "--check", "berezin"], "spinor representation implemented for n <= 20, not 22"),
            (["spinrep", "22"], "spinor representation implemented for n <= 20, not 22"),
            (["spinrep", "21", "--check", "berezin"], "the Berezin check needs an even n >= 2, not 21"),
            (["spinrep", "16", "--trials", "0"], "trials must be at least 1, not 0"),
            (["classify", "28570", "0"], "p + q must be at most 28569, not 28570"),
            (["classify", "10000000", "0"], "p + q must be at most 28569, not 10000000"),
            (["classify", "--complex", "29000"], "n must be at most 28569, not 29000"),
            (["spinrep", "0", "--check", "berezin"], "the Berezin check needs an even n >= 2, not 0"),
            (["spinrep", "-2", "--check", "berezin"], "the Berezin check needs an even n >= 2, not -2"),
            (["spinrep", "3", "--check", "berezin"], "the Berezin check needs an even n >= 2, not 3"),
            (["spinrep", "13", "--check", "berezin"], "the Berezin check needs an even n >= 2, not 13"),
            (["index", "--model", "dlambda", "--cutoff", "500001"], "cutoff must be at most 500000, not 500001"),
            (["index", "--model", "torus_dirac", "--cutoff", "100000"], "cutoff must be at most 1200, not 100000"),
            (["index", "--model", "torus2", "--lmax", "1201"], "cutoff must be at most 1200, not 1201"),
            (["index", "--model", "sphere2", "--lmax", "2000001"], "l_max must be at most 2000000, not 2000001"),
            (["index", "--model", "sphere2", "--cutoff", "12"], "--cutoff applies to --model dlambda and torus_dirac"),
            (["index", "--model", "torus2", "--cutoff", "999999999"], "dlambda and torus_dirac only, not torus2"),
            (["index", "--model", "dlambda", "--lmax", "40"], "--lmax applies to --model sphere2 and torus2 only"),
            (["index", "--model", "torus_dirac", "--lmax", "3"], "--lmax applies to --model sphere2 and torus2 only"),
            (["index", "--model", "sphere2", "--delta", "0.3,7"], "--delta applies to --model torus_dirac only"),
            (["index", "--model", "dlambda", "--delta", "0,0"], "--delta applies to --model torus_dirac only"),
            (["index", "--model", "torus2", "--lambda", "nan"], "--lambda applies to --model dlambda only, not torus2"),
            (["index", "--model", "torus_dirac", "--lambda", "0.5"], "--lambda applies to --model dlambda only"),
            (["index", "--model", "sphere2", "--cutoff", "999999999", "--delta", "0.3,7", "--lambda", "nan",
              "--format", "json"], "--lambda applies to --model dlambda only, not sphere2"),
        ],
    )
    def test_bad_value_exits_2_with_one_error_line(self, capsys, argv, message):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
