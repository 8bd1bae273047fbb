"""The benchmark's operation lists: one fixed, interleaved list per workload.

An :class:`Op` calls into spingeo (``run``, the timed part) and checks the
output apart from the program (``check``, untimed).  Inputs come from the
benchmark seed; the same seed gives the same inputs.  Program functions are
looked up on their modules at call time, so a tracer installed later sees
the calls.
"""

from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent


@dataclass
class Op:
    name: str
    metric: str | None  # per-layer metric this op's time adds to
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is right
    known_fault: bool = False  # fails by a named program fault


# -- cli --------------------------------------------------------------------------

@dataclass
class CliResult:
    returncode: int
    stdout: bytes
    stderr: bytes
    child: dict | None  # layer data written by a traced child


def run_cli(argv: list[str], traced: bool) -> CliResult:
    """One invocation in a fresh interpreter; waits for it to end.

    The child inherits this process's environment, whose PYTHONPATH holds
    ``src``.
    """
    env, out_path = None, None
    if traced:
        out_path = BENCH_DIR / "results" / f".child-{os.getpid()}.json"
        out_path.parent.mkdir(exist_ok=True)
        cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), *argv]
        env = {
            **os.environ,
            "PERFBENCH_CHILD_OUT": str(out_path),
            "PERFBENCH_SPAWN_NS": str(time.clock_gettime_ns(time.CLOCK_MONOTONIC)),
        }
    else:
        cmd = [sys.executable, "-m", "spingeo.cli", *argv]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=120)
    child = None
    if out_path is not None and out_path.exists():
        child = json.loads(out_path.read_text())
        out_path.unlink()
    return CliResult(proc.returncode, proc.stdout, proc.stderr, child)


def _lines(res: CliResult) -> list[str]:
    return res.stdout.decode().splitlines()


def _json(res: CliResult) -> dict:
    return json.loads(res.stdout.decode())


def _expect(cond: bool, message: str) -> str | None:
    return None if cond else message


def _check_classify_real(res):
    want = oracles.algebra_name(*oracles.CLASSIFICATION[("real", 3, 0)])
    return _expect(_lines(res) == [f"Cl(3,0) = {want}"], f"classify 3 0 printed {_lines(res)}")


def _check_classify_complex(res):
    base, size, doubled = oracles.CLASSIFICATION[("complex", 4)]
    got = _json(res)["result"]
    return _expect(got == {"base": base, "size": size, "doubled": doubled}, f"Cl^c_4 gave {got}")


def _check_classify_even(res):
    want = oracles.algebra_name(*oracles.CLASSIFICATION[("even", 2, 0)])
    return _expect(_lines(res) == [f"Cl^0(2,0) = {want}"], f"classify 2 0 --even printed {_lines(res)}")


def _check_cech_torus(res):
    got = _json(res)
    h = oracles.surface_z2_betti(1)
    ok = (
        got["cohomology_dims"] == {"H0": h[0], "H1": h[1], "H2": h[2]}
        and got["w2_trivial"] is True
        and got["spin_structures"] == 2 ** h[1]
        and got["torsor_verified"] is True
    )
    return _expect(ok, f"torus cech gave {got}")


def _check_cech_sphere(res):
    lines = _lines(res)
    want = [f"  dim H^{k} = {d}" for k, d in enumerate(oracles.surface_z2_betti(0))]
    return _expect(lines[1:] == want, f"sphere cech printed {lines}")


def _check_ahat_sphere4(res):
    got = _json(res)
    return _expect(got["integral"] == "0", f"Â[S⁴] = {got['integral']}")


def _check_euler_sphere2(res):
    return _expect(_lines(res) == ["euler on sphere2: integral = 2"], f"χ(S²) printed {_lines(res)}")


def _check_index_sphere2(res):
    lines = _lines(res)
    if lines[0] != "t,supertrace" or len(lines) != 5:
        return f"sphere2 csv printed {lines}"
    for row in lines[1:]:
        t, value = (float(x) for x in row.split(","))
        if abs(value - 2.0) > max(oracles.sphere2_tail(t, 40), 1e-12):
            return f"S² supertrace {value} at t={t}"
    return None


def _check_index_torus_dirac(res):
    lines = _lines(res)
    values = [float(line.rsplit("=", 1)[1]) for line in lines if "str =" in line]
    ok = len(values) == 4 and all(abs(v) <= 1e-12 for v in values)
    ok = ok and "kernel dimension: 0" in lines and lines[-1] == "result: PASS"
    return _expect(ok, f"torus Dirac printed {lines}")


def _check_spinrep4(res):
    got = _json(res)
    r = got["results"]
    ok = (
        got["passed"] is True
        and r["relations_residual"] <= 1e-12
        and r["chirality_residual"] <= 1e-12
        and r["half_spinor_dims"] == [2, 2]  # 2^(n/2 - 1) each for n = 4
        and r["berezin_residual"] <= 1e-10
    )
    return _expect(ok, f"spinrep 4 gave {got}")


CLI_INVOCATIONS = [
    ("classify", ["classify", "3", "0"], _check_classify_real),
    ("cech", ["cech", "--nerve", "torus", "--w2", "--format", "json"], _check_cech_torus),
    ("genus", ["genus", "--name", "ahat", "--model", "sphere4", "--format", "json"], _check_ahat_sphere4),
    ("index", ["index", "--model", "sphere2", "--format", "csv"], _check_index_sphere2),
    ("spinrep", ["spinrep", "4", "--check", "all", "--format", "json"], _check_spinrep4),
    ("classify", ["classify", "--complex", "4", "--format", "json"], _check_classify_complex),
    ("cech", ["cech", "--nerve", "sphere"], _check_cech_sphere),
    ("genus", ["genus", "--name", "euler", "--model", "sphere2", "--radius", "1/2"], _check_euler_sphere2),
    ("index", ["index", "--model", "torus_dirac", "--delta", "0.5,0.5"], _check_index_torus_dirac),
    ("classify", ["classify", "2", "0", "--even"], _check_classify_even),
]


def cli_ops(seed: int, traced: bool = False) -> list[Op]:
    """The ten invocations; the list is the same for every seed."""
    del seed  # the invocations are fixed
    first_bytes: dict[tuple[str, ...], bytes] = {}

    def make(command, argv, check):
        def checked(res: CliResult):
            if res.returncode != 0:
                return f"{' '.join(argv)} exited {res.returncode}: {res.stderr.decode()[-300:]}"
            if "--format" in argv and "json" in argv:
                seen = first_bytes.setdefault(tuple(argv), res.stdout)
                if seen != res.stdout:
                    return f"{' '.join(argv)} printed different bytes on a repeat"
            return check(res)

        return Op(" ".join(argv), f"cli.{command}_s", lambda: run_cli(argv, traced), checked)

    return [make(*inv) for inv in CLI_INVOCATIONS]


# -- battery ----------------------------------------------------------------------

CRITERIA = [
    "classification_table",
    "periodicity",
    "clifford_relations",
    "spinor_representation",
    "twisted_adjoint",
    "berezin",
    "genus_expansions",
    "chern_gauss_bonnet",
    "cech",
    "index_lab",
    "substitution_suites",
]


#: criterion_berezin draws 4x4 matrices whose spectral radius can reach the
#: 2π limit of the order-80 series in spinrep.ahat_matrix_det_sqrt; it then
#: fails on some seeds (42, 51 and 53 of 0..59).  It runs with the fixed
#: seed of ``spingeo selftest``; the fault itself is measured as fixed
#: failing cases in the ``scale`` workload.
FIXED_SEEDS = {"berezin": 0}


def battery_ops(seed: int) -> list[Op]:
    """The eleven acceptance criteria, seeded criteria with the benchmark seed."""
    from spingeo import acceptance

    def make(short):
        name = f"criterion_{short}"
        takes_seed = "seed" in inspect.signature(getattr(acceptance, name)).parameters
        kwargs = {"seed": FIXED_SEEDS.get(short, seed)} if takes_seed else {}
        return Op(
            short,
            f"acceptance.{short}_s",
            lambda: getattr(acceptance, name)(**kwargs),
            lambda r: None if r.passed else f"{r.name}: {r.detail}",
        )

    return [make(short) for short in CRITERIA]


# -- scale ------------------------------------------------------------------------

def _dense_clifford_op(metric, p, q, coeffs, exact):
    """A dense product in Cl(p, q), checked against the regular representation."""
    from spingeo.clifford import Multivector, Signature

    sig = Signature(p, q)
    dim = 1 << (p + q)
    a = Multivector(sig, dict(enumerate(coeffs[:dim])))
    b = Multivector(sig, dict(enumerate(coeffs[dim:])))
    reps = oracles.regular_representation(p, q)

    def check(c):
        if exact:
            av = np.array([oracles.to_mod_p(x) for x in coeffs[:dim]], dtype=np.int64)
            bv = np.array([oracles.to_mod_p(x) for x in coeffs[dim:]], dtype=np.int64)
            want = oracles.product_mod_p(reps, av, bv)
            got = np.zeros(dim, dtype=np.int64)
            for blade, x in c.terms.items():
                got[blade] = oracles.to_mod_p(x)
            return _expect(np.array_equal(got, want), f"exact product wrong in Cl({p},{q})")
        want = oracles.product_complex(reps, np.array(coeffs[:dim]), np.array(coeffs[dim:]))
        got = np.zeros(dim, dtype=complex)
        for blade, x in c.terms.items():
            got[blade] = complex(x)
        err = float(np.max(np.abs(got - want)))
        return _expect(err <= 1e-9 * max(1.0, float(np.max(np.abs(want)))), f"float product off by {err:.2e}")

    return Op(f"clifford {metric}", metric, lambda: a * b, check)


def _rotor_op(rng: np.random.Generator):
    """Twisted adjoint of a product of eight unit vectors in Cl(8,0): an element of Spin(8)."""
    from spingeo import spinrep
    from spingeo.clifford import Multivector, Signature

    sig = Signature(8, 0)
    vectors = []
    for _ in range(8):
        v = rng.normal(size=8)
        vectors.append([complex(c) for c in v / np.linalg.norm(v)])

    def run():
        x = Multivector.scalar(complex(1.0), sig)
        for v in vectors:
            x = x * Multivector.vector(v, sig)
        return spinrep.twisted_adjoint_matrix(x)

    def check(m):
        m = np.asarray(m)
        ortho = float(np.max(np.abs(m @ m.conj().T - np.eye(8))))
        det = complex(np.linalg.det(m))
        return _expect(ortho <= 1e-12 and abs(det - 1) <= 1e-10, f"Spin(8) image: ortho {ortho:.1e}, det {det}")

    return Op("spinrep rotor n=8", "spinrep.rotor_n8_s", run, check)


def _berezin_op(metric, cases, known_fault=False):
    """Both sides of the Berezin identity for A = O blockdiag(λ) Oᵀ, for each (λ, O)."""
    from spingeo import spinrep

    mats, wants = [], []
    for lams, rotation in cases:
        a = rotation @ oracles.block_antisymmetric(lams) @ rotation.T
        mats.append((a - a.T) / 2)  # exactly antisymmetric after rounding
        wants.append(oracles.berezin_closed_form(lams))

    def check(sides):
        for (lams, _), want, (lhs, rhs) in zip(cases, wants, sides):
            tol = 1e-10 * max(1.0, abs(want))
            if abs(lhs - want) > tol:
                # the left side is right even where the known fault hits the right side
                raise AssertionError(f"Berezin lhs {lhs} != {want} for λ={lams}")
            if abs(rhs - want) > tol:
                return f"Berezin rhs {rhs} != {want} for λ={lams}"
        return None

    return Op(f"berezin n={2 * len(cases[0][0])} λ={[c[0] for c in cases]}", metric,
              lambda: [spinrep.berezin_supertrace_exp(a) for a in mats], check, known_fault)


def _exterior_module_op(rng: np.random.Generator):
    from spingeo import spinrep

    n = 8
    vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)

    def check(module):
        c = [module.c(i) @ vec for i in range(1, n + 1)]
        ct = [module.c_tilde(i) @ vec for i in range(1, n + 1)]
        worst = 0.0
        for i in range(n):
            for j in range(n):
                delta = 2.0 * (i == j) * vec
                ci, cj = module.c(i + 1), module.c(j + 1)
                ti, tj = module.c_tilde(i + 1), module.c_tilde(j + 1)
                worst = max(
                    worst,
                    float(np.max(np.abs(ci @ c[j] + cj @ c[i] + delta))),  # {c, c} = -2δ
                    float(np.max(np.abs(ti @ ct[j] + tj @ ct[i] - delta))),  # {c̃, c̃} = +2δ
                    float(np.max(np.abs(ci @ ct[j] + tj @ c[i]))),  # {c, c̃} = 0
                )
        return _expect(worst <= 1e-12, f"exterior module relations off by {worst:.1e}")

    return Op("spinrep exterior module n=8", "spinrep.exterior_module_n8_s", lambda: spinrep.ExteriorModule(n), check)


def _nerve_op(metric, vertices, tris, genus, rng, spin=True):
    from spingeo import cech

    nerve = cech.make_nerve(vertices, oracles.relabel(vertices, tris, rng))
    lift_values = {e: int(rng.choice((1, -1))) for e in nerve.simplices_of_dim(1)}
    want = oracles.surface_z2_betti(genus)

    def run():
        dims = tuple(cech.cohomology_dim(nerve, k) for k in range(3))
        report = cech.w2_and_spin_structures(cech.Cochain(nerve, 1, lift_values)) if spin else None
        return dims, report

    def check(out):
        dims, report = out
        if dims != want:
            return f"{metric}: H dims {dims}, want {want}"
        if report is None:
            return None
        ok = report.w2_trivial and report.count == 2 ** want[1] and report.torsor_verified
        return _expect(ok, f"{metric}: w2 {report.w2_trivial}, {report.count} spin structures, torsor {report.torsor_verified}")

    return Op(f"cech {metric}", metric, run, check)


def _test_curvature(theta):
    """blockdiag([[0, θ_j], [-θ_j, 0]]), θ_j = sum_k theta[j][k] e_{2k+1} ∧ e_{2k+2} (see oracles)."""
    from spingeo.chern_weil import FormMatrix, FormPoly

    m = 2 * len(theta)
    F = FormMatrix.zero(m, m)
    for j, row in enumerate(theta):
        form = FormPoly(m)
        for k, c in enumerate(row):
            if c:
                form = form + FormPoly.monomial((2 * k + 1, 2 * k + 2), m, c)
        F.entries[2 * j][2 * j + 1] = form
        F.entries[2 * j + 1][2 * j] = -form
    return F


def _genus_test(name: str, theta) -> str | None:
    """``genus_eval`` on the test curvature ``theta`` against the oracle's own series."""
    import sympy
    from spingeo import chern_weil

    test = _test_curvature(theta)
    top = chern_weil.genus_eval(name, test).top_coefficient()
    got = sympy.expand(top * (2 * sympy.pi) ** (test.n // 2))
    want = oracles.genus_top_coefficient(name, theta)
    ok = got == sympy.Rational(want.numerator, want.denominator)
    return _expect(ok, f"{name} on the test curvature {theta}: (2π)^{test.n // 2} × top = {got}, want {want}")


def _genus_op(metric, name, model, expected, theta, tests: dict):
    """A genus integral on a product of round spheres.

    The Pontryagin forms of round spheres vanish pointwise, so Â, L and the
    Pontryagin number are 0 there whatever series the program uses.  Their
    check therefore also evaluates the same genus on the test curvature
    ``theta``, whose Pontryagin forms do not vanish (untimed, once per
    genus and process: ``tests`` keeps the verdicts).
    """
    from spingeo import chern_weil

    def run():
        return chern_weil.integrate_top(chern_weil.genus_eval(name, model.F), model)

    def check(value):
        if value != expected:
            return f"{name} on {model.name} = {value}, want {expected}"
        if name == "euler":
            return None
        if name not in tests:
            tests[name] = _genus_test(name, theta)
        return tests[name]

    return Op(f"{name} on {model.name}", metric, run, check)


def _torus_dirac_op(rng, cutoff=60):
    from spingeo import index_lab

    ts = sorted(float(t) for t in rng.uniform(0.05, 2.0, size=3))

    def run():
        out = []
        for delta in ((0, 0), (0, 0.5), (0.5, 0), (0.5, 0.5)):
            model = index_lab.torus_dirac_model(delta, cutoff)
            out.append((delta, model, model.kernel_dim(), [model.supertrace(t) for t in ts]))
        return out

    def check(out):
        # the model pairs every + state with a - state, so str = 0 holds for
        # any eigenvalues: the spectrum itself is checked against 4π²|k+δ|²
        for delta, model, kernel, values in out:
            if kernel != (2 if delta == (0, 0) else 0) or max(abs(v) for v in values) > 1e-12:
                return f"torus Dirac δ={delta}: kernel {kernel}, str {values}"
            want = oracles.torus_dirac_spectrum(delta, cutoff)
            for chi in (1, -1):
                got = np.sort([lam for lam, mult, c in model.entries if c == chi for _ in range(mult)])
                if got.shape != want.shape or not np.allclose(got, want, rtol=1e-12, atol=1e-12):
                    return f"torus Dirac δ={delta}: chirality {chi} spectrum differs from 4π²|k+δ|²"
        return None

    return Op("index torus Dirac", "index_lab.torus_dirac_s", run, check)


def _sphere2_op(rng, lmax=3000):
    from spingeo import index_lab

    ts = sorted(float(t) for t in rng.uniform(0.1, 2.0, size=4))

    def run():
        model = index_lab.sphere2_hodge_model(lmax)
        return model, index_lab.mckean_singer_check(model, ts)

    def check(out):
        model, res = out
        bad = [(t, v) for t, v in zip(ts, res["values"]) if abs(v - 2.0) > max(oracles.sphere2_tail(t, lmax), 1e-12)]
        if res["inferred_index"] != 2 or bad:
            return f"S² Hodge index {res['inferred_index']}, off {bad}"
        # each l >= 1 enters both gradings alike, so the index is 2 for any
        # eigenvalues: the spectrum itself is checked against l(l+1), 2(2l+1)
        for chi in (1, -1):
            got: dict[float, int] = {}
            for lam, mult, c in model.entries:
                if c == chi:
                    got[lam] = got.get(lam, 0) + mult
            if got != oracles.sphere2_hodge_spectrum(lmax, chi):
                return f"S² Hodge chirality {chi} spectrum differs from l(l+1) with multiplicity 2(2l+1)"
        return None

    return Op("index sphere2 Hodge", "index_lab.sphere2_hodge_s", run, check)


def _heat_kernel_op(rng):
    from spingeo import index_lab

    a = float(rng.uniform(0.5, 1.5))
    t = float(rng.uniform(0.3, 0.6)) / a  # t·a >= 0.3: 60 Hermite terms converge
    t1, t2 = (float(x) for x in rng.uniform(0.3, 0.7, size=2))
    xs = np.linspace(-1, 1, 5)

    def run():
        pairs = [(x, y) for x in xs for y in xs]
        mehler = [index_lab.mehler_kernel(t, x, y, a) for x, y in pairs]
        expansion = [index_lab.oscillator_eigen_expansion(t, x, y, a, terms=60) for x, y in pairs]
        line = index_lab.semigroup_residual(index_lab.line_heat_kernel, t1, t2, xs[::2])
        osc = index_lab.semigroup_residual(lambda s, x, y: index_lab.mehler_kernel(s, x, y, a), t1, t2, xs[::2])
        return pairs, mehler, expansion, line, osc

    def check(out):
        pairs, mehler, expansion, line, osc = out
        worst = max(
            max(abs(m - oracles.hermite_kernel(t, x, y, a)) for m, (x, y) in zip(mehler, pairs)),
            max(abs(m - e) for m, e in zip(mehler, expansion)),
        )
        return _expect(worst <= 1e-8 and max(line, osc) <= 1e-6,
                       f"Mehler vs Hermite {worst:.1e}, semigroup {line:.1e}/{osc:.1e}")

    return Op("index heat kernels", "index_lab.heat_kernel_s", run, check)


#: Spectral radius of -2A at or beyond 2π: the order-80 series in
#: spinrep.ahat_matrix_det_sqrt is wrong here (3.0 is 7e-3 off, 3.5 has the
#: wrong sign).  Fixed inputs, failing every time until a closed form lands.
BEREZIN_FAULT_LAMBDAS = (3.0, 3.5)


def _gaussian_rational(rng: np.random.Generator):
    from spingeo.clifford import QI

    def part():
        return Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 6)))

    re = part()
    while re == 0:
        re = part()
    return QI(re, part())


def scale_ops(seed: int) -> list[Op]:
    """One pass: problems at the sizes the roadmap targets, layers interleaved."""
    from spingeo import chern_weil

    rng = np.random.default_rng([seed, 7])
    p6, p8 = int(rng.integers(0, 7)), int(rng.integers(0, 9))
    exact6 = [_gaussian_rational(rng) for _ in range(2 << 6)]
    exact8 = [_gaussian_rational(rng) for _ in range(2 << 8)]
    float8 = [complex(x, y) for x, y in rng.normal(size=(2 << 8, 2))]
    pf8 = int(rng.integers(0, 9))

    def radius():
        return Fraction(int(rng.integers(1, 4)), int(rng.integers(1, 4)))

    def s2():
        return chern_weil.curvature_model("sphere2", radius())

    s4s4 = chern_weil.product_model(
        chern_weil.curvature_model("sphere4", radius()), chern_weil.curvature_model("sphere4", radius())
    )
    s2x4 = chern_weil.product_model(chern_weil.product_model(s2(), s2()), chern_weil.product_model(s2(), s2()))
    theta = rng.integers(-2, 3, size=(4, 4)).tolist()
    while any(oracles.genus_top_coefficient(g, theta) == 0 for g in ("ahat", "lgenus", "pontryagin")):
        theta = rng.integers(-2, 3, size=(4, 4)).tolist()
    tests: dict[str, str | None] = {}
    genera = {
        "s4s4": [_genus_op("chern_weil.genus_s4xs4_s", g, s4s4, v, theta, tests)
                 for g, v in (("euler", 4), ("ahat", 0), ("lgenus", 0), ("pontryagin", 0))],
        "s2x4": [_genus_op("chern_weil.genus_s2x4_s", g, s2x4, v, theta, tests)
                 for g, v in (("euler", 16), ("ahat", 0), ("lgenus", 0), ("pontryagin", 0))],
    }
    g2_vertices, g2_tris = oracles.genus2()
    def berezin_cases(n, count):
        return [(tuple(float(x) for x in rng.uniform(0.2, 1.4, size=n // 2)), oracles.random_rotation(n, rng))
                for _ in range(count)]

    berezin6 = _berezin_op("spinrep.berezin_n6_s", berezin_cases(6, 3))
    berezin8 = _berezin_op("spinrep.berezin_n8_s", berezin_cases(8, 1))
    faults = [_berezin_op(None, [((lam,), np.eye(2))], known_fault=True) for lam in BEREZIN_FAULT_LAMBDAS]

    return [
        _dense_clifford_op("clifford.dense_exact_n6_s", p6, 6 - p6, exact6, True),
        _nerve_op("cech.spin_grid3x4_s", 12, oracles.torus_grid(3, 4), 1, rng),
        genera["s4s4"][0],
        berezin6,
        _torus_dirac_op(rng),
        genera["s2x4"][1],
        _dense_clifford_op("clifford.dense_exact_n8_s", p8, 8 - p8, exact8, True),
        _nerve_op("cech.cohomology_grid20_s", 400, oracles.torus_grid(20, 20), 1, rng, spin=False),
        genera["s4s4"][1],
        faults[0],
        _rotor_op(rng),
        _sphere2_op(rng),
        genera["s2x4"][2],
        _dense_clifford_op("clifford.dense_float_n8_s", pf8, 8 - pf8, float8, False),
        _nerve_op("cech.spin_genus2_s", g2_vertices, g2_tris, 2, rng),
        genera["s4s4"][2],
        _exterior_module_op(rng),
        _heat_kernel_op(rng),
        genera["s2x4"][3],
        berezin8,
        faults[1],
        genera["s4s4"][3],
        genera["s2x4"][0],
    ]


def build(workload: str, seed: int, traced_cli: bool = False) -> list[Op]:
    if workload == "cli":
        return cli_ops(seed, traced_cli)
    if workload == "battery":
        return battery_ops(seed)
    if workload == "scale":
        return scale_ops(seed)
    raise ValueError(f"unknown workload {workload!r}")
