"""Tests of the benchmark's own oracles and tracer: ``python3 -m pytest perfbench -q``."""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracles

ROOT = Path(__file__).resolve().parent.parent


def _blade_vector(dim, blade, coeff=1):
    v = np.zeros(dim, dtype=np.int64)
    v[blade] = oracles.to_mod_p(coeff)
    return v


def test_generator_squares_follow_the_sign_convention():
    for (p, q), want in (((1, 0), -1), ((0, 1), 1)):
        reps = oracles.regular_representation(p, q)
        e1 = _blade_vector(2, 1)
        assert list(oracles.product_mod_p(reps, e1, e1)) == [oracles.to_mod_p(want), 0]


def test_distinct_generators_anticommute():
    reps = oracles.regular_representation(2, 1)
    for i in range(3):
        for j in range(3):
            if i != j:
                ei, ej = _blade_vector(8, 1 << i), _blade_vector(8, 1 << j)
                ij = oracles.product_mod_p(reps, ei, ej)
                ji = oracles.product_mod_p(reps, ej, ei)
                assert np.array_equal((ij + ji) % oracles.PRIME, np.zeros(8))


def test_regular_representation_is_associative():
    rng = np.random.default_rng(0)
    reps = oracles.regular_representation(2, 2)
    a, b, c = (rng.integers(0, oracles.PRIME, size=16) for _ in range(3))
    left = oracles.product_mod_p(reps, oracles.product_mod_p(reps, a, b), c)
    right = oracles.product_mod_p(reps, a, oracles.product_mod_p(reps, b, c))
    assert np.array_equal(left, right)


def test_complex_product_matches_quaternions():
    # Cl(2,0) = H with i = e1, j = e2, k = e1e2: ij = k, ji = -k
    reps = oracles.regular_representation(2, 0)
    e1, e2 = np.eye(4, dtype=complex)[1], np.eye(4, dtype=complex)[2]
    assert np.allclose(oracles.product_complex(reps, e1, e2), [0, 0, 0, 1])
    assert np.allclose(oracles.product_complex(reps, e2, e1), [0, 0, 0, -1])


def test_gaussian_rationals_reduce_mod_p():
    assert oracles.I_MOD ** 2 % oracles.PRIME == oracles.PRIME - 1
    assert oracles.to_mod_p(Fraction(1, 2)) * 2 % oracles.PRIME == 1

    class Gaussian:
        re, im = Fraction(3), Fraction(-1, 3)

    assert oracles.to_mod_p(Gaussian()) == (3 - oracles.I_MOD * pow(3, -1, oracles.PRIME)) % oracles.PRIME


def test_berezin_closed_form():
    assert oracles.berezin_closed_form([math.pi / 2]) == pytest.approx(-2j)
    assert oracles.berezin_closed_form([math.pi / 2, math.pi / 2]) == pytest.approx(-4)


def test_genus_series_match_the_known_coefficients():
    assert oracles.genus_series("ahat", 6) == [1, 0, Fraction(-1, 24), 0, Fraction(7, 5760), 0, Fraction(-31, 967680)]
    assert oracles.genus_series("lgenus", 6) == [1, 0, Fraction(1, 3), 0, Fraction(-1, 45), 0, Fraction(2, 945)]
    assert oracles.genus_series("pontryagin", 4) == [1, 0, 1, 0, 0]


def test_genus_top_coefficient_of_one_curved_block():
    # θ_1 = w_1 + w_2, θ_2 = 0: x_1^2 = 2 w_1 w_2 / (2π)^2, so the top is 2 a_2
    theta = [[1, 1], [0, 0]]
    assert oracles.genus_top_coefficient("ahat", theta) == Fraction(-1, 12)
    assert oracles.genus_top_coefficient("lgenus", theta) == Fraction(2, 3)
    assert oracles.genus_top_coefficient("pontryagin", theta) == 2
    # with both blocks curved the top of the Pontryagin genus is p2 = x_1^2 x_2^2: (2 w_1 w_2)(2 w_3 w_4)
    assert oracles.genus_top_coefficient("pontryagin", [[1, 1, 0, 0], [0, 0, 1, 1], [0] * 4, [0] * 4]) == 4


def test_index_model_spectra():
    want = 4 * math.pi**2 * np.array([0, 1, 1, 1, 1, 2, 2, 2, 2])
    assert np.allclose(oracles.torus_dirac_spectrum((0, 0), 1), want)
    assert oracles.torus_dirac_spectrum((0.5, 0.5), 1)[0] == pytest.approx(2 * math.pi**2)
    assert oracles.sphere2_hodge_spectrum(2, +1) == {0.0: 2, 2.0: 6, 6.0: 10}
    assert oracles.sphere2_hodge_spectrum(2, -1) == {2.0: 6, 6.0: 10}


def test_random_rotation_is_special_orthogonal():
    rng = np.random.default_rng(1)
    for n in (2, 6, 8):
        o = oracles.random_rotation(n, rng)
        assert np.allclose(o @ o.T, np.eye(n)) and np.linalg.det(o) == pytest.approx(1.0)


def test_block_antisymmetric_has_the_given_pfaffian_blocks():
    a = oracles.block_antisymmetric([0.5, 2.0])
    assert np.array_equal(a, -a.T) and a[0, 1] == 0.5 and a[2, 3] == 2.0


@pytest.mark.parametrize(
    "tris, chi",
    [
        (oracles.torus_grid(3, 4), 0),
        (oracles.torus_grid(20, 20), 0),
        (oracles.torus7(), 0),
        (oracles.genus2()[1], -2),
    ],
)
def test_surfaces_are_closed_with_the_right_euler_characteristic(tris, chi):
    assert oracles.is_closed_surface(tris)
    assert oracles.euler_characteristic(tris) == chi


def test_genus2_and_relabelling_keep_the_vertex_count():
    vertices, tris = oracles.genus2()
    assert vertices == 11 == len({v for t in tris for v in t})
    moved = oracles.relabel(vertices, tris, np.random.default_rng(2))
    assert oracles.euler_characteristic(moved) == -2 and len(set(moved)) == len(tris)


def test_hermite_kernel_matches_mehler_on_the_diagonal_origin():
    for t, a in ((0.3, 1.0), (0.5, 0.7)):
        want = math.sqrt(a / (2 * math.pi * math.sinh(2 * a * t)))
        assert oracles.hermite_kernel(t, 0.0, 0.0, a) == pytest.approx(want, rel=1e-12)


def test_algebra_names():
    assert oracles.algebra_name("H", 1, True) == "H + H"
    assert oracles.algebra_name("C", 4, False) == "M4(C)"


def test_benchmark_json_declares_the_measured_metrics():
    import run
    import tracing

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in spec["per_layer"]} >= set(tracing.COUNTED.values())


def test_tracer_counts_products_and_uninstalls():
    sys.path.insert(0, str(ROOT / "src"))
    from spingeo import clifford
    from tracing import Tracer

    original = clifford.Multivector.__mul__
    tracer = Tracer()
    tracer.install()
    try:
        sig = clifford.Signature(2, 0)
        e1 = clifford.Multivector.basis_vector(1, sig)
        assert e1 * e1 == clifford.Multivector.scalar(-1, sig)
    finally:
        tracer.uninstall()
    assert clifford.Multivector.__mul__ is original
    assert tracer.counts["clifford.mv_mul_calls"] == 1
    assert tracer.counts["clifford.blade_mul_calls"] == 1
    assert tracer.self_s["clifford"] > 0
