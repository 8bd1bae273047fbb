"""The exact strings `spingeo genus` prints, pinned for every built-in model.

The strings are those of the sympy-based implementation the exact
Q(i)[π, π⁻¹] ring replaced; the ring must print them byte for byte.
"""

import json
from fractions import Fraction

import pytest

from spingeo.chern_weil import FormMatrix, FormPoly, genus_eval
from spingeo.cli import main

GENERA = ("euler", "ahat", "lgenus", "pontryagin", "chern", "todd", "chern_char")
MODELS = ("sphere2", "sphere4", "torus2", "product")
RADII = ("1", "1/2", "3")

# top coefficient of the Euler form, by model and radius; the integral is χ
EULER_TOP = {
    ("sphere2", "1"): "1/(2*pi)",
    ("sphere2", "1/2"): "2/pi",
    ("sphere2", "3"): "1/(18*pi)",
    ("sphere4", "1"): "3/(4*pi**2)",
    ("sphere4", "1/2"): "12/pi**2",
    ("sphere4", "3"): "1/(108*pi**2)",
    ("product", "1"): "1/(4*pi**2)",
    ("product", "1/2"): "4/pi**2",
    ("product", "3"): "1/(324*pi**2)",
}
EULER_CHARACTERISTIC = {"sphere2": "2", "sphere4": "2", "torus2": "0", "product": "4"}


def expected(name, model, radius):
    """(top_coefficient, integral) as printed.

    Every genus but the Euler class is a polynomial in the Pontryagin forms
    of the real curvature (odd Chern and Chern-character forms of an
    antisymmetric matrix vanish), and those vanish pointwise on round
    spheres, on the flat torus and on products of round spheres.
    """
    if name != "euler" or model == "torus2":
        return "0", "0"
    return EULER_TOP[(model, radius)], EULER_CHARACTERISTIC[model]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    return captured.out


@pytest.mark.parametrize("radius", RADII)
@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("name", GENERA)
def test_genus_strings(capsys, name, model, radius):
    argv = ["genus", "--name", name, "--model", model, "--radius", radius]
    top, integral = expected(name, model, radius)
    data = json.loads(run(capsys, argv + ["--format", "json"]))
    assert (data["top_coefficient"], data["integral"]) == (top, integral)
    label = "product(sphere2,sphere2)" if model == "product" else model
    assert run(capsys, argv) == f"{name} on {label}: integral = {integral}\n"


def two_blocks(a, b, c, d):
    """blockdiag([[0, θ₁], [-θ₁, 0]], [[0, θ₂], [-θ₂, 0]]) with θ₁ = a e12 + b e34, θ₂ = c e12 + d e34.

    Unlike the round models its Pontryagin form p₁ ∝ (ab + cd) e1234 does not
    vanish, so every genus has a nonzero top coefficient here.
    """
    m = 4
    F = FormMatrix.zero(4, m)
    for j, (p, q) in enumerate(((a, b), (c, d))):
        theta = FormPoly.monomial((1, 2), m, p) + FormPoly.monomial((3, 4), m, q)
        F.entries[2 * j][2 * j + 1] = theta
        F.entries[2 * j + 1][2 * j] = -theta
    return F


TWO_BLOCK_TOP = {
    (1, 2, 3, 4): {
        "euler": "5/(2*pi**2)",
        "ahat": "-7/(24*pi**2)",
        "lgenus": "7/(3*pi**2)",
        "pontryagin": "7/pi**2",
        "chern": "-7/pi**2",
        "todd": "-7/(12*pi**2)",
        "chern_char": "7/pi**2",
    },
    (Fraction(1, 2), -1, 2, Fraction(1, 3)): {
        "euler": "-11/(24*pi**2)",
        "ahat": "-1/(288*pi**2)",
        "lgenus": "1/(36*pi**2)",
        "pontryagin": "1/(12*pi**2)",
        "chern": "-1/(12*pi**2)",
        "todd": "-1/(144*pi**2)",
        "chern_char": "1/(12*pi**2)",
    },
}


@pytest.mark.parametrize("name", GENERA)
@pytest.mark.parametrize("coeffs", list(TWO_BLOCK_TOP))
def test_two_block_top_coefficients(coeffs, name):
    assert str(genus_eval(name, two_blocks(*coeffs)).top_coefficient()) == TWO_BLOCK_TOP[coeffs][name]
