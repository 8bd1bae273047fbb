"""The numpy kernel ``clifford._pair_sums`` against the Python loops it stands in for.

``Multivector.__mul__`` and ``spinrep.twisted_adjoint_matrix`` take the kernel
where ``clifford._kernel_pays``: from ``clifford._ARRAY_PAIRS`` term pairs on,
in algebras with no more blades than pairs.  These tests overrule that choice
to run one input both ways and ask for the same terms in the same order, each
coefficient of the same type and, for floats, the same bytes.
"""

import json
import math
import os
import random
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from spingeo import clifford, spinrep
from spingeo.clifford import QI, Multivector, Signature

SRC = Path(__file__).resolve().parent.parent / "src"


def kernel_always(left, right, n):
    return left * right > 0


def kernel_never(left, right, n):
    return False


def run_both_ways(f):
    """f() with the kernel for every product of at least one term pair, then with the loops only."""
    results = []
    for choice in (kernel_always, kernel_never):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(clifford, "_kernel_pays", choice)
            results.append(f())
    return results


def coefficient_bytes(c):
    if type(c) is complex:
        return struct.pack("<dd", c.real, c.imag)  # -0.0 differs from 0.0
    if type(c) is QI:
        return (c.re.numerator, c.re.denominator, c.im.numerator, c.im.denominator)
    return (c.numerator, c.denominator)


def assert_same_terms(got: dict, want: dict):
    assert list(got) == list(want)  # the loop's order of first touch
    assert [(type(c), coefficient_bytes(c)) for c in got.values()] == [
        (type(c), coefficient_bytes(c)) for c in want.values()
    ]


# -- coefficients: one kind per factor ------------------------------------------

#: whole numbers and signed zeros among the floats, so sums can cancel exactly
#: and the sign of a zero sum shows
floats = st.one_of(
    st.floats(-4, 4, allow_nan=False), st.sampled_from((0.0, -0.0, 1.0, -1.0, 2.0, 0.5))
)
complexes = st.builds(complex, floats, floats)
fractions = st.fractions(min_value=-5, max_value=5, max_denominator=12)
gaussians = st.builds(QI, fractions, fractions)

KINDS = {
    "complex": complexes,
    "Fraction": fractions,
    "QI": gaussians,
    "int and Fraction": st.one_of(st.integers(-6, 6), fractions),
    "int, Fraction and QI": st.one_of(st.integers(-6, 6), fractions, gaussians),
}

SPECIAL = (0.0, -0.0, 1.0, -1.0, 0.5)


def dense_value(kind: str, rng: random.Random):
    """One coefficient of ``kind`` from a seeded stream, for factors holding every blade."""
    def real():
        return rng.choice(SPECIAL) if rng.random() < 0.3 else rng.uniform(-3, 3)

    def rational():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 9))

    if kind == "complex":
        return complex(real(), real())
    if kind == "QI" or (kind == "int, Fraction and QI" and rng.random() < 0.5):
        return QI(rational(), rational())
    return rational() if kind == "Fraction" or rng.random() < 0.5 else rng.randint(-6, 6)


@st.composite
def factor(draw, sig: Signature, kind: str):
    """Sparse (at most 16 terms) or dense (every blade of Cl(p, q)) terms of one kind."""
    if draw(st.booleans()):
        return draw(st.dictionaries(st.integers(0, (1 << sig.n) - 1), KINDS[kind], max_size=16))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return {blade: dense_value(kind, rng) for blade in range(1 << sig.n)}


@st.composite
def products(draw):
    n = draw(st.integers(0, 8))
    p = draw(st.integers(0, n))
    sig = Signature(p, n - p)
    kind = draw(st.sampled_from(sorted(KINDS)))
    return Multivector(sig, draw(factor(sig, kind))), Multivector(sig, draw(factor(sig, kind)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(products())
def test_kernel_products_match_the_loop_term_for_term(ab):
    a, b = ab
    for x, y in ((a, b), (b, a)):
        got, want = run_both_ways(lambda: (x * y).terms)
        assert_same_terms(got, want)


def check_dense_product_at_n8(kind: str):
    rng = random.Random(8)
    sig = Signature(3, 5)
    a, b = (Multivector(sig, {k: dense_value(kind, rng) for k in range(256)}) for _ in range(2))
    got, want = run_both_ways(lambda: (a * b).terms)
    assert len(want) == 256
    assert_same_terms(got, want)


def test_dense_complex_product_at_n8_matches_the_loop():
    check_dense_product_at_n8("complex")


@pytest.mark.parametrize("kind", ["Fraction", "QI", "int and Fraction", "int, Fraction and QI"])
def test_dense_exact_product_at_n8_matches_the_loop(kind):
    # the dense n = 8 exact factors the property above once drew at random, one fixed pair per kind
    check_dense_product_at_n8(kind)


# -- the threshold: above it no loop runs, below it no kernel --------------------

def refuse(*args):
    raise AssertionError("this path should not run")


#: nonzero coefficients for blade k, so a factor keeps every term it is given
NONZERO = {"complex": lambda k: complex(k + 1, -0.5), "Fraction": lambda k: Fraction(k + 1, 3),
           "QI": lambda k: QI(Fraction(k + 1, 3), 1)}


def first_blades(sig: Signature, kind: str, count: int) -> Multivector:
    return Multivector(sig, {k: NONZERO[kind](k) for k in range(count)})


@pytest.mark.parametrize("kind", ["complex", "Fraction", "QI"])
def test_products_from_the_threshold_on_never_enter_the_loops(monkeypatch, kind):
    sig = Signature(4, 2)
    a, b = first_blades(sig, kind, 64), first_blades(sig, kind, 8)
    assert len(a.terms) * len(b.terms) == clifford._ARRAY_PAIRS
    monkeypatch.setattr(clifford, "_loop_product", refuse)
    monkeypatch.setattr(clifford, "_numerator_loop", refuse)
    assert (a * b).terms and (b * a).terms


@pytest.mark.parametrize("kind", ["complex", "Fraction", "QI"])
def test_products_below_the_threshold_never_enter_the_kernel(monkeypatch, kind):
    sig = Signature(4, 2)
    a, b = first_blades(sig, kind, 63), first_blades(sig, kind, 8)
    assert len(a.terms) * len(b.terms) < clifford._ARRAY_PAIRS
    monkeypatch.setattr(clifford, "_pair_sums", refuse)
    assert (a * b).terms and (b * a).terms


def test_sparse_products_in_large_algebras_keep_the_loop(monkeypatch):
    # 40 x 40 terms of Cl(20, 0): 1,600 pairs, but 2^20 blades; the loop is faster there
    rng = random.Random(20)
    sig = Signature(20, 0)
    a, b = (Multivector(sig, {rng.randrange(1 << 20): complex(k + 1, 1) for k in range(40)}) for _ in range(2))
    assert len(a.terms) * len(b.terms) >= clifford._ARRAY_PAIRS
    got, want = run_both_ways(lambda: (a * b).terms)
    assert_same_terms(got, want)
    monkeypatch.setattr(clifford, "_pair_sums", refuse)
    assert_same_terms((a * b).terms, want)


def test_spin8_twisted_adjoint_never_enters_the_loops(monkeypatch):
    rng = random.Random(8)
    sig = Signature(8, 0)
    x = Multivector.scalar(complex(1.0), sig)
    for _ in range(8):
        v = [rng.gauss(0, 1) for _ in range(8)]
        x = x * Multivector.vector([complex(c / math.hypot(*v)) for c in v], sig)
    want = spinrep.twisted_adjoint_matrix(x)
    monkeypatch.setattr(clifford, "_loop_product", refuse)
    monkeypatch.setattr(spinrep, "_twisted_loop", refuse)
    assert spinrep.twisted_adjoint_matrix(x).tobytes() == want.tobytes()


# -- exact numerators: int64 where every sum fits, the loop beyond ---------------

#: the largest numerator M with 2 · 32 · M² < 2^63: a dense n = 5 product of
#: numerators ±M stays on int64, and M + 1 falls back to Python ints
EDGE = math.isqrt((1 << 63) // 64 - 1)


def edge_factors(kind, m: int, seed: int):
    rng = random.Random(seed)
    sig = Signature(2, 3)

    def value():
        if kind is QI:
            return QI(rng.choice((m, -m)), rng.choice((m, -m)))
        return Fraction(rng.choice((m, -m)))

    return (Multivector(sig, {k: value() for k in range(32)}) for _ in range(2))


@pytest.mark.parametrize("kind", [Fraction, QI])
def test_numerators_at_the_int64_edge_stay_on_the_kernel(monkeypatch, kind):
    a, b = edge_factors(kind, EDGE, 5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(clifford, "_kernel_pays", kernel_never)
        want = (a * b).terms
    assert max(abs(v) for c in want.values() for v in ((c.re, c.im) if kind is QI else (c,))) > 2**58
    monkeypatch.setattr(clifford, "_numerator_loop", refuse)
    assert_same_terms((a * b).terms, want)


@pytest.mark.parametrize("kind", [Fraction, QI])
def test_numerators_beyond_int64_fall_back_to_the_loop(monkeypatch, kind):
    a, b = edge_factors(kind, EDGE + 1, 6)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(clifford, "_kernel_pays", kernel_never)
        want = (a * b).terms
    monkeypatch.setattr(clifford, "_pair_sums", refuse)
    assert_same_terms((a * b).terms, want)


def test_big_denominators_fall_back_to_the_loop(monkeypatch):
    sig = Signature(3, 2)
    primes = (1_000_003, 998_244_353, 2_147_483_647)
    a = Multivector(sig, {k: Fraction(k + 1, primes[k % 3]) for k in range(32)})
    b = Multivector(sig, {k: Fraction(3 - k, primes[(k + 1) % 3]) for k in range(32)})
    got, want = run_both_ways(lambda: (a * b).terms)
    assert_same_terms(got, want)
    monkeypatch.setattr(clifford, "_pair_sums", refuse)
    assert_same_terms((a * b).terms, want)


# -- numpy stays out of small products -------------------------------------------

def test_numpy_loads_only_for_a_product_above_the_threshold():
    code = """
import json, sys
from spingeo.clifford import Multivector, Signature
sig = Signature(4, 2)
small = Multivector(sig, {k: complex(k, 1) for k in range(8)})
loaded = ["numpy" in sys.modules]
small * small
loaded.append("numpy" in sys.modules)
big = Multivector(sig, {k: complex(k, 1) for k in range(64)})
big * big
loaded.append("numpy" in sys.modules)
print(json.dumps(loaded))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, False, True]
