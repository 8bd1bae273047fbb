import functools
import itertools
import math
import random
from fractions import Fraction
from math import comb, factorial

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from spingeo import chern_weil
from spingeo.chern_weil import (
    PI,
    CurvatureModel,
    FormMatrix,
    FormPoly,
    PiLaurent,
    _is_zero,
    _power_sums,
    _trace_product,
    bernoulli,
    curvature_model,
    form_pfaffian,
    form_tr,
    genus_eval,
    genus_expand,
    integrate_top,
    model_from_dict,
    product_model,
    taylor_series,
)
from spingeo.clifford import QI


# -- the reference: det f(X), det^{1/2} f(X) and tr exp(X) from the matrix f(X) --
#
# genus_eval computes every genus from the power sums tr X^k.  These build
# the matrix f(X) = Σ a_k X^k and expand its determinant by cofactors (each
# minor once: 2^n minors, not n! terms), the definitions themselves, and the
# property tests compare the two.

def form_det(M: FormMatrix) -> FormPoly:
    """Determinant by cofactor expansion along the first row (entries commute)."""

    @functools.cache
    def det(cols):  # the minor on the last len(cols) rows and these columns
        row = M.entries[M.n - len(cols)]
        if len(cols) == 1:
            return row[cols[0]]
        acc = FormPoly(M.m)
        for pos, c in enumerate(cols):
            if not row[c].terms:
                continue  # a zero entry's cofactor term is zero
            term = row[c] * det(cols[:pos] + cols[pos + 1 :])
            acc = acc + (term if pos % 2 == 0 else -term)
        return acc

    return det(tuple(range(M.n)))


def form_det_sqrt(M: FormMatrix) -> FormPoly:
    """Square root of det(M) with constant term fixed to 1."""
    d = form_det(M)
    if not _is_zero(d.constant() - 1):
        raise ValueError("det must have constant term 1 for the square root")
    u = d - 1  # nilpotent
    acc = FormPoly.scalar(1, M.m)
    power = FormPoly.scalar(1, M.m)
    for k in range(1, M.m // 2 + 1):
        power = power * u
        if power.is_zero():
            break
        # binomial series sqrt(1+u): C(1/2, k) = (-1)^{k-1} C(2k,k) / (4^k (2k-1))
        binom = Fraction((-1) ** (k - 1) * comb(2 * k, k), 4**k * (2 * k - 1))
        acc = acc + power * binom
    return acc


def form_exp(M: FormMatrix) -> FormMatrix:
    """exp(M) for a matrix with positive-degree entries (nilpotent)."""
    return apply_series(taylor_series("chern_char", M.m), M)


def apply_series(coeffs: list[Fraction], X: FormMatrix) -> FormMatrix:
    """Σ a_k X^k, truncated by nilpotency of the positive-degree entries."""
    acc = FormMatrix.identity(X.n, X.m).scale(coeffs[0])
    power = FormMatrix.identity(X.n, X.m)
    for k in range(1, len(coeffs)):
        power = power @ X
        if all(e.is_zero() for row in power.entries for e in row):
            break
        if coeffs[k] != 0:
            acc = acc + power.scale(coeffs[k])
    return acc


def reference_genus(name: str, F: FormMatrix) -> FormPoly:
    """The named series genus of F from the matrix f(X), X = (i/2π) F, exactly."""
    X = F.scale(PiLaurent({-1: QI(0, Fraction(1, 2))}))
    if name == "chern_char":
        return form_tr(form_exp(X))
    fX = apply_series(taylor_series(name, F.m + 1), X)
    return form_det(fX) if name in ("chern", "todd") else form_det_sqrt(fX)


class TestBernoulli:
    def test_known_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(3) == 0
        assert bernoulli(4) == Fraction(-1, 30)
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bernoulli(-1)


def _one(k: int) -> int:
    """The coefficients of the series 1."""
    return int(k == 0)


def _even(term):
    """The coefficients Σ term(k) x^k over even k only."""
    return lambda k: term(k) if k % 2 == 0 else 0


class TestTaylorSeries:
    def test_ahat_coefficients(self):
        s = taylor_series("ahat", 4)
        assert s[:5] == [Fraction(1), 0, Fraction(-1, 24), 0, Fraction(7, 5760)]

    def test_lgenus_coefficients(self):
        s = taylor_series("lgenus", 4)
        assert s[:5] == [Fraction(1), 0, Fraction(1, 3), 0, Fraction(-1, 45)]

    def test_todd_coefficients(self):
        s = taylor_series("todd", 4)
        assert s[:5] == [Fraction(1), Fraction(1, 2), Fraction(1, 12), 0, Fraction(-1, 720)]

    def test_todd_matches_bernoulli(self):
        # x/(1-e^{-x}) = sum B_k^+ x^k/k! with B_1^+ = +1/2
        s = taylor_series("todd", 8)
        for k in range(9):
            expected = abs(bernoulli(k)) if k == 1 else bernoulli(k)
            assert s[k] == expected / factorial(k)

    def test_chern_char_is_exp(self):
        assert taylor_series("chern_char", 5) == [Fraction(1, factorial(k)) for k in range(6)]

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            taylor_series("elliptic")

    @pytest.mark.parametrize("name", ["ahat", "todd", "lgenus", "chern", "pontryagin", "chern_char"])
    def test_negative_order_rejected(self, name):
        with pytest.raises(ValueError, match="nonnegative"):
            taylor_series(name, -1)

    @pytest.mark.parametrize(
        "name, other, product",
        [
            ("todd", lambda k: Fraction((-1) ** k, factorial(k + 1)), _one),  # (1 - e^{-x})/x
            ("ahat", _even(lambda k: Fraction(1, 2**k * factorial(k + 1))), _one),  # sinh(x/2)/(x/2)
            ("lgenus", _even(lambda k: Fraction(1, factorial(k + 1))), _even(lambda k: Fraction(1, factorial(k)))),
            ("chern", _one, lambda k: int(k <= 1)),
            ("pontryagin", _one, lambda k: int(k in (0, 2))),
        ],
    )
    def test_series_satisfy_their_defining_identities(self, name, other, product):
        # f · g = h through x^20 with g, h from factorials alone, independent of bernoulli:
        # todd·(1 - e^{-x})/x = 1, ahat·sinh(x/2)/(x/2) = 1, lgenus·sinh(x)/x = cosh(x),
        # chern = 1 + x and pontryagin = 1 + x^2
        order = 20
        f = taylor_series(name, order)
        for k in range(order + 1):
            assert sum(f[j] * other(k - j) for j in range(k + 1)) == product(k), (name, k)


class TestGenusExpand:
    def test_ahat_in_pontryagin_classes(self):
        got = genus_expand("ahat")
        assert got["1"] == 1
        assert got["p1"] == Fraction(-1, 24)
        assert got["p1^2"] == Fraction(7, 5760)
        assert got["p2"] == Fraction(-1, 1440)

    def test_lgenus_in_pontryagin_classes(self):
        got = genus_expand("lgenus")
        assert got["p1"] == Fraction(1, 3)
        assert got["p1^2"] == Fraction(-1, 45)
        assert got["p2"] == Fraction(7, 45)

    @pytest.mark.parametrize("name", ["todd", "chern", "chern_char"])
    def test_series_that_is_not_even_rejected(self, name):
        # Π f(x_j) is a polynomial in the Pontryagin classes only for an even f
        with pytest.raises(ValueError, match="not an even series"):
            genus_expand(name)


PROPERTY_SETTINGS = settings(max_examples=100, deadline=None)

fractions = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
gaussian_rationals = st.builds(QI, fractions, fractions)
pi_laurents = st.dictionaries(st.integers(-4, 4), gaussian_rationals, max_size=4).map(PiLaurent)
pi_monomials = st.builds(lambda k, c: PiLaurent({k: c}), st.integers(-4, 4), gaussian_rationals)


def same_number(a, b) -> bool:
    return sympy.expand(sympy.sympify(a) - sympy.sympify(b)) == 0


class TestPiLaurent:
    """The exact ring Q(i)[π, π⁻¹] against sympy, which it replaces for numbers."""

    @PROPERTY_SETTINGS
    @given(pi_laurents, pi_laurents, fractions)
    def test_ring_operations_agree_with_sympy(self, a, b, q):
        sa, sb, sq = a._sympy_(), b._sympy_(), sympy.Rational(q.numerator, q.denominator)
        assert same_number((a + b)._sympy_(), sa + sb)
        assert same_number((a - b)._sympy_(), sa - sb)
        assert same_number((a * b)._sympy_(), sa * sb)
        assert same_number((-a)._sympy_(), -sa)
        assert same_number((a * q)._sympy_(), sa * sq) and same_number((q - a)._sympy_(), sq - sa)

    @PROPERTY_SETTINGS
    @given(pi_laurents)
    def test_str_parses_back_to_the_same_expression(self, x):
        assert sympy.sympify(str(x)) == x._sympy_()

    @PROPERTY_SETTINGS
    @given(pi_monomials)
    def test_one_term_prints_as_sympy_prints_it(self, x):
        assert str(x) == str(x._sympy_())

    @PROPERTY_SETTINGS
    @given(gaussian_rationals, pi_laurents)
    def test_constants_equal_and_hash_as_their_value(self, c, x):
        const = PiLaurent({0: c})
        assert const == c and hash(const) == hash(c)
        if c.im == 0:
            assert const == c.re and hash(const) == hash(c.re)
        assert (x == c) == (x - c == 0) == (str(x) == str(const))

    @PROPERTY_SETTINGS
    @given(pi_laurents)
    def test_sympy_operands_take_over(self, x):
        s = sympy.Symbol("s")
        for got, want in ((x * s, x._sympy_() * s), (s * x, s * x._sympy_()), (x + s, x._sympy_() + s),
                          (x - s, x._sympy_() - s), (s - x, s - x._sympy_())):
            assert isinstance(got, sympy.Basic) and same_number(got, want)

    def test_printed_values(self):
        half = Fraction(1, 2)
        assert str(PiLaurent({-1: half})) == "1/(2*pi)"
        assert str(12 * PiLaurent({-2: 1})) == "12/pi**2"
        assert str(PiLaurent({-2: Fraction(1, 324)})) == "1/(324*pi**2)"
        assert str(PI * PiLaurent({-1: 2})) == "2"
        assert str(PI - PI) == "0"
        assert str(PiLaurent({-1: QI(0, half)})) == "I/(2*pi)"

    def test_compares_with_numbers_exactly(self):
        two = PI * PiLaurent({-1: 2})
        assert two == 2 and not two != 2 and two == Fraction(2) and two == QI(2) and two == 2.0
        assert PI != 0 and PI != 3.141592653589793 and PI - PI == 0
        assert complex(PI) == complex(3.141592653589793)
        assert PI * 1.0 == 3.141592653589793
        assert {two: "x"}[2] == "x"

    def test_gaussian_rational_on_the_left_stays_exact(self):
        # QI leaves an operand it does not know to that operand's reflected method
        assert QI(1) * PI == PI * QI(1) and isinstance(QI(1) * PI, PiLaurent)
        assert QI(1, 1) + PI == PI + QI(1, 1) and QI(2) - PI == -(PI - 2)
        assert isinstance(QI(1) * 1.0, complex) and isinstance(QI(1) + 1j, complex)
        a = sympy.Symbol("a")
        assert QI(1, 2) * a == a * QI(1, 2) == (1 + 2 * sympy.I) * a


class TestFormPoly:
    def test_anticommuting_generators(self):
        e1 = FormPoly.monomial((1,), 3)
        e2 = FormPoly.monomial((2,), 3)
        assert e1 * e2 == -(e2 * e1)
        assert (e1 * e1).is_zero()

    def test_even_forms_commute(self):
        rng = random.Random(13)
        m = 6
        for _ in range(20):
            a = FormPoly(m, {rng.randrange(1 << m): rng.randint(-3, 3) for _ in range(3)})
            b = FormPoly(m, {rng.randrange(1 << m): rng.randint(-3, 3) for _ in range(3)})
            a = sum((a.degree_part(d) for d in range(0, m + 1, 2)), FormPoly(m))
            b = sum((b.degree_part(d) for d in range(0, m + 1, 2)), FormPoly(m))
            assert a * b == b * a

    def test_truncation_kills_high_degree(self):
        e12 = FormPoly.monomial((1, 2), 2)
        assert (e12 * e12).is_zero()

    def test_coefficient_lookup(self):
        p = FormPoly.monomial((1, 3), 4, 5) + 2
        assert p.coefficient((1, 3)) == 5
        assert p.constant() == 2
        assert p.top_coefficient() == 0

    def test_repeated_generator_rejected(self):
        with pytest.raises(ValueError):
            FormPoly.monomial((1, 1), 3)

    def test_sympy_coefficients(self):
        x = sympy.Symbol("x")
        p = FormPoly.monomial((1, 2), 2, x) - FormPoly.monomial((1, 2), 2, x)
        assert p.is_zero()


class TestFormMatrixOps:
    def test_det_of_identity(self):
        assert form_det(FormMatrix.identity(3, 4)) == FormPoly.scalar(1, 4)

    def test_det_2x2_with_forms(self):
        m = 4
        u = FormPoly.monomial((1, 2), m)
        M = FormMatrix.identity(2, m)
        M.entries[0][0] = M.entries[0][0] + u
        # det = (1+u)*1 = 1 + u
        assert form_det(M) == FormPoly.scalar(1, m) + u

    def test_det_sqrt_squares_back(self):
        m = 6
        u = FormPoly.monomial((1, 2), m, Fraction(1, 3))
        v = FormPoly.monomial((3, 4), m, Fraction(-2, 5))
        M = FormMatrix.identity(2, m)
        M.entries[0][0] = M.entries[0][0] + u
        M.entries[1][1] = M.entries[1][1] + v
        s = form_det_sqrt(M)
        assert s * s == form_det(M)

    def test_det_sqrt_needs_unit_constant(self):
        M = FormMatrix.identity(2, 2).scale(2)
        with pytest.raises(ValueError):
            form_det_sqrt(M)

    @staticmethod
    def _random_form_matrix(rng, n, m, zero_share):
        """n x n matrix of scalar-plus-2-form entries, some entries zero."""
        entries = []
        for _ in range(n):
            row = []
            for _ in range(n):
                if rng.random() < zero_share:
                    row.append(FormPoly(m))
                    continue
                pair = tuple(sorted(rng.sample(range(1, m + 1), 2)))
                entry = FormPoly.scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), m)
                row.append(entry + FormPoly.monomial(pair, m, Fraction(rng.randint(-3, 3), 2)))
            entries.append(row)
        return FormMatrix(entries)

    def test_det_matches_leibniz_with_zero_entries(self):
        rng = random.Random(11)
        m = 6
        for _ in range(5):
            M = self._random_form_matrix(rng, 4, m, zero_share=0.4)
            leibniz = FormPoly(m)
            for perm in itertools.permutations(range(4)):
                inversions = sum(1 for i, j in itertools.combinations(range(4), 2) if perm[i] > perm[j])
                term = FormPoly.scalar(-1 if inversions % 2 else 1, m)
                for row, col in enumerate(perm):
                    term = term * M.entries[row][col]
                leibniz = leibniz + term
            assert form_det(M) == leibniz

    def test_block_diagonal_det_is_product_of_block_dets(self):
        rng = random.Random(5)
        m = 8
        A = self._random_form_matrix(rng, 3, m, zero_share=0.2)
        B = self._random_form_matrix(rng, 5, m, zero_share=0.2)
        M = FormMatrix.zero(8, m)
        for i in range(3):
            for j in range(3):
                M.entries[i][j] = A.entries[i][j]
        for i in range(5):
            for j in range(5):
                M.entries[3 + i][3 + j] = B.entries[i][j]
        det = form_det(M)
        assert not det.is_zero()
        assert det == form_det(A) * form_det(B)

    def test_trace_of_antisymmetric_vanishes(self):
        F = curvature_model("sphere4").F
        assert form_tr(F).is_zero()

    def test_exp_of_nilpotent(self):
        m = 4
        N = FormMatrix.zero(2, m)
        N.entries[0][1] = FormPoly.monomial((1, 2), m)
        E = form_exp(N)
        assert E.entries[0][0] == FormPoly.scalar(1, m)
        assert E.entries[0][1] == N.entries[0][1]
        assert E.entries[1][0].is_zero()

    def test_products_skip_the_validating_constructor(self, monkeypatch):
        # a product's masks are in range by construction: FormPoly._make only prunes zeros
        rng = random.Random(21)
        M = self._random_form_matrix(rng, 4, 6, zero_share=0.3)
        p, q = M.entries[0][0], M.entries[1][2]
        want = [
            [[FormPoly(6, e.terms) for e in row] for row in (M @ M).entries],
            FormPoly(6, _trace_product(M, M).terms),
            *(FormPoly(6, r.terms) for r in (p * q, p * 3, 3 * p, p * 0)),
        ]
        calls = [0]
        init = FormPoly.__init__

        def counting_init(self, *args):
            calls[0] += 1
            init(self, *args)

        monkeypatch.setattr(FormPoly, "__init__", counting_init)
        got = [(M @ M).entries, _trace_product(M, M), p * q, p * 3, 3 * p, p * 0]
        assert calls[0] == 0
        assert [[e.terms for e in row] for row in got[0]] == [[e.terms for e in row] for row in want[0]]
        assert [r.terms for r in got[1:]] == [r.terms for r in want[1:]]
        assert not got[-1].terms


class TestPfaffian:
    def test_2x2(self):
        m = 2
        a = FormPoly.monomial((1, 2), m, 3)
        A = FormMatrix.zero(2, m)
        A.entries[0][1] = a
        A.entries[1][0] = -a
        assert form_pfaffian(A) == a

    def test_squares_to_det_4x4(self):
        rng = random.Random(21)
        m = 8
        A = FormMatrix.zero(4, m)
        gens = [(1, 2), (3, 4), (5, 6), (7, 8), (1, 4), (2, 3)]
        k = 0
        for i in range(4):
            for j in range(i + 1, 4):
                c = FormPoly.monomial(gens[k], m, Fraction(rng.randint(-3, 3)))
                A.entries[i][j] = c
                A.entries[j][i] = -c
                k += 1
        pf = form_pfaffian(A)
        assert pf * pf == form_det(A)

    def test_scaling_homogeneity(self):
        # Pf(λA) = λ^{n/2} Pf(A) for 4x4
        m = 8
        A = FormMatrix.zero(4, m)
        pairs = [(1, 2), (3, 4), (5, 6), (7, 8), (1, 6), (2, 5)]
        k = 0
        for i in range(4):
            for j in range(i + 1, 4):
                c = FormPoly.monomial(pairs[k], m, k + 1)
                A.entries[i][j] = c
                A.entries[j][i] = -c
                k += 1
        assert form_pfaffian(A.scale(3)) == form_pfaffian(A) * 9

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError):
            form_pfaffian(FormMatrix.zero(3, 2))

    def test_non_antisymmetric_rejected(self):
        with pytest.raises(ValueError):
            form_pfaffian(FormMatrix.identity(2, 2))


@st.composite
def curvatures(draw, antisymmetric: bool, even: bool = False):
    """Random exact curvature of 2- and 4-forms: n ≤ 8 (even n if asked), 2 ≤ m ≤ 8.

    The matrix comes from a drawn seed: hypothesis's own draws repeat one
    monomial in every entry, where all products vanish.  Entries are zero
    with a drawn share, else 1–3 terms; the coefficients are nonzero ints,
    Fractions, Gaussian rationals (QI) or PiLaurents, one kind as drawn.
    """
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(("int", "Fraction", "QI", "PiLaurent")))
    n = 2 * rng.randint(1, 4) if even else rng.randint(1, 8)
    m = rng.randint(2, 8)
    masks = [mask for mask in range(1, 1 << m) if mask.bit_count() in (2, 4)]
    zero_share = rng.choice((0.0, 0.3, 0.6))

    def coefficient():
        q = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
        if kind == "int":
            return q.numerator
        if kind == "Fraction":
            return q
        gauss = QI(q, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        return gauss if kind == "QI" else PiLaurent({rng.randint(-2, 2): gauss, rng.randint(-2, 2): q})

    F = FormMatrix.zero(n, m)
    for i in range(n):
        for j in range(i + 1 if antisymmetric else 0, n):
            if rng.random() >= zero_share:
                F.entries[i][j] = FormPoly(m, {rng.choice(masks): coefficient() for _ in range(rng.randint(1, 3))})
                if antisymmetric:
                    F.entries[j][i] = -F.entries[i][j]
    return F


def reference_is_antisymmetric(F: FormMatrix) -> bool:
    """F_ij + F_ji = 0 entry by entry, one coefficient sum per mask, as the check once read."""
    e = F.entries
    pairs = ((e[i][j].terms, e[j][i].terms) for i in range(F.n) for j in range(i, F.n))
    return all(all(_is_zero(c + b.get(k, 0)) for k, c in a.items())
               and all(k in a or _is_zero(c) for k, c in b.items()) for a, b in pairs)


COEFFICIENT_KINDS = {
    "int": lambda k: 2 * k - 5,
    "Fraction": lambda k: Fraction(2 * k - 5, 3),
    "QI": lambda k: QI(Fraction(k, 2), -k),
    "PiLaurent": lambda k: PiLaurent({-1: QI(k, 1), 2: QI(Fraction(1, k))}),
    "float": lambda k: 0.1 * k,
    "complex": lambda k: complex(0.1 * k, -k),
    "nan": lambda k: math.nan if k == 3 else 0.1 * k,
    "inf": lambda k: math.inf if k == 3 else 0.1 * k,
    "complex inf": lambda k: complex(1.5, -math.inf) if k == 3 else complex(k, 1),
}


class TestIsAntisymmetric:
    @staticmethod
    def _matrix(kind: str) -> FormMatrix:
        """4 x 4 with F_ji = -F_ij: one or two masks per entry above the diagonal, one entry zero."""
        coefficient, m = COEFFICIENT_KINDS[kind], 6
        F = FormMatrix.zero(4, m)
        k = 0
        for i, j in itertools.combinations(range(4), 2):
            if (i, j) != (1, 3):
                k += 1
                F.entries[i][j] = FormPoly(m, {3 << i: coefficient(k), 1 << i | 1 << (j + 2): coefficient(k + 7)})
                F.entries[j][i] = -F.entries[i][j]
        return F

    @pytest.mark.parametrize("kind", COEFFICIENT_KINDS)
    def test_same_verdict_as_the_coefficient_sums(self, kind):
        F = self._matrix(kind)
        assert F.is_antisymmetric() == reference_is_antisymmetric(F) == (kind not in ("nan", "inf", "complex inf"))
        e, m = F.entries, F.m
        mutants = []
        for i, j, entry in [
            (2, 0, e[2][0] * 2),  # a mirror that is not the negative
            (2, 0, e[2][0] + FormPoly.monomial((5, 6), m, COEFFICIENT_KINDS[kind](1))),  # an extra mask
            (2, 0, FormPoly(m, dict(list(e[2][0].terms.items())[:1]))),  # a missing mask
            (3, 1, FormPoly.monomial((1, 2), m, COEFFICIENT_KINDS[kind](2))),  # a mirror of a zero entry
            (1, 1, FormPoly.monomial((3, 4), m, COEFFICIENT_KINDS[kind](4))),  # a diagonal entry
        ]:
            G = FormMatrix([list(row) for row in e])
            G.entries[i][j] = entry
            mutants.append(G)
        for G in mutants:
            assert G.is_antisymmetric() is reference_is_antisymmetric(G) is False

    @settings(max_examples=60, deadline=None)
    @given(st.booleans().flatmap(lambda skew: curvatures(antisymmetric=skew)))
    def test_same_verdict_on_drawn_curvatures(self, F):
        assert F.is_antisymmetric() == reference_is_antisymmetric(F)


class TestPowerSumsAgainstReference:
    """genus_eval, which scales F only at the end, equals the definitions on (i/2π)F term by term."""

    @staticmethod
    def _check(name, F):
        got = genus_eval(name, F)
        assert got.terms == reference_genus(name, F).terms
        assert all(isinstance(c, PiLaurent) for mask, c in got.terms.items() if mask)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(("chern", "todd", "chern_char", "pontryagin", "lgenus", "ahat")),
           curvatures(antisymmetric=True))
    def test_antisymmetric_curvature(self, name, F):
        self._check(name, F)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(("chern", "todd", "chern_char")), curvatures(antisymmetric=False))
    def test_general_curvature_unitary_family(self, name, F):
        self._check(name, F)

    @settings(max_examples=60, deadline=None)
    @given(curvatures(antisymmetric=True, even=True))
    def test_euler_class(self, F):
        want = form_pfaffian(F.scale(PiLaurent({-1: Fraction(1, 2)})))
        assert genus_eval("euler", F).terms == want.terms

    @pytest.mark.parametrize("m, products", [(2, 0), (4, 0), (6, 1), (8, 1), (10, 2), (12, 2)])
    def test_power_sums_form_half_the_powers(self, monkeypatch, m, products):
        # tr X^k = tr(X^⌈k/2⌉ X^⌊k/2⌋): only X², …, X^⌈m/4⌉ are full products
        F = FormMatrix.zero(3, m)
        for i, j in itertools.product(range(3), repeat=2):
            F.entries[i][j] = FormPoly(m, {0b11 << 2 * k: (i + 2 * j + k) % 5 - 2 for k in range(m // 2)})
        calls = [0]
        matmul = FormMatrix.__matmul__

        def counting_matmul(self, other):
            calls[0] += 1
            return matmul(self, other)

        monkeypatch.setattr(FormMatrix, "__matmul__", counting_matmul)
        sums = _power_sums(F, 1)
        assert calls[0] == products and len(sums) == m // 2
        power = F
        for p in sums:  # against the powers formed one by one
            assert p.terms == form_tr(power).terms
            power = matmul(power, F)


ALL_GENERA = ("chern", "todd", "chern_char", "pontryagin", "lgenus", "ahat", "euler")


def generic_curvature() -> FormMatrix:
    """Antisymmetric 4×4 curvature on m = 4 generators: every 2- and 4-form, seeded nonzero rationals."""
    rng = random.Random(5)
    masks = [mask for mask in range(1, 16) if mask.bit_count() in (2, 4)]
    F = FormMatrix.zero(4, 4)
    for i in range(4):
        for j in range(i + 1, 4):
            F.entries[i][j] = FormPoly(4, {mask: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))
                                           for mask in masks})
            F.entries[j][i] = -F.entries[i][j]
    return F


def rational_matrix(n: int, seed: int, skew: bool = False) -> sympy.Matrix:
    """Seeded rational n×n matrix, zero on and below the diagonal (mirrored with a sign if skew)."""
    rng = random.Random(seed)
    A = sympy.zeros(n, n)
    for i in range(n):
        for j in range(i + 1, n):
            A[i, j] = sympy.Rational(rng.randint(-5, 5), rng.randint(1, 4))
            if skew:
                A[j, i] = -A[i, j]
    return A


def conjugate(F: FormMatrix, G: sympy.Matrix) -> FormMatrix:
    """G F G⁻¹ for an invertible rational matrix G, exactly."""
    g, ginv = ([[Fraction(int(x.p), int(x.q)) for x in row] for row in M.tolist()] for M in (G, G.inv()))
    n = F.n
    out = FormMatrix.zero(n, F.m)
    for i in range(n):
        for j in range(n):
            out.entries[i][j] = sum((F.entries[k][l] * (g[i][k] * ginv[l][j]) for k in range(n) for l in range(n)),
                                    FormPoly(F.m))
    return out


class TestGenusEval:
    def test_first_chern_part_is_trace(self):
        # degree-2 part of the total Chern class equals tr((i/2π)F)
        F = curvature_model("sphere2").F
        c = genus_eval("chern", F)
        X = F.scale(sympy.I / (2 * sympy.pi))
        assert c.degree_part(2) == form_tr(X).degree_part(2)

    def test_constant_terms_are_one(self):
        F = curvature_model("sphere4").F
        for name in ("chern", "todd", "pontryagin", "lgenus", "ahat"):
            assert sympy.simplify(genus_eval(name, F).constant() - 1) == 0

    def test_chern_char_constant_is_rank(self):
        F = curvature_model("sphere4").F
        assert genus_eval("chern_char", F).constant() == 4

    def test_on_family_rejects_non_antisymmetric(self):
        M = FormMatrix.identity(2, 2)
        M.entries[0][1] = FormPoly.monomial((1, 2), 2)
        with pytest.raises(ValueError):
            genus_eval("ahat", M)

    def test_unknown_genus(self):
        with pytest.raises(ValueError):
            genus_eval("witten", curvature_model("sphere2").F)

    def test_pontryagin_equals_sum_of_principal_minors(self):
        # p1(F) = e2(F/2π) = (1/4π²) Σ_{i<j} (F_ii∧F_jj − F_ij∧F_ji), symbolically
        # on a generic antisymmetric F: the determinant's side, with no trace
        m = 4
        a, b, c, d = sympy.symbols("a b c d")
        c01 = FormPoly.monomial((1, 2), m, a) + FormPoly.monomial((3, 4), m, d)
        c23 = FormPoly.monomial((3, 4), m, b)
        c02 = FormPoly.monomial((1, 3), m, c) + FormPoly.monomial((2, 4), m, a)
        F = FormMatrix.zero(4, m)
        for (i, j), entry in [((0, 1), c01), ((2, 3), c23), ((0, 2), c02)]:
            F.entries[i][j] = entry
            F.entries[j][i] = -entry
        p = genus_eval("pontryagin", F)
        e = F.entries
        minors = sum(
            (e[i][i] * e[j][j] - e[i][j] * e[j][i] for i, j in itertools.combinations(range(4), 2)),
            FormPoly(m),
        )
        lhs = p.degree_part(4)
        rhs = minors * (sympy.Rational(1, 4) / sympy.pi**2)
        assert any(sympy.expand(c) != 0 for c in lhs.terms.values())
        assert all(sympy.expand(c) == 0 for c in (lhs - rhs).terms.values())

    @pytest.mark.parametrize("name, bound", [("ahat", 10), ("euler", 10)], ids=["ahat", "euler"])
    def test_form_products_on_product_curvature(self, monkeypatch, name, bound):
        # matrix and trace products sum in place and skip zero entries, and
        # the Pfaffian expands each minor once: on the block-diagonal S⁴×S⁴
        # curvature Â takes 10 FormPoly products (the c^k scalings and exp)
        # and the Euler class 10 (entry × minor)
        F = product_model(curvature_model("sphere4"), curvature_model("sphere4")).F
        calls = [0]
        mul = FormPoly.__mul__

        def counting_mul(self, other):
            calls[0] += 1
            return mul(self, other)

        monkeypatch.setattr(FormPoly, "__mul__", counting_mul)
        top = genus_eval(name, F).top_coefficient()
        assert top == (PiLaurent({-4: Fraction(9, 16)}) if name == "euler" else 0)
        assert calls[0] <= bound

    @pytest.mark.parametrize("name", ALL_GENERA)
    def test_invariance_under_conjugation(self, name):
        # exactly, on a curvature whose genera have a nonzero 4-form part:
        # Q F Qᵀ for a Cayley rotation Q ∈ SO(4) (the O(n) family needs an
        # antisymmetric result, and Pf flips sign under reflections), and
        # U F U⁻¹ for a unit upper-triangular U, under which the U(n)
        # family and ch must not change either
        F = generic_curvature()
        want = genus_eval(name, F)
        assert want.degree_part(4)
        S = rational_matrix(4, 1, skew=True)
        conjugators = [(sympy.eye(4) - S) * (sympy.eye(4) + S).inv()]
        if name in ("chern", "todd", "chern_char"):
            conjugators.append(sympy.eye(4) + rational_matrix(4, 2))
        for G in conjugators:
            conj = conjugate(F, G)
            assert any(conj.entries[i][j] != F.entries[i][j] for i in range(4) for j in range(4))
            assert genus_eval(name, conj) == want

    @pytest.mark.parametrize("name", ["euler", "ahat", "todd", "chern_char"])
    def test_float_path_is_complex_and_matches_exact(self, name):
        # complex coefficients give complex values, within 1e-12 of the exact ones
        F = generic_curvature()
        as_complex = FormMatrix([[FormPoly(4, {k: complex(c) for k, c in e.terms.items()}) for e in row]
                                 for row in F.entries])
        value, exact = genus_eval(name, as_complex), genus_eval(name, F)
        assert exact.degree_part(4) and all(isinstance(c, complex) for mask, c in value.terms.items() if mask)
        for mask in value.terms.keys() | exact.terms.keys():
            want = complex(exact.terms.get(mask, 0))
            assert abs(complex(value.terms.get(mask, 0)) - want) <= 1e-12 * max(1.0, abs(want))


class TestCurvatureModels:
    def test_record_equality_repr_and_field_count(self):
        model = curvature_model("torus2")
        assert model == CurvatureModel("torus2", 2, model.F, model.volume)
        assert model != CurvatureModel("other", 2, model.F, model.volume) and model != curvature_model("sphere2")
        assert repr(model).startswith("CurvatureModel(name='torus2', n=2, F=")
        with pytest.raises(TypeError, match="takes 4 fields, got 3"):
            CurvatureModel("m", 2, model.F)

    def test_sphere2_curvature_entry(self):
        model = curvature_model("sphere2", r=sympy.Rational(1, 2))
        assert model.F.entries[0][1].coefficient((1, 2)) == 4
        assert sympy.simplify(model.volume - sympy.pi) == 0

    def test_euler_sphere2_is_two(self):
        for r in (sympy.Rational(1, 2), 1, 3):
            model = curvature_model("sphere2", r=r)
            e = genus_eval("euler", model.F)
            assert sympy.simplify(integrate_top(e, model) - 2) == 0

    def test_euler_torus_is_zero(self):
        model = curvature_model("torus2")
        assert integrate_top(genus_eval("euler", model.F), model) == 0

    def test_euler_product_of_spheres_is_four(self):
        model = product_model(curvature_model("sphere2"), curvature_model("sphere2", r=2))
        e = genus_eval("euler", model.F)
        assert sympy.simplify(integrate_top(e, model) - 4) == 0

    def test_euler_sphere4_is_two(self):
        model = curvature_model("sphere4")
        e = genus_eval("euler", model.F)
        assert sympy.simplify(integrate_top(e, model) - 2) == 0

    def test_ahat_sphere4_vanishes(self):
        model = curvature_model("sphere4", r=3)
        a = genus_eval("ahat", model.F)
        assert sympy.simplify(integrate_top(a, model)) == 0

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            curvature_model("hyperbolic2")


class TestSerialization:
    def test_model_from_dict_round_trip(self):
        data = {
            "name": "flatline",
            "n": 2,
            "entries": [
                [1, 2, [[[1, 2], "1/4"]]],
                [2, 1, [[[1, 2], "-1/4"]]],
            ],
            "volume": "16*pi",
        }
        model = model_from_dict(data)
        assert isinstance(model, CurvatureModel)
        assert model.F.is_antisymmetric()
        e = genus_eval("euler", model.F)
        assert sympy.simplify(integrate_top(e, model) - 2) == 0

    def test_n_is_bounded_before_the_matrix_is_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an oversized model file reached the build")

        monkeypatch.setattr(FormMatrix, "zero", refuse)
        for n in (chern_weil.MODEL_MAX_N + 1, 100_000):
            with pytest.raises(ValueError, match=f"n must be at most 14, not {n}$"):
                model_from_dict({"n": n, "entries": []})

    def test_a_model_at_the_n_limit_runs(self):
        # (S²)^7, the unit sphere's curvature in each block of two: χ = 2^7
        n, entries = chern_weil.MODEL_MAX_N, []
        for a in range(1, n, 2):
            entries += [[a, a + 1, [[[a, a + 1], 1]]], [a + 1, a, [[[a, a + 1], -1]]]]
        model = model_from_dict({"n": n, "entries": entries, "volume": "(4*pi)**7"})
        assert integrate_top(genus_eval("euler", model.F), model) == 128

    def test_defaults(self):
        model = model_from_dict({"n": 2})
        assert model.volume == 1
        assert integrate_top(genus_eval("euler", model.F), model) == 0

    @PROPERTY_SETTINGS
    @given(pi_laurents)
    def test_printed_numbers_parse_back_exactly(self, x):
        assert model_from_dict({"n": 1, "volume": str(x)}).volume == x
