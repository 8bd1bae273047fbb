"""Property-based tests of the Clifford algebra's value semantics and laws."""

import math
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from spingeo.clifford import QI, Multivector, Signature, blade_mul, format_mv, parse_mv, supercommutator

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)

signatures = st.integers(0, 4).flatmap(
    lambda n: st.integers(0, n).map(lambda p: Signature(p, n - p))
)


def blade_dicts(sig: Signature, values):
    return st.dictionaries(st.integers(0, (1 << sig.n) - 1), values, max_size=4)


#: the same small integer written as each coefficient type the algebra takes
AS_TYPES = (int, Fraction, QI, complex, float)

small_ints = st.integers(-6, 6)

exact_coeffs = st.one_of(
    small_ints,
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    st.builds(
        QI,
        st.fractions(min_value=-5, max_value=5, max_denominator=7),
        st.fractions(min_value=-5, max_value=5, max_denominator=7),
    ),
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False)

printable_coeffs = st.one_of(
    exact_coeffs,
    finite_floats,
    st.complex_numbers(allow_nan=False, allow_infinity=False),
)


@PROPERTY_SETTINGS
@given(
    signatures.flatmap(lambda s: st.tuples(st.just(s), blade_dicts(s, small_ints))),
    st.sampled_from(AS_TYPES),
    st.sampled_from(AS_TYPES),
)
def test_equal_values_hash_equal_across_coefficient_types(sig_terms, kind_a, kind_b):
    sig, terms = sig_terms
    a = Multivector(sig, {b: kind_a(c) for b, c in terms.items()})
    b = Multivector(sig, {b: kind_b(c) for b, c in terms.items()})
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@PROPERTY_SETTINGS
@given(signatures.flatmap(lambda s: st.tuples(st.just(s), blade_dicts(s, exact_coeffs))))
def test_exact_value_and_its_complex_copy_hash_alike(sig_terms):
    sig, terms = sig_terms
    exact = Multivector(sig, terms)
    floating = Multivector(sig, {b: complex(c) for b, c in terms.items()})
    assert exact == floating
    assert hash(exact) == hash(floating)


@PROPERTY_SETTINGS
@given(signatures.flatmap(lambda s: st.tuples(st.just(s), blade_dicts(s, printable_coeffs))))
def test_format_parse_round_trip(sig_terms):
    sig, terms = sig_terms
    mv = Multivector(sig, terms)
    assert parse_mv(format_mv(mv), sig) == mv


def test_exponent_floats_round_trip():
    sig = Signature(2, 0)
    for coeff in (1e-05, -1e-05, 1e16, complex(0, 3e-09), complex(-1e-05, 2e-07)):
        mv = Multivector.blade((1,), sig, coeff)
        assert parse_mv(format_mv(mv), sig) == mv
    assert parse_mv("3e1e2", sig) == Multivector.blade((1, 2), sig, 3)


def test_scalar_one_hashes_alike_for_int_and_complex():
    sig = Signature(1, 1)
    assert Multivector.scalar(1, sig) == Multivector.scalar(complex(1), sig)
    assert hash(Multivector.scalar(1, sig)) == hash(Multivector.scalar(complex(1), sig))


@PROPERTY_SETTINGS
@given(
    signatures.flatmap(
        lambda s: st.tuples(
            st.just(s), blade_dicts(s, exact_coeffs), blade_dicts(s, exact_coeffs), blade_dicts(s, exact_coeffs)
        )
    )
)
def test_exact_products_associate(sig_terms):
    sig, ta, tb, tc = sig_terms
    a, b, c = (Multivector(sig, t) for t in (ta, tb, tc))
    assert (a * b) * c == a * (b * c)


# -- the product kernel against a schoolbook product ---------------------------

def schoolbook_product(a: Multivector, b: Multivector) -> dict:
    """a * b blade by blade through blade_mul, in the product's loop order."""
    terms = {}
    for ba, ca in a.terms.items():
        for bb, cb in b.terms.items():
            sign, blade = blade_mul(ba, bb, a.signature)
            contrib = ca * cb if sign > 0 else -(ca * cb)
            terms[blade] = terms.get(blade, 0) + contrib
    return Multivector(a.signature, terms).terms


#: floats small enough that no product or sum overflows
bounded_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)

#: large primes, so the denominators of a factor share no factor
LARGE_PRIMES = (1_000_003, 998_244_353, 2_147_483_647, 10**18 + 9, 2**61 - 1)

big_fractions = st.builds(
    Fraction, st.integers(-(10**30), 10**30), st.sampled_from(LARGE_PRIMES)
)

mixed_coeffs = st.one_of(
    exact_coeffs,
    bounded_floats,
    st.builds(complex, bounded_floats, bounded_floats),
)

qi_coeffs = st.one_of(
    st.builds(QI, big_fractions, big_fractions),
    st.builds(QI, big_fractions),
    st.builds(QI, st.integers(-3, 3), big_fractions),
)

wide_signatures = st.integers(0, 6).flatmap(
    lambda n: st.integers(0, n).map(lambda p: Signature(p, n - p))
)


def operand_pairs(values):
    return wide_signatures.flatmap(
        lambda s: st.tuples(
            st.just(s),
            st.dictionaries(st.integers(0, (1 << s.n) - 1), values, max_size=8),
            st.dictionaries(st.integers(0, (1 << s.n) - 1), values, max_size=8),
        )
    )


def assert_same_terms(got: dict, want: dict):
    assert list(got) == list(want)
    for blade, value in want.items():
        assert type(got[blade]) is type(value), blade
        assert got[blade] == value, blade
        if isinstance(value, (float, complex)):
            assert repr(got[blade]) == repr(value), blade  # the same bits, -0.0 included


@PROPERTY_SETTINGS
@given(operand_pairs(mixed_coeffs))
def test_product_matches_schoolbook_on_mixed_coefficients(sig_terms):
    sig, ta, tb = sig_terms
    a, b = Multivector(sig, ta), Multivector(sig, tb)
    assert_same_terms((a * b).terms, schoolbook_product(a, b))


@PROPERTY_SETTINGS
@given(operand_pairs(qi_coeffs))
def test_product_matches_schoolbook_on_gaussian_rationals(sig_terms):
    sig, ta, tb = sig_terms
    a, b = Multivector(sig, ta), Multivector(sig, tb)
    assert_same_terms((a * b).terms, schoolbook_product(a, b))


def test_dense_exact_product_matches_schoolbook():
    sig = Signature(3, 2)
    a = Multivector(sig, {k: QI(Fraction(k + 1, 7), Fraction(-k, 11)) for k in range(32)})
    b = Multivector(sig, {k: QI(Fraction(3, 2 * k + 5)) for k in range(32)})
    assert_same_terms((a * b).terms, schoolbook_product(a, b))


# -- exact coefficients of every type and mix on the integer-numerator path ----

def factor_terms(sig: Signature, values):
    return st.dictionaries(st.integers(0, (1 << sig.n) - 1), values, max_size=8)


small_fractions = st.one_of(
    st.fractions(min_value=-5, max_value=5, max_denominator=12), big_fractions
)
gaussians = st.builds(QI, small_fractions, small_fractions)

#: a factor's coefficients: all of one type, an exact mix, or complex
factor_values = st.sampled_from(
    (
        small_ints,
        small_fractions,
        gaussians,
        st.one_of(small_ints, small_fractions),
        st.one_of(small_ints, small_fractions, gaussians),
        st.one_of(small_ints, st.booleans()),
        st.builds(complex, bounded_floats, bounded_floats),
    )
)

signatures_to_8 = st.integers(0, 8).flatmap(lambda n: st.integers(0, n).map(lambda p: Signature(p, n - p)))


@st.composite
def factor_pairs(draw):
    sig = draw(signatures_to_8)
    ta = draw(factor_terms(sig, draw(factor_values)))
    tb = draw(factor_terms(sig, draw(factor_values)))
    return sig, ta, tb


@settings(max_examples=400, deadline=None)
@given(factor_pairs())
def test_product_matches_generic_loop_on_every_coefficient_mix(sig_terms):
    sig, ta, tb = sig_terms
    a, b = Multivector(sig, ta), Multivector(sig, tb)
    assert_same_terms((a * b).terms, schoolbook_product(a, b))
    assert_same_terms((b * a).terms, schoolbook_product(b, a))


def parity_split_supercommutator(a: Multivector, b: Multivector) -> Multivector:
    """[a, b]_s by its definition: ab - (-1)^{|a||b|} ba on each pair of parity parts."""
    parts = [
        [Multivector(x.signature, {bl: c for bl, c in x.terms.items() if bl.bit_count() % 2 == p}) for p in (0, 1)]
        for x in (a, b)
    ]
    out = Multivector.zero(a.signature)
    for pa, xa in enumerate(parts[0]):
        for pb, xb in enumerate(parts[1]):
            out = out + xa * xb - (-1) ** (pa * pb) * (xb * xa)
    return out


@PROPERTY_SETTINGS
@given(operand_pairs(st.one_of(small_fractions, gaussians)))
def test_supercommutator_matches_the_parity_split_definition(sig_terms):
    sig, ta, tb = sig_terms
    a, b = Multivector(sig, ta), Multivector(sig, tb)
    assert supercommutator(a, b) == parity_split_supercommutator(a, b)


@PROPERTY_SETTINGS
@given(wide_signatures.flatmap(lambda s: st.tuples(st.just(s), blade_dicts(s, mixed_coeffs))))
def test_clifford_conjugate_is_the_transposes_grade_involution(sig_terms):
    x = Multivector(*sig_terms)
    assert_same_terms(x.clifford_conjugate().terms, x.transpose().grade_involution().terms)


def test_product_type_is_the_wider_factors():
    # one factor all Fraction with integral values, the other int: the
    # generic loop gives Fraction, never the int of the narrower factor
    sig = Signature(1, 1)
    a = Multivector(sig, {0: 2, 1: 3})
    b = Multivector(sig, {0: Fraction(4), 2: Fraction(-1)})
    for got, want in (((a * b).terms, schoolbook_product(a, b)), ((b * a).terms, schoolbook_product(b, a))):
        assert_same_terms(got, want)
        assert {type(c) for c in got.values()} == {Fraction}
    q = Multivector(sig, {0: QI(1), 3: QI(0, 2)})
    assert {type(c) for c in (a * q).terms.values()} == {QI}
    assert {type(c) for c in (b * q).terms.values()} == {QI}


def test_product_keeps_each_factors_denominator():
    sig = Signature(2, 0)
    a = Multivector(sig, {0: Fraction(1, 3), 1: Fraction(1, 2)})
    b = Multivector(sig, {0: Fraction(1, 5), 3: 1})
    assert_same_terms((a * b).terms, schoolbook_product(a, b))
    assert (a * b).terms[0] == Fraction(1, 15)
    g = Multivector(sig, {0: QI(Fraction(1, 7), Fraction(1, 3)), 2: Fraction(1, 2)})
    assert_same_terms((g * a).terms, schoolbook_product(g, a))
    assert (g * a).terms[0] == QI(Fraction(1, 21), Fraction(1, 9))


def test_dense_fraction_product_at_n10_within_budget():
    sig = Signature(6, 4)
    a = Multivector(sig, {k: Fraction(k % 13 - 6, k % 7 + 1) for k in range(1 << 10)})
    b = Multivector(sig, {k: Fraction(3 - k % 5, 2 * (k % 11) + 1) for k in range(1 << 10)})
    start = time.perf_counter()
    c = a * b
    elapsed = time.perf_counter() - start
    assert {type(v) for v in c.terms.values()} == {Fraction}
    for blade in (0, 0b1011001110, (1 << 10) - 1):
        want = 0
        for ba, ca in a.terms.items():
            sign, _ = blade_mul(ba, ba ^ blade, sig)
            want += sign * ca * b.terms.get(ba ^ blade, 0)
        assert c.terms.get(blade, 0) == want, blade
    assert elapsed < 1.0, f"dense Fraction product at n = 10 took {elapsed:.2f} s"


# -- equality: dicts on exact terms, the difference elsewhere ------------------

def difference_is_zero(a: Multivector, b: Multivector) -> bool:
    """Equality as the difference defines it."""
    return a.signature == b.signature and (a - b).terms == {}


RETYPE = (int, Fraction, QI)


@PROPERTY_SETTINGS
@given(
    signatures.flatmap(lambda s: st.tuples(st.just(s), blade_dicts(s, small_ints), blade_dicts(s, exact_coeffs))),
    st.sampled_from(RETYPE),
    st.sampled_from(RETYPE),
)
def test_exact_equality_agrees_with_the_difference(sig_terms, kind_a, kind_b):
    sig, ints, other = sig_terms
    a = Multivector(sig, {b: kind_a(c) for b, c in ints.items()})
    for b in (Multivector(sig, {k: kind_b(c) for k, c in ints.items()}), Multivector(sig, other)):
        assert (a == b) == difference_is_zero(a, b)
        assert (a != b) == (not difference_is_zero(a, b))
    assert a == Multivector(sig, {b: kind_b(c) for b, c in ints.items()})


special_floats = st.sampled_from((math.inf, -math.inf, math.nan, 0.5, 1 / 3, -0.0, 2.0))


@PROPERTY_SETTINGS
@given(
    signatures.flatmap(
        lambda s: st.tuples(
            st.just(s),
            blade_dicts(s, st.one_of(special_floats, exact_coeffs)),
            blade_dicts(s, st.one_of(special_floats, exact_coeffs)),
        )
    )
)
def test_float_equality_is_the_difference(sig_terms):
    sig, ta, tb = sig_terms
    a, b = Multivector(sig, ta), Multivector(sig, tb)
    assert (a == b) == difference_is_zero(a, b)


def test_float_equality_keeps_todays_answers():
    sig = Signature(1, 0)
    inf = Multivector.scalar(math.inf, sig)
    assert inf != Multivector.scalar(math.inf, sig)  # inf - inf is nan
    assert Multivector.scalar(math.nan, sig) != Multivector.scalar(math.nan, sig)
    # the float nearest 1/3 minus QI(1/3) rounds to 0.0 in complex arithmetic
    assert Multivector.scalar(QI(Fraction(1, 3)), sig) == Multivector.scalar(1 / 3, sig)
    assert Multivector.scalar(QI(Fraction(1, 3)), sig) != Multivector.scalar(Fraction(1, 3) + Fraction(1, 10**30), sig)


# -- the public constructors check what they are given -------------------------

def test_public_constructor_checks_its_input():
    for bad in (Signature(-1, 2), Signature(2, -1), Signature(40, 25), (65, 0)):
        for _ in range(3):  # every call, not only the first
            with pytest.raises(ValueError):
                Multivector(bad, {})
            with pytest.raises(ValueError):
                Multivector.scalar(1, bad)
            with pytest.raises(ValueError):
                parse_mv("e1", bad)
    sig = Signature(2, 1)
    for _ in range(2):
        with pytest.raises(ValueError, match="outside"):
            Multivector(sig, {0b1000: 1})
        with pytest.raises(ValueError, match="outside"):
            Multivector(sig, {0b1000: 0})
    assert Multivector(Signature(64, 0), {1 << 63: 1}).terms == {1 << 63: 1}
    for _ in range(2):
        with pytest.raises(ValueError):
            Multivector.basis_vector(4, sig)
        with pytest.raises(ValueError):
            Multivector.blade((1, 1), sig)
        with pytest.raises(ValueError):
            Multivector.vector([1, 2, 3, 4], sig)
    listed = Multivector([2, 1], {0b111: 3})
    assert listed.signature == sig and type(listed.signature) is Signature
    assert listed == Multivector(sig, {0b111: 3})
    assert Multivector.vector([1, 2, 3], [2, 1]) == Multivector(sig, {1: 1, 2: 2, 4: 3})


# -- QI among the other numbers: equal values hash alike -----------------------

small_rationals = st.sampled_from(
    (0, 1, -1, 2, 10**20, Fraction(1, 2), Fraction(-3, 4), Fraction(1, 3), Fraction(1, 2**60))
)


@st.composite
def numbers_of_any_type(draw):
    re = draw(small_rationals)
    im = draw(st.sampled_from((0, 0, 1, Fraction(-1, 2), Fraction(1, 3))))
    kinds = ["QI", "complex"]
    if im == 0:
        kinds += ["Fraction", "float"] + (["int"] if Fraction(re).denominator == 1 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "QI":
        return QI(re, im)
    if kind == "complex":
        return complex(float(re), float(im))
    if kind == "float":
        return float(re)
    return Fraction(re) if kind == "Fraction" else int(re)


@settings(max_examples=400, deadline=None)
@given(numbers_of_any_type(), numbers_of_any_type())
def test_equal_numbers_hash_equal(a, b):
    assert (a == b) == (b == a)
    if a == b:
        assert hash(a) == hash(b)


def test_qi_compares_with_floats_exactly():
    assert len({QI(1, 2), complex(1, 2)}) == 1
    assert hash(QI(1, 2)) == hash(complex(1, 2))
    assert QI(Fraction(1, 2)) == 0.5 and hash(QI(Fraction(1, 2))) == hash(0.5)
    # as Fraction(1, 3) != 1/3: the float is not exactly a third
    assert QI(Fraction(1, 3)) != 1 / 3
    assert QI(Fraction(1, 3), 1) != complex(1 / 3, 1)
    assert QI(1) != float("nan")
    assert hash(QI(-1)) == hash(-1) == hash(complex(-1))


def test_qi_with_sympy_numbers_stays_exact():
    # sympy's reflected methods take over through QI._sympy_, so no float appears
    half, two, i = sympy.Rational(1, 2), sympy.Integer(2), sympy.I
    for got, want in ((QI(1) + half, sympy.Rational(3, 2)), (half + QI(1), sympy.Rational(3, 2)),
                      (QI(1, 1) * two, 2 + 2 * i), (QI(1) - half, half), (QI(1) / two, half),
                      (two / QI(0, 1), -2 * i)):
        assert got == want and isinstance(got, sympy.Basic) and not got.has(sympy.Float)
    assert isinstance(QI(1) + half, sympy.Rational)
    assert isinstance(QI(1) + 0.5, complex) and isinstance(QI(1) * 1j, complex)
