"""Property-based tests of the Clifford algebra's value semantics and laws."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from spingeo.clifford import QI, Multivector, Signature, format_mv, parse_mv

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
