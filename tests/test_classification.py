import re

import pytest

from spingeo.classification import (
    MAX_N,
    AlgebraType,
    classify_complex,
    classify_real,
    even_subalgebra_complex,
    even_subalgebra_type,
    table1,
)


GOLDEN = {
    1: ("C", "R + R"),
    2: ("H", "M2(R)"),
    3: ("H + H", "M2(C)"),
    4: ("M2(H)", "M2(H)"),
    5: ("M4(C)", "M2(H) + M2(H)"),
    6: ("M8(R)", "M4(H)"),
    7: ("M8(R) + M8(R)", "M8(C)"),
    8: ("M16(R)", "M16(R)"),
}


class TestRealClassification:
    def test_golden_table(self):
        for n, pos, neg in table1():
            assert str(pos) == GOLDEN[n][0], f"Cl({n},0)"
            assert str(neg) == GOLDEN[n][1], f"Cl(0,{n})"

    def test_base_cases(self):
        assert classify_real(0, 0) == AlgebraType("R")
        assert classify_real(1, 0) == AlgebraType("C")
        assert classify_real(2, 0) == AlgebraType("H")
        assert classify_real(0, 1) == AlgebraType("R", doubled=True)
        assert classify_real(0, 2) == AlgebraType("R", 2)
        assert classify_real(1, 1) == AlgebraType("R", 2)

    def test_majorana_signatures(self):
        assert classify_real(1, 3) == AlgebraType("R", 4)
        assert classify_real(3, 1) == AlgebraType("H", 2)

    def test_dimension_audit(self):
        for p in range(0, 17):
            for q in range(0, 17 - p):
                t = classify_real(p, q)
                assert t.real_dim == 2 ** (p + q)

    def test_mod8_periodicity(self):
        for n in range(0, 17):
            a = classify_real(n, 0)
            b = classify_real(n + 8, 0)
            assert (b.base, b.doubled) == (a.base, a.doubled)
            assert b.size == 16 * a.size

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            classify_real(-1, 0)


class TestComplexClassification:
    def test_small_cases(self):
        assert classify_complex(1) == AlgebraType("C", 1, doubled=True)
        assert classify_complex(2) == AlgebraType("C", 2)
        assert classify_complex(5) == AlgebraType("C", 4, doubled=True)

    def test_mod2_periodicity(self):
        for n in range(0, 17):
            assert classify_complex(n + 2).size == 2 * classify_complex(n).size
            assert classify_complex(n + 2).doubled == classify_complex(n).doubled

    def test_complex_dimension(self):
        # real dimension of Cl^c_n is 2^{n+1} (complexified)
        for n in range(0, 12):
            assert classify_complex(n).real_dim == 2 ** (n + 1)


class TestEvenSubalgebra:
    def test_even_part_of_cl20(self):
        assert even_subalgebra_type(2, 0) == AlgebraType("C")

    def test_even_part_of_cl10(self):
        assert even_subalgebra_type(1, 0) == AlgebraType("R")

    def test_mirror_signature(self):
        # the even part only sees products of two generators
        for n in range(1, 8):
            assert even_subalgebra_type(0, n) == even_subalgebra_type(n, 0)

    def test_complex_even_part_is_diagonal_summand(self):
        # even part of Cl^c_{n+1} for n even: the diagonal M_{2^{n/2}}(C)
        for n in (2, 4, 6):
            odd_algebra = classify_complex(n + 1)
            even_part = even_subalgebra_complex(n + 1)
            assert odd_algebra.doubled
            assert even_part == AlgebraType("C", 2 ** (n // 2))

    def test_zero_dimensional_rejected(self):
        with pytest.raises(ValueError):
            even_subalgebra_type(0, 0)


class TestSizeLimit:
    """Past MAX_N some matrix size has too many digits to print, and the reduction would crawl."""

    @pytest.mark.parametrize("p", range(4))
    def test_every_signature_at_the_limit_prints(self, p):
        for t in (classify_real(p, MAX_N - p), even_subalgebra_type(p + 1, MAX_N - p - 1)):
            assert str(t) and str(t.to_dict()) and t.size.bit_length() > 14000

    def test_complex_at_the_limit_prints(self):
        for t in (classify_complex(MAX_N), even_subalgebra_complex(MAX_N)):
            assert str(t) and str(t.to_dict())

    @pytest.mark.parametrize(
        "call, args, what",
        [
            (classify_real, (MAX_N + 1, 0), "p + q"),
            (classify_real, (3, MAX_N), "p + q"),
            (classify_real, (10**7, 0), "p + q"),
            (even_subalgebra_type, (0, MAX_N + 1), "p + q"),
            (classify_complex, (MAX_N + 1,), "n"),
            (even_subalgebra_complex, (10**7,), "n"),
        ],
    )
    def test_beyond_the_limit_rejected(self, call, args, what):
        with pytest.raises(ValueError, match=re.escape(f"{what} must be at most {MAX_N}, not {sum(args)}")):
            call(*args)


class TestAlgebraType:
    def test_str(self):
        assert str(AlgebraType("H", 2, True)) == "M2(H) + M2(H)"
        assert str(AlgebraType("R")) == "R"

    def test_validation(self):
        with pytest.raises(ValueError):
            AlgebraType("X", 1)
        with pytest.raises(ValueError):
            AlgebraType("R", 0)

    def test_to_dict(self):
        assert AlgebraType("C", 4).to_dict() == {"base": "C", "size": 4, "doubled": False}

    def test_repr_equality_and_hash_are_by_value(self):
        t = AlgebraType("H", 2, doubled=True)
        assert repr(t) == "AlgebraType(base='H', size=2, doubled=True)"
        assert t == AlgebraType("H", 2, True) and hash(t) == hash(AlgebraType("H", 2, True))
        assert t != AlgebraType("H", 2) and t != ("H", 2, True)
        assert len({t, AlgebraType("H", 2, True), AlgebraType("R")}) == 2

    def test_is_immutable(self):
        t = AlgebraType("R")
        for name, value in [("base", "C"), ("size", 2), ("extra", 1)]:
            with pytest.raises(AttributeError):
                setattr(t, name, value)
        assert t == AlgebraType("R", 1, False)
