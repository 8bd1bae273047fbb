import random
from fractions import Fraction

import pytest

from spingeo.clifford import (
    Multivector,
    QI,
    Signature,
    blade_mul,
    format_mv,
    parse_mv,
    supercommutator,
    volume_element,
)
from spingeo.clifford import _sign_mask


def mv_scalar(v, sig):
    return Multivector.scalar(v, sig)


class TestBladeMul:
    def test_e1_squares_to_minus_one_in_cl10(self):
        assert blade_mul(0b1, 0b1, Signature(1, 0)) == (-1, 0)

    def test_disjoint_ordered_blades_no_sign(self):
        assert blade_mul(0b01, 0b10, Signature(2, 0)) == (1, 0b11)

    def test_e12_squared(self):
        # bubble-sort oracle on the word e1 e2 e1 e2: one swap, two squares
        assert blade_mul(0b11, 0b11, Signature(2, 0)) == (-1, 0)

    def test_positive_squares_past_p(self):
        assert blade_mul(0b1, 0b1, Signature(0, 1)) == (1, 0)

    def test_dimension_error(self):
        with pytest.raises(ValueError):
            blade_mul(0b100, 0b1, Signature(2, 0))

    def test_dimension_error_on_either_blade(self):
        for a, b, sig in [
            (0b1, 0b100, Signature(2, 0)),
            (0b1000, 0b1000, Signature(1, 2)),
            (1 << 5, 0, Signature(0, 5)),
            (0b1, 0b1, Signature(0, 0)),
        ]:
            with pytest.raises(ValueError, match="beyond"):
                blade_mul(a, b, sig)

    @pytest.mark.parametrize("blade", [-1, 1 << 64, 1 << 70])
    def test_range_check_holds_at_n64(self, blade):
        sig = Signature(64, 0)
        with pytest.raises(ValueError, match="beyond"):
            blade_mul(blade, 1, sig)
        with pytest.raises(ValueError, match="beyond"):
            blade_mul(1, blade, sig)
        with pytest.raises(ValueError, match="outside"):
            Multivector(sig, {blade: 1})

    def test_top_generator_at_n64_is_in_range(self):
        sig = Signature(64, 0)
        e64 = Multivector(sig, {1 << 63: 2})
        assert e64.terms == {1 << 63: 2}
        assert blade_mul(1 << 63, 1 << 63, sig) == (-1, 0)
        assert blade_mul(1, 1 << 63, sig) == (1, 1 | 1 << 63)

    def test_sign_mask_agrees_with_pair_count_exhaustively(self):
        # every pair of blades and every p for n <= 6, against the sign
        # counted pair by pair: transpositions (i in a, j in b, i > j) and
        # repeated generators that square to -1
        for n in range(7):
            for p in range(n + 1):
                sig = Signature(p, n - p)
                neg = (1 << p) - 1
                for b in range(1 << n):
                    mask = _sign_mask(b, neg, n)
                    for a in range(1 << n):
                        odd = sum(1 for i in range(n) for j in range(i) if a >> i & 1 and b >> j & 1)
                        odd += (a & b & neg).bit_count()
                        sign = -1 if odd & 1 else 1
                        assert (-1 if (a & mask).bit_count() & 1 else 1) == sign
                        assert blade_mul(a, b, sig) == (sign, a ^ b)

    def test_exterior_sign_mask_is_the_interleaving_sign(self):
        # neg = 0: no generator squares to -1, so on disjoint monomials the
        # mask gives the wedge product's reordering sign
        n = 6
        for b in range(1 << n):
            mask = _sign_mask(b, 0, n)
            for a in range(1 << n):
                if a & b:
                    continue
                odd = sum(1 for i in range(n) for j in range(i) if a >> i & 1 and b >> j & 1)
                assert (a & mask).bit_count() & 1 == odd & 1

    def test_sign_matches_bubble_sort_oracle(self):
        # independent oracle: explicitly sort the concatenated index word
        rng = random.Random(7)
        for _ in range(300):
            p = rng.randint(0, 4)
            q = rng.randint(0, 4 - p)
            n = p + q
            if n == 0:
                continue
            sig = Signature(p, q)
            a = rng.randrange(1 << n)
            b = rng.randrange(1 << n)
            word = [i + 1 for i in range(n) if a >> i & 1] + [i + 1 for i in range(n) if b >> i & 1]
            sign = 1
            changed = True
            while changed:
                changed = False
                for k in range(len(word) - 1):
                    if word[k] > word[k + 1]:
                        word[k], word[k + 1] = word[k + 1], word[k]
                        sign = -sign
                        changed = True
            out = []
            for idx in word:
                if out and out[-1] == idx:
                    out.pop()
                    sign *= sig.square(idx)
                else:
                    out.append(idx)
            mask = 0
            for idx in out:
                mask |= 1 << (idx - 1)
            assert blade_mul(a, b, sig) == (sign, mask)


class TestMultivectorAlgebra:
    def test_one_plus_e1_times_one_minus_e1(self):
        sig = Signature(1, 0)
        e1 = Multivector.basis_vector(1, sig)
        assert (1 + e1) * (1 - e1) == mv_scalar(2, sig)

    def test_idempotent_splitting_in_cl01(self):
        sig = Signature(0, 1)
        v = Multivector.basis_vector(1, sig)
        plus = (1 + v) * Fraction(1, 2)
        minus = (1 - v) * Fraction(1, 2)
        assert plus * plus == plus
        assert minus * minus == minus
        assert (plus * minus).is_zero()

    def test_unit_law(self):
        rng = random.Random(3)
        sig = Signature(2, 2)
        for _ in range(20):
            a = Multivector(sig, {rng.randrange(16): Fraction(rng.randint(-5, 5))})
            assert a * mv_scalar(1, sig) == a
            assert mv_scalar(1, sig) * a == a

    def test_associativity_and_distributivity(self):
        rng = random.Random(11)
        for _ in range(100):
            p = rng.randint(0, 3)
            q = rng.randint(0, 3 - p) or 0
            if p + q == 0:
                continue
            sig = Signature(p, q)

            def rand():
                return Multivector(
                    sig,
                    {rng.randrange(1 << sig.n): Fraction(rng.randint(-3, 3)) for _ in range(3)},
                )

            a, b, c = rand(), rand(), rand()
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_signature_mismatch(self):
        with pytest.raises(ValueError):
            Multivector.basis_vector(1, Signature(1, 0)) * Multivector.basis_vector(1, Signature(0, 1))

    def test_generator_relations(self):
        for p, q in [(2, 0), (0, 2), (1, 1), (3, 2)]:
            sig = Signature(p, q)
            n = p + q
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    ei = Multivector.basis_vector(i, sig)
                    ej = Multivector.basis_vector(j, sig)
                    eta = (1 if i <= p else -1) if i == j else 0
                    assert ei * ej + ej * ei == mv_scalar(-2 * eta, sig)


class TestInvolutions:
    def test_grade_involution_on_vector(self):
        sig = Signature(2, 0)
        e1 = Multivector.basis_vector(1, sig)
        assert e1.grade_involution() == -e1

    def test_transpose_of_bivector(self):
        sig = Signature(2, 0)
        e12 = Multivector.blade((1, 2), sig)
        assert e12.transpose() == -e12

    def test_norm_of_unit_vector(self):
        for n in (1, 3, 5):
            sig = Signature(n, 0)
            e1 = Multivector.basis_vector(1, sig)
            assert e1.norm() == mv_scalar(1, sig)

    def test_grade_involution_is_algebra_map(self):
        rng = random.Random(5)
        sig = Signature(2, 1)
        for _ in range(50):
            a = Multivector(sig, {rng.randrange(8): Fraction(rng.randint(-3, 3)) for _ in range(2)})
            b = Multivector(sig, {rng.randrange(8): Fraction(rng.randint(-3, 3)) for _ in range(2)})
            assert (a * b).grade_involution() == a.grade_involution() * b.grade_involution()

    def test_transpose_is_antiautomorphism(self):
        rng = random.Random(6)
        sig = Signature(3, 1)
        for _ in range(50):
            a = Multivector(sig, {rng.randrange(16): Fraction(rng.randint(-3, 3)) for _ in range(2)})
            b = Multivector(sig, {rng.randrange(16): Fraction(rng.randint(-3, 3)) for _ in range(2)})
            assert (a * b).transpose() == b.transpose() * a.transpose()

    def test_clifford_inverse(self):
        sig = Signature(3, 0)
        v = Multivector.vector([Fraction(1), Fraction(2), Fraction(-1)], sig)
        assert v * v.clifford_inverse() == mv_scalar(1, sig)
        with pytest.raises(ValueError):
            (1 + Multivector.basis_vector(1, Signature(0, 1))).clifford_inverse()

    def test_division_by_an_int_stays_exact(self):
        sig = Signature(2, 0)
        v = Multivector.vector([1, -2], sig) / 3
        assert v.terms == {0b01: Fraction(1, 3), 0b10: Fraction(-2, 3)}
        assert {type(c) for c in v.terms.values()} == {Fraction}
        # v² = -5 in Cl(2, 0), so v⁻¹ = -v/5
        assert Multivector.vector([1, 2], sig).clifford_inverse().terms == {0b01: Fraction(-1, 5), 0b10: Fraction(-2, 5)}
        assert (Multivector.vector([1.5, 3.0], sig) / 3).terms == {0b01: 0.5, 0b10: 1.0}


class TestVolumeElement:
    def test_n1_is_i_e1(self):
        w = volume_element(1)
        assert w == Multivector(Signature(1, 0), {0b1: QI(0, 1)})
        assert w * w == mv_scalar(1, Signature(1, 0))

    def test_n2(self):
        w = volume_element(2)
        assert w == Multivector(Signature(2, 0), {0b11: QI(0, 1)})
        assert w * w == mv_scalar(1, Signature(2, 0))

    def test_squares_to_one_up_to_8(self):
        for n in range(1, 9):
            w = volume_element(n)
            assert w * w == mv_scalar(1, Signature(n, 0))

    def test_centrality_pattern(self):
        rng = random.Random(1)
        for n in range(1, 9):
            sig = Signature(n, 0)
            w = volume_element(n)
            v = Multivector.vector([Fraction(rng.randint(-3, 3)) for _ in range(n)], sig)
            assert (v * w - (-1) ** (n - 1) * (w * v)).is_zero()

    def test_graded_commutation_for_even_n(self):
        # for even n the volume element commutes with even elements and
        # anticommutes with odd ones: ω a = (-1)^{|a|} a ω
        rng = random.Random(2)
        for n in (2, 4):
            sig = Signature(n, 0)
            w = volume_element(n)
            for _ in range(20):
                blade = rng.randrange(1 << n)
                a = Multivector(sig, {blade: Fraction(rng.randint(-3, 3))})
                sign = -1 if bin(blade).count("1") % 2 else 1
                assert w * a == sign * (a * w)
                if sign == 1:
                    assert supercommutator(w, a).is_zero()

    def test_central_for_odd_n(self):
        rng = random.Random(4)
        for n in (3, 5):
            sig = Signature(n, 0)
            w = volume_element(n)
            for _ in range(20):
                blade = rng.randrange(1 << n)
                a = Multivector(sig, {blade: Fraction(rng.randint(-3, 3))})
                assert w * a == a * w

    def test_n0_rejected(self):
        with pytest.raises(ValueError):
            volume_element(0)


class TestSupercommutator:
    def test_orthogonal_generators(self):
        sig = Signature(2, 0)
        e1 = Multivector.basis_vector(1, sig)
        e2 = Multivector.basis_vector(2, sig)
        assert supercommutator(e1, e2).is_zero()

    def test_generator_with_itself(self):
        sig = Signature(1, 0)
        e1 = Multivector.basis_vector(1, sig)
        assert supercommutator(e1, e1) == mv_scalar(-2, sig)

    def test_mixed_parity_distributes(self):
        sig = Signature(2, 0)
        e1 = Multivector.basis_vector(1, sig)
        e2 = Multivector.basis_vector(2, sig)
        a = 1 + e1
        expected = supercommutator(mv_scalar(1, sig), e2) + supercommutator(e1, e2)
        assert supercommutator(a, e2) == expected


class TestTextFormat:
    def test_round_trip(self):
        sig = Signature(3, 0)
        mv = Multivector(sig, {0b101: QI(Fraction(3, 2)), 0b010: QI(0, -1)})
        text = format_mv(mv)
        assert text == "-i*e2 + 3/2*e1e3"
        assert parse_mv(text, sig) == mv

    def test_round_trip_random(self):
        rng = random.Random(9)
        sig = Signature(2, 2)
        for _ in range(50):
            terms = {
                rng.randrange(16): QI(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), rng.randint(-2, 2))
                for _ in range(3)
            }
            mv = Multivector(sig, terms)
            assert parse_mv(format_mv(mv), sig) == mv

    def test_zero(self):
        sig = Signature(1, 0)
        assert format_mv(Multivector.zero(sig)) == "0"
        assert parse_mv("0", sig).is_zero()

    def test_scalar_and_unit_coefficients(self):
        sig = Signature(2, 0)
        assert parse_mv("1 + e1e2", sig) == Multivector(sig, {0: QI(1), 0b11: QI(1)})
        assert parse_mv("- e1", sig) == -Multivector.basis_vector(1, sig)

    def test_rejects_out_of_range_generator(self):
        with pytest.raises(ValueError):
            parse_mv("e3", Signature(2, 0))


class TestParityGrading:
    def test_parities(self):
        sig = Signature(2, 0)
        e1 = Multivector.basis_vector(1, sig)
        e12 = Multivector.blade((1, 2), sig)
        assert e1.parity() == "odd"
        assert e12.parity() == "even"
        assert (1 + e1).parity() == "mixed"
        assert (e1 * e1).parity() == "even"

    def test_grade_part(self):
        sig = Signature(2, 0)
        a = 1 + Multivector.basis_vector(1, sig) + Multivector.blade((1, 2), sig)
        assert a.grade_part(1) == Multivector.basis_vector(1, sig)
        assert sorted(a.grades()) == [0, 1, 2]
