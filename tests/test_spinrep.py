import itertools
import json
import math
import random
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from spingeo import acceptance, clifford, spinrep
from spingeo.cli import main
from spingeo.clifford import QI, Multivector, Signature
from spingeo.spinrep import (
    ExteriorModule,
    SpinorSpace,
    ahat_matrix_det_sqrt,
    berezin_residual,
    berezin_supertrace_exp,
    chirality_residual,
    lie_iso,
    lie_iso_inv,
    pfaffian,
    reflection_formula,
    relations_residual,
    relative_supertrace,
    spin_rotation,
    twisted_adjoint,
    twisted_adjoint_matrix,
    twisted_adjoint_numerators,
)


# -- the reference: the exterior module and the Berezin left side by dense products --
#
# ExteriorModule keeps each generator as a ±1 vector over the subset basis
# and composes words on index arrays.  These build every matrix from the
# wedge and contraction matrices and multiply them densely, as the module
# once did, and the tests below compare the two.  berezin_supertrace_exp
# computes its left side on the spinor module S; dense_berezin_lhs computes
# it on the exterior module E ≅ S ⊗ S*, so the two agreeing checks that step.

def dense_wedge(n: int, i: int) -> np.ndarray:
    """e^i ∧ · on Λ(R^n) in the subset basis; its transpose is the contraction ι_i."""
    out = np.zeros((1 << n, 1 << n))
    bit = 1 << (i - 1)
    for s in range(1 << n):
        if not s & bit:
            out[s | bit, s] = (-1.0) ** (s & (bit - 1)).bit_count()
    return out


def dense_module(n: int):
    """(c, c̃, γ): the generator matrices c(e^i) = e^i ∧ - ι_i, c̃(e^i) = e^i ∧ + ι_i, and the grading."""
    wedges = [dense_wedge(n, i) for i in range(1, n + 1)]
    c = [(w - w.T).astype(complex) for w in wedges]
    ct = [(w + w.T).astype(complex) for w in wedges]
    gamma = np.diag([(-1.0) ** s.bit_count() for s in range(1 << n)]).astype(complex)
    return c, ct, gamma


def dense_word(mats, indices, dim: int) -> np.ndarray:
    out = np.eye(dim, dtype=complex)
    for i in indices:
        out = out @ mats[i - 1]
    return out


def dense_berezin_lhs(A: np.ndarray) -> complex:
    """2^{-n/2} tr(γ c(ω_C) exp(½ Σ A_ij c̃_i c̃_j)) from dense products and one eigh of i·quad."""
    n = A.shape[0]
    c, ct, gamma = dense_module(n)
    quad = np.zeros((1 << n, 1 << n), dtype=complex)
    for i in range(n):
        for j in range(n):
            if A[i, j] != 0:
                quad += 0.5 * A[i, j] * (ct[i] @ ct[j])
    w, V = np.linalg.eigh(1j * quad)
    c_omega = (1j) ** ((n + 1) // 2) * dense_word(c, range(1, n + 1), 1 << n)
    return 2.0 ** (-n / 2) * complex(np.trace(gamma @ c_omega @ (V * np.exp(-1j * w)) @ V.conj().T))


def berezin_quadratic(A: np.ndarray, module: ExteriorModule) -> np.ndarray:
    """The real matrix of ½ Σ A_ij c̃(e^i) c̃(e^j) on ``module``, scattered word by word: the
    quadratic on the exterior module E, where the left side was once computed."""
    quad = np.zeros((module.dim, module.dim))
    rows, gens = module._index, module._ct
    for (wi, mi), row in zip(gens, A.tolist()):
        for (wj, mj), a in zip(gens, row):
            if a != 0:
                # the word c̃(e^i) c̃(e^j), as _word composes it: e_s ↦ wj[s] wi[s ⊕ mj] e_{s ⊕ mi ⊕ mj}
                quad[rows ^ (mi ^ mj), rows] += 0.5 * a * (wj * wi[rows ^ mj])
    return quad


def rotated_blocks(lams, rng) -> np.ndarray:
    """O blockdiag([[0, λ_j], [-λ_j, 0]]) Oᵀ for a seeded O ∈ SO(n), exactly antisymmetric."""
    n = 2 * len(lams)
    block = np.zeros((n, n))
    for j, lam in enumerate(lams):
        block[2 * j, 2 * j + 1], block[2 * j + 1, 2 * j] = lam, -lam
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]  # an orientation reversal would flip the Pfaffian's sign
    a = q @ block @ q.T
    return (a - a.T) / 2


# -- the reference: ρ̃(x) by two Multivector products per column --------------
#
# twisted_adjoint_matrix fills all n columns in one pass over the term pairs
# of x and x⁻¹; this builds each column as ε(x) e_j x⁻¹, as the function once
# did, and the property below asks for the same bytes.

def reference_twisted_adjoint_matrix(x: Multivector) -> np.ndarray:
    sig = x.signature
    xe, xi = x.grade_involution(), x.clifford_inverse()
    out = np.zeros((sig.n, sig.n), dtype=complex)
    for j in range(sig.n):
        image = xe * Multivector.basis_vector(j + 1, sig) * xi
        for i in range(sig.n):
            out[i, j] = complex(image.terms.get(1 << i, 0))
    return out


small_floats = st.floats(-2, 2)
small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)

#: Coefficients of one kind per product: complex floats (signed zeros and
#: whole numbers included, so sums can cancel exactly), rationals, Gaussian rationals.
coefficient_kinds = st.sampled_from([
    st.builds(complex, small_floats, small_floats),
    st.builds(complex, st.integers(-2, 2), st.sampled_from([0.0, -0.0])),
    small_fractions,
    st.builds(QI, small_fractions, small_fractions),
])


#: The exact kinds alone, integers included, for the numerator form.
exact_kinds = st.sampled_from([st.integers(-3, 3), small_fractions, st.builds(QI, small_fractions, small_fractions)])


@st.composite
def vector_products(draw, kinds=coefficient_kinds):
    """A product of one to four non-null vectors in some Cl(p, q) with n ≤ 6, coefficients of one of ``kinds``."""
    n = draw(st.integers(1, 6))
    p = draw(st.integers(0, n))
    sig = Signature(p, n - p)
    coeffs = draw(kinds)
    x = None
    for _ in range(draw(st.integers(1, 4))):
        v = Multivector.vector(draw(st.lists(coeffs, min_size=n, max_size=n)), sig)
        square = complex((v * v).scalar_part())
        assume(abs(square) >= 0.25)  # well away from null, so float norms stay scalar within 1e-9
        x = v if x is None else x * v
    return x


def unit_versor(p: int, q: int, length: int, seed: int) -> Multivector:
    """A product of ``length`` seeded unit vectors of Cl(p, q) with |v·v| ≥ 0.25, complex coefficients."""
    rng = np.random.default_rng(seed)
    sig = Signature(p, q)
    x = Multivector.scalar(complex(1.0), sig)
    while length:
        v = rng.normal(size=p + q)
        v = Multivector.vector([complex(c) for c in v / np.linalg.norm(v)], sig)
        if abs(complex((v * v).scalar_part())) >= 0.25:
            x, length = x * v, length - 1
    return x


class TestTwistedAdjointMatrix:
    # the strategy stops at n = 6; two Spin(8) rotors, a Cl(4,4) versor and a Spin(7)
    # rotor cover n = 7 and 8, each far above clifford._ARRAY_PAIRS, so the kernel runs
    # on them unforced
    @settings(max_examples=150, deadline=None)
    @given(vector_products())
    @example(unit_versor(8, 0, 8, 1))
    @example(unit_versor(8, 0, 6, 2))
    @example(unit_versor(4, 4, 5, 3))
    @example(unit_versor(7, 0, 7, 4))
    def test_one_pass_is_bit_identical_to_two_products(self, x):
        got = twisted_adjoint_matrix(x)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(clifford, "_kernel_pays", lambda left, right, n: False)  # the loops only
            want, loop = reference_twisted_adjoint_matrix(x), twisted_adjoint_matrix(x)
            mp.setattr(clifford, "_kernel_pays", lambda left, right, n: True)  # the kernel for all
            kernel = twisted_adjoint_matrix(x)
        assert got.tobytes() == want.tobytes() == loop.tobytes() == kernel.tobytes()

    @pytest.mark.parametrize("kind", [complex, Fraction, int, QI])
    def test_degree_check_can_fail(self, kind):
        # N(x) = 2, but ρ̃(x) e_j has a grade-5 part
        sig = Signature(6, 0)
        x = Multivector(sig, {0: kind(1), 0b111111: kind(1)})
        assert x.norm() == 2
        with pytest.raises(ValueError, match="twisted adjoint did not preserve degree 1"):
            twisted_adjoint_matrix(x)


class TestTwistedAdjointNumerators:
    @settings(max_examples=150, deadline=None)
    @given(vector_products(exact_kinds))
    def test_numerators_over_the_norm_are_the_exact_entries(self, x):
        N, M = twisted_adjoint_numerators(x)
        sig, n = x.signature, x.signature.n
        gaussian = any(type(c) is QI for c in x.terms.values())
        kinds = {type(m) for row in M for m in row}
        assert kinds <= ({int, QI} if gaussian else {int}) and type(N) is (QI if gaussian else int)
        if gaussian:
            assert all(m == 0 or (m.re.denominator, m.im.denominator) == (1, 1) for row in M for m in row)
        xe, xi = x.grade_involution(), x.clifford_inverse()
        for j in range(n):
            image = xe * Multivector.basis_vector(j + 1, sig) * xi
            assert image.grades() <= {1}
            for i in range(n):
                got = M[i][j] / N if gaussian else Fraction(M[i][j], N)
                assert got == image.terms.get(1 << i, 0)

    @pytest.mark.parametrize("kind", [int, Fraction, QI])
    def test_no_scalar_norm(self, kind):
        sig = Signature(3, 0)
        x = Multivector(sig, {0: kind(1), 0b111: kind(1)})  # x x̄ = 2 + 2e1e2e3
        with pytest.raises(ValueError, match="element has no scalar norm"):
            twisted_adjoint_numerators(x)
        with pytest.raises(ValueError, match="element has no scalar norm"):
            twisted_adjoint_numerators(Multivector.zero(sig))

    def test_exact_fraction_products_at_n6_are_fast(self):
        # these took about 2 s on a 2-core host when the one pass summed Fraction values over x⁻¹
        rng = random.Random(6)
        sig = Signature(6, 0)
        products = []
        for _ in range(200):
            x = Multivector.scalar(Fraction(1), sig)
            for _ in range(rng.randint(1, 5)):
                v = [0] * 6
                while not any(v):
                    v = [rng.randint(-3, 3) for _ in range(6)]
                x = x * Multivector.vector([Fraction(c) for c in v], sig)
            products.append(x)
        start = time.perf_counter()
        for x in products:
            twisted_adjoint_matrix(x)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"200 exact twisted adjoints at n = 6 took {elapsed:.2f} s"


@st.composite
def integer_vector_pairs(draw):
    """Two vectors with integer coefficients in [-3, 3] of Cl(4,0), Cl(2,2) or Cl(0,3)."""
    p, q = draw(st.sampled_from([(4, 0), (2, 2), (0, 3)]))
    sig = Signature(p, q)
    coeffs = st.lists(st.integers(-3, 3), min_size=p + q, max_size=p + q)
    return Multivector.vector(draw(coeffs), sig), Multivector.vector(draw(coeffs), sig)


class TestTwistedAdjoint:
    def test_reflection_of_mirror_axis(self):
        sig = Signature(3, 0)
        e1 = Multivector.basis_vector(1, sig)
        assert twisted_adjoint(e1, e1) == -e1

    def test_orthogonal_axis_fixed(self):
        sig = Signature(3, 0)
        e1 = Multivector.basis_vector(1, sig)
        e2 = Multivector.basis_vector(2, sig)
        assert twisted_adjoint(e1, e2) == e2

    def test_matches_reflection_formula_exactly(self):
        rng = random.Random(4)
        sig = Signature(4, 0)
        for _ in range(100):
            v = Multivector.vector([Fraction(rng.randint(-3, 3)) for _ in range(4)], sig)
            w = Multivector.vector([Fraction(rng.randint(-3, 3)) for _ in range(4)], sig)
            if (v * v).is_zero():
                continue
            assert twisted_adjoint(v, w) == reflection_formula(v, w)

    @settings(max_examples=200, deadline=None)
    @given(integer_vector_pairs())
    def test_reflection_formula_stays_exact_on_integer_vectors(self, pair):
        v, w = pair
        assume(not (v * v).is_zero())
        reflected = reflection_formula(v, w)
        assert reflected == twisted_adjoint(v, w)
        assert {type(c) for c in reflected.terms.values()} <= {int, Fraction}

    def test_orthogonality_and_determinant(self):
        rng = np.random.default_rng(0)
        sig = Signature(4, 0)
        for _ in range(50):
            length = int(rng.integers(1, 7))
            x = Multivector.scalar(complex(1), sig)
            for _ in range(length):
                v = rng.normal(size=4)
                v /= np.linalg.norm(v)
                x = x * Multivector.vector([complex(c) for c in v], sig)
            mat = twisted_adjoint_matrix(x).real
            assert np.max(np.abs(mat @ mat.T - np.eye(4))) < 1e-12
            det = np.linalg.det(mat)
            assert abs(det - (1.0 if length % 2 == 0 else -1.0)) < 1e-10

    def test_norm_multiplicative_on_clifford_group(self):
        rng = random.Random(12)
        sig = Signature(3, 0)

        def random_vector():
            while True:
                v = Multivector.vector([Fraction(rng.randint(-3, 3)) for _ in range(3)], sig)
                if not (v * v).is_zero():
                    return v

        for _ in range(50):
            a = random_vector() * random_vector()
            b = random_vector()
            assert (a * b).norm() == a.norm() * b.norm()

    def test_kernel_is_plus_minus_one(self):
        # products of basis generators acting trivially must be ±1
        rng = random.Random(8)
        for n in (2, 3, 4, 6):
            sig = Signature(n, 0)
            for _ in range(50):
                word = [rng.randint(1, n) for _ in range(rng.randint(0, 6))]
                x = Multivector.scalar(Fraction(1), sig)
                for i in word:
                    x = x * Multivector.basis_vector(i, sig)
                if (x * x.transpose().grade_involution()).is_zero():
                    continue
                trivial = all(
                    twisted_adjoint(x, Multivector.basis_vector(j, sig))
                    == Multivector.basis_vector(j, sig)
                    for j in range(1, n + 1)
                )
                if trivial:
                    assert x == Multivector.scalar(Fraction(1), sig) or x == Multivector.scalar(
                        Fraction(-1), sig
                    )

    def test_noninvertible_rejected(self):
        sig = Signature(1, 1)
        null = Multivector.vector([Fraction(1), Fraction(1)], sig)  # g(v,v) = 0
        with pytest.raises(ValueError):
            twisted_adjoint(null, null)


class TestSpinRotation:
    def test_t_pi_is_minus_one_maps_to_identity(self):
        sig = Signature(3, 0)
        x = spin_rotation(1, 2, math.pi, sig)
        assert abs(x.terms[0] - (-1)) < 1e-15
        mat = twisted_adjoint_matrix(x).real
        assert np.max(np.abs(mat - np.eye(3))) < 1e-12

    def test_t_half_pi_rotates_by_pi(self):
        sig = Signature(3, 0)
        x = spin_rotation(1, 2, math.pi / 2, sig)
        mat = twisted_adjoint_matrix(x).real
        expected = np.diag([-1.0, -1.0, 1.0])
        assert np.max(np.abs(mat - expected)) < 1e-12

    def test_double_cover_angle(self):
        sig = Signature(2, 0)
        t = 0.3
        mat = twisted_adjoint_matrix(spin_rotation(1, 2, t, sig)).real
        c, s = math.cos(2 * t), math.sin(2 * t)
        expected = np.array([[c, -s], [s, c]])
        assert np.max(np.abs(mat - expected)) < 1e-12

    def test_t_zero_is_identity(self):
        sig = Signature(2, 0)
        mat = twisted_adjoint_matrix(spin_rotation(1, 2, 0.0, sig)).real
        assert np.max(np.abs(mat - np.eye(2))) < 1e-15


class TestLieIso:
    def test_round_trip(self):
        for n in range(2, 7):
            sig = Signature(n, 0)
            for i, j in combinations(range(1, n + 1), 2):
                a = lie_iso(i, j, n)
                assert lie_iso_inv(a, sig) == Multivector.blade((i, j), sig)

    def test_wedge_to_half_bivector(self):
        sig = Signature(2, 0)
        a = np.zeros((2, 2))
        a[1, 0], a[0, 1] = 1.0, -1.0  # e1 ∧ e2
        assert lie_iso_inv(a, sig) == Multivector.blade((1, 2), sig, Fraction(1, 2))

    def test_spin3_brackets(self):
        sig = Signature(3, 0)
        u = Multivector.blade((1, 2), sig)
        v = Multivector.blade((2, 3), sig)
        w = Multivector.blade((1, 3), sig)
        assert u * w - w * u == 2 * v
        assert u * v - v * u == -2 * w
        assert v * w - w * v == -2 * u

    def test_bracket_compatibility(self):
        # lie_iso intertwines the commutators of spin(n) and so(n)
        n = 4
        sig = Signature(n, 0)
        for (i, j), (k, l) in combinations(list(combinations(range(1, n + 1), 2)), 2):
            lhs = lie_iso(i, j, n) @ lie_iso(k, l, n) - lie_iso(k, l, n) @ lie_iso(i, j, n)
            a = Multivector.blade((i, j), sig)
            b = Multivector.blade((k, l), sig)
            bracket = a * b - b * a
            rhs = np.zeros((n, n))
            for (r, s), coeff in (
                ((r, s), bracket.terms.get((1 << (r - 1)) | (1 << (s - 1)), 0))
                for r, s in combinations(range(1, n + 1), 2)
            ):
                if coeff:
                    rhs += float(coeff) * lie_iso(r, s, n)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestExteriorModule:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_tilde_c_relations(self, n):
        mod = ExteriorModule(n)
        ident = np.eye(mod.dim)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                d = 1.0 * (i == j)
                assert np.allclose(mod.c(i) @ mod.c(j) + mod.c(j) @ mod.c(i), -2 * d * ident)
                assert np.allclose(
                    mod.c_tilde(i) @ mod.c_tilde(j) + mod.c_tilde(j) @ mod.c_tilde(i), 2 * d * ident
                )
                assert np.allclose(mod.c(i) @ mod.c_tilde(j) + mod.c_tilde(j) @ mod.c(i), 0)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_grading_relates_the_two_volume_actions(self, n):
        mod = ExteriorModule(n)
        assert np.allclose(mod.gamma @ mod.c_omega(), mod.c_tilde_omega())

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_short_word_equals_the_dense_product(self, n):
        mod = ExteriorModule(n)
        c, ct, gamma = dense_module(n)
        assert np.array_equal(mod.gamma, gamma)
        words = [w for r in range(4) for w in itertools.product(range(1, n + 1), repeat=r)]
        words += [w for r in range(4, n + 1) for w in itertools.permutations(range(1, n + 1), r)]
        for i in range(1, n + 1):
            assert np.array_equal(mod.c(i), c[i - 1]) and np.array_equal(mod.c_tilde(i), ct[i - 1])
        for word in words:
            assert np.array_equal(mod.c_word(word), dense_word(c, word, mod.dim)), word
            assert np.array_equal(mod.c_tilde_word(word), dense_word(ct, word, mod.dim)), word

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_full_words_equal_the_dense_products(self, n):
        mod = ExteriorModule(n)
        c, ct, gamma = dense_module(n)
        assert np.array_equal(mod.gamma, gamma)
        for word in (range(1, n + 1), range(n, 0, -1)):
            assert np.array_equal(mod.c_word(word), dense_word(c, word, mod.dim))
            assert np.array_equal(mod.c_tilde_word(word), dense_word(ct, word, mod.dim))
        phase = (1j) ** ((n + 1) // 2)
        assert np.array_equal(mod.c_omega(), phase * dense_word(c, range(1, n + 1), mod.dim))
        assert np.array_equal(mod.c_tilde_omega(), phase * dense_word(ct, range(1, n + 1), mod.dim))


class TestRelativeSupertrace:
    def test_identity_has_zero_supertrace(self):
        mod = ExteriorModule(2)
        assert abs(relative_supertrace(np.eye(4, dtype=complex), mod)) < 1e-14

    @pytest.mark.parametrize("n", [2, 4])
    def test_lower_monomials_vanish(self, n):
        mod = ExteriorModule(n)
        for r in range(n):
            for indices in combinations(range(1, n + 1), r):
                val = relative_supertrace(mod.c_tilde_word(indices), mod)
                assert abs(val) < 1e-12, (n, indices)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_top_monomial_value(self, n):
        mod = ExteriorModule(n)
        val = relative_supertrace(mod.c_tilde_word(range(1, n + 1)), mod)
        assert abs(val - (-2j) ** (n // 2)) < 1e-10

    def test_normalization_consistency_n2(self):
        # the 2^{-n/2} constant makes the quadratic-exponential formula and
        # the top-monomial value hold simultaneously (dense n=2 oracle)
        lam = 0.37
        A = np.array([[0.0, lam], [-lam, 0.0]])
        lhs, rhs = berezin_supertrace_exp(A)
        assert abs(lhs - (-2j * math.sin(lam))) < 1e-12
        assert abs(rhs - (-2j * math.sin(lam))) < 1e-12
        module = ExteriorModule(2)  # the left side comes from S; str^{E/S} on E must give it too
        w, V = np.linalg.eigh(1j * berezin_quadratic(A, module))
        on_e = relative_supertrace((V * np.exp(-1j * w)) @ V.conj().T, module)
        assert abs(on_e - (-2j * math.sin(lam))) < 1e-12

    def test_odd_n_rejected(self):
        mod = ExteriorModule(3)
        with pytest.raises(ValueError):
            relative_supertrace(np.eye(8, dtype=complex), mod)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_matches_the_dense_trace(self, n):
        rng = np.random.default_rng(n)
        mod = ExteriorModule(n)
        c, _, gamma = dense_module(n)
        c_omega = (1j) ** ((n + 1) // 2) * dense_word(c, range(1, n + 1), mod.dim)
        for _ in range(3):
            F = rng.normal(size=(mod.dim, mod.dim)) + 1j * rng.normal(size=(mod.dim, mod.dim))
            want = 2.0 ** (-n / 2) * np.trace(gamma @ c_omega @ F)
            assert abs(relative_supertrace(F, mod) - want) <= 1e-12 * mod.dim


class TestBerezin:
    def test_lambda_grid(self):
        for k in range(1, 21):
            lam = k / 10.0
            A = np.array([[0.0, lam], [-lam, 0.0]])
            lhs, rhs = berezin_supertrace_exp(A)
            assert abs(lhs - rhs) < 1e-10
            assert abs(lhs - (-2j * math.sin(lam))) < 1e-10

    def test_zero_matrix(self):
        lhs, rhs = berezin_supertrace_exp(np.zeros((2, 2)))
        assert abs(lhs) < 1e-14 and abs(rhs) < 1e-14

    def test_random_4x4(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            B = rng.normal(size=(4, 4)) * 0.4
            lhs, rhs = berezin_supertrace_exp(B - B.T)
            assert abs(lhs - rhs) < 1e-10

    def test_non_antisymmetric_rejected(self):
        with pytest.raises(ValueError):
            berezin_supertrace_exp(np.eye(2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, bad):
        # an antisymmetric pair of nan or ±inf entries has nan in A + Aᵀ, which no tolerance test rejects
        A = np.array([[0.0, bad], [-bad, 0.0]])
        with pytest.raises(ValueError, match="A must be finite"):
            berezin_supertrace_exp(A)
        with pytest.raises(ValueError, match="B must be finite"):
            ahat_matrix_det_sqrt(A)

    def test_beyond_the_spinor_module_rejected(self):
        with pytest.raises(ValueError, match="n <= 20, not 22"):
            berezin_supertrace_exp(np.zeros((22, 22)))

    @pytest.mark.parametrize("shape", [(0, 0), (3, 3), (2, 4), (2,)])
    def test_shapes_other_than_square_of_even_size_rejected(self, shape):
        with pytest.raises(ValueError, match="A must be square of even size"):
            berezin_supertrace_exp(np.zeros(shape))

    @pytest.mark.parametrize("n", range(2, 11))
    def test_volume_pairing_commutes_with_the_quadratic(self, n):
        # Γ e_s = g[s] e_{π(s)}, so (Γ Q)[s] = g[π(s)] Q[π(s)] and (Q Γ)[:, t] = Q[:, π(t)] g[t]
        module = ExteriorModule(n)
        g, perm = module._volume_pairing()
        B = np.random.default_rng(200 + n).normal(size=(n, n))
        quad = berezin_quadratic(B - B.T, module)
        assert np.array_equal(g[perm][:, None] * quad[perm], quad[:, perm] * g[None, :])
        assert not (perm == module._index).any()
        if n % 2 == 0:
            assert np.array_equal(g * g[perm], np.full(module.dim, 2.0**-n))  # Γ² = 2^{-n} I

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_eigenspace_bases_are_orthonormal(self, n):
        # the plan puts Fock vector s at position pos[s] of block χ[s]: the unit vectors of the two
        # blocks are together one permutation matrix, c(ω_C) is +1 on block 0 and -1 on block 1,
        # Q never crosses them, and the plan scatters exactly the two diagonal blocks of i·Q
        chirality, position, rows, cols, iw, starts, dest = spinrep._chirality_plan(n)
        space, half = SpinorSpace(n), 1 << (n // 2 - 1)
        V = np.zeros((space.dim, 2, half))
        V[np.arange(space.dim), chirality, position] = 1
        flat = V.reshape(space.dim, space.dim)
        assert np.array_equal(flat.T @ flat, np.eye(space.dim))
        omega = space.c_omega()
        assert np.array_equal(omega @ V[:, 0], V[:, 0]) and np.array_equal(omega @ V[:, 1], -V[:, 1])
        B = np.random.default_rng(300 + n).normal(size=(n, n))
        A = B - B.T
        iq = 1j * sum(A[i, j] * space.c(i + 1) @ space.c(j + 1) for i, j in combinations(range(n), 2))
        assert not (V[:, 0].T @ iq @ V[:, 1]).any() and not (V[:, 1].T @ iq @ V[:, 0]).any()
        scattered = np.zeros(2 * half * half, dtype=complex)
        scattered[dest] = np.add.reduceat(A[rows, cols][:, None] * iw, starts, axis=0)
        for block in range(2):
            want = V[:, block].T @ iq @ V[:, block]
            assert np.abs(scattered.reshape(2, half, half)[block] - want).max() <= 1e-14

    @pytest.mark.parametrize("n, draws", [(2, 6), (4, 6), (6, 4), (8, 2)])
    def test_left_side_matches_the_dense_reference(self, n, draws):
        rng = np.random.default_rng(100 + n)
        for _ in range(draws):
            B = rng.normal(size=(n, n)) * 0.4
            A = B - B.T
            lhs, _ = berezin_supertrace_exp(A)
            assert abs(lhs - dense_berezin_lhs(A)) <= 1e-12

    @pytest.mark.parametrize(
        "lams",
        [
            (0.3, 1.1, 2.0),
            (0.4, 0.9, 1.7, 2.6),
            (2.9, 0.05, 1.3, 0.7),
            (0.3, 1.1, 2.0, 2.7, 0.6),
            (0.25, 0.5, 0.75, 1.0, 1.25, 2.9),
            (0.1, 0.4, 0.8, 1.2, 1.6, 2.0, 2.4, 2.8),
            (0.15, 0.45, 0.7, 0.95, 1.3, 1.55, 1.8, 2.15, 2.5, 3.05),
        ],
    )
    def test_rotated_blocks_give_the_sine_product(self, lams):
        A = rotated_blocks(lams, np.random.default_rng(len(lams)))
        want = math.prod(-2j * math.sin(lam) for lam in lams)
        lhs, rhs = berezin_supertrace_exp(A)
        assert abs(lhs - want) <= 1e-10 * max(1.0, abs(want))
        assert abs(rhs - want) <= 1e-10 * max(1.0, abs(want))

    def test_parity_blocks_at_n8(self):
        # every c̃ⁱc̃ʲ keeps parity, so quad is block-diagonal; both blocks carry half of the left side
        lams = (0.35, 0.8, 1.25, 2.2)
        A = rotated_blocks(lams, np.random.default_rng(8))
        quad = berezin_quadratic(A, ExteriorModule(8))
        odd = np.array([s.bit_count() % 2 for s in range(1 << 8)], dtype=bool)
        assert not quad[np.ix_(odd, ~odd)].any() and not quad[np.ix_(~odd, odd)].any()
        assert quad[np.ix_(odd, odd)].any() and quad[np.ix_(~odd, ~odd)].any()
        lhs, rhs = berezin_supertrace_exp(A)
        want = math.prod(-2j * math.sin(lam) for lam in lams)
        assert abs(lhs - want) <= spinrep.BEREZIN_TOL
        assert abs(rhs - want) <= spinrep.BEREZIN_TOL

    @pytest.mark.parametrize("lam", [3.0, 3.5])
    def test_beyond_the_first_sinh_zero(self, lam):
        # spectral radius of -2A is 2λ ≥ 2π: a power series in B diverges here
        A = np.array([[0.0, lam], [-lam, 0.0]])
        lhs, rhs = berezin_supertrace_exp(A)
        want = -2j * math.sin(lam)
        assert abs(lhs - want) < 1e-10
        assert abs(rhs - want) < 1e-10

    def test_pole_rejected(self):
        # λ = π puts θ = 2π, where sin(θ/2) = 0
        A = np.array([[0.0, math.pi], [-math.pi, 0.0]])
        with pytest.raises(ValueError, match="pole"):
            ahat_matrix_det_sqrt(-2.0 * A)
        with pytest.raises(ValueError, match="pole"):
            berezin_supertrace_exp(A)

    def test_det_sqrt_closed_form_blocks(self):
        # block-diagonal B with rotation angles θ_j, conjugated by a rotation
        thetas = [0.0, 1.3, 7.5]
        B = np.zeros((7, 7))
        for j, th in enumerate(thetas[1:]):
            B[2 * j, 2 * j + 1], B[2 * j + 1, 2 * j] = th, -th
        q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(7, 7)))
        want = math.prod((th / 2) / math.sin(th / 2) for th in thetas[1:])
        assert abs(ahat_matrix_det_sqrt(q @ B @ q.T) - want) < 1e-10 * abs(want)
        assert ahat_matrix_det_sqrt(np.zeros((3, 3))) == 1.0

    def test_pfaffian_small_cases(self):
        assert pfaffian([[0, 3], [-3, 0]]) == 3
        rng = np.random.default_rng(5)
        for _ in range(10):
            B = rng.normal(size=(4, 4))
            A = B - B.T
            pf = pfaffian(A.tolist())
            assert abs(pf * pf - np.linalg.det(A)) < 1e-9


class TestSpinorSpace:
    def test_vacuum_maps_to_epsilon1(self):
        sp = SpinorSpace(2)
        # basis index 0 = vacuum, index 1 = ε₁
        out = sp.c(1) @ np.array([1.0, 0.0], dtype=complex)
        assert np.allclose(out, [0.0, 1.0])

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_clifford_relation_for_random_vectors(self, n):
        rng = np.random.default_rng(1)
        sp = SpinorSpace(n)
        for _ in range(20):
            v = rng.normal(size=n)
            cv = sum(coeff * sp.c(i) for i, coeff in enumerate(v, start=1))
            assert np.allclose(cv @ cv, -float(v @ v) * np.eye(sp.dim), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_dimension_and_span(self, n):
        sp = SpinorSpace(n)
        assert sp.dim == 2 ** (n // 2)
        assert dense_span_rank(sp) == sp.dim**2

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_generator_relations_exact(self, n):
        sp = SpinorSpace(n)
        ident = np.eye(sp.dim)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                anti = sp.c(i) @ sp.c(j) + sp.c(j) @ sp.c(i)
                assert np.array_equal(anti, -2.0 * (i == j) * ident)

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            SpinorSpace(3)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_words_equal_the_dense_products(self, n):
        sp = SpinorSpace(n)
        c = [sp.c(i) for i in range(1, n + 1)]
        phase = (1j) ** ((n + 1) // 2)
        assert np.array_equal(sp.c_omega(), phase * dense_word(c, range(1, n + 1), sp.dim))
        combos = [combo for r in range(n + 1) for combo in combinations(range(1, n + 1), r)]
        products = [dense_word(c, combo, sp.dim) for combo in combos]
        for combo, product in zip(combos, products):
            assert np.array_equal(sp._fock._dense(*sp._word(combo)), product)
        assert np.linalg.matrix_rank(np.array([p.reshape(-1) for p in products])) == sp.dim**2

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_span_equals_the_dense_rank(self, n):
        sp = SpinorSpace(n)
        assert dense_span_rank(sp) == sp.dim**2 == 4 ** (n // 2)

    def test_stores_no_dense_matrix(self):
        sp = SpinorSpace(20)
        arrays = [w for w, _ in sp.generators] + [w for w, _ in sp._fock._c + sp._fock._ct]
        assert all(w.shape == (sp.dim,) for w in arrays)


def chirality_split(sp: SpinorSpace) -> tuple[np.ndarray, np.ndarray]:
    """The reference: the dense projectors π± = (I ± c(ω))/2 onto the half-spinor spaces S±."""
    omega, ident = sp.c_omega(), np.eye(sp.dim)
    return (ident + omega) / 2, (ident - omega) / 2


class WrongFirstGenerator(SpinorSpace):
    """A wrong module: c(e_1) planted as i·c(e_1), which squares to +I, so c(ω)² = -I."""

    def __init__(self, n):
        super().__init__(n)
        w, mask = self.generators[0]
        self.generators[0] = (1j * w, mask)


class DuplicatedGenerator(SpinorSpace):
    """A wrong module: c(e_2) planted as a copy of c(e_1), so the words span less than End(S)."""

    def __init__(self, n):
        super().__init__(n)
        self.generators[1] = self.generators[0]


class DoubledModule(SpinorSpace):
    """A wrong module: S ⊕ S, each generator acting on both copies.  The relations, the chirality
    projectors and the span of the words (4^{n/2}, the span of End(S)) all hold; only dim S is 2^{n/2+1}."""

    def __init__(self, n):
        super().__init__(n)
        self.dim *= 2
        self._fock = ExteriorModule(self.k + 1)  # index arrays for 2^{k+1} basis vectors; the masks stay below 2^k
        self.generators = [(np.concatenate([w, w]), mask) for w, mask in self.generators]


def dense_span_rank(sp: SpinorSpace) -> int:
    """The reference: the rank of all increasing words of sp's generators as dense flattened matrices."""
    c = [sp.c(i) for i in range(1, sp.n + 1)]
    words = [combo for r in range(sp.n + 1) for combo in combinations(range(1, sp.n + 1), r)]
    return int(np.linalg.matrix_rank(np.array([dense_word(c, combo, sp.dim).reshape(-1) for combo in words])))


class TestChirality:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_projectors(self, n):
        sp = SpinorSpace(n)
        pp, pm = chirality_split(sp)
        assert np.allclose(pp @ pp, pp)
        assert np.allclose(pm @ pm, pm)
        assert np.allclose(pp @ pm, 0)
        assert np.allclose(pp + pm, np.eye(sp.dim))

    def test_half_dimensions_n2(self):
        sp = SpinorSpace(2)
        pp, pm = chirality_split(sp)
        assert round(np.trace(pp).real) == 1
        assert round(np.trace(pm).real) == 1

    @pytest.mark.parametrize("n", [2, 4])
    def test_clifford_action_swaps_chirality(self, n):
        sp = SpinorSpace(n)
        pp, pm = chirality_split(sp)
        c1 = sp.c(1)
        # c(e1) S+ ⊆ S-: pm c(e1) pp == c(e1) pp
        assert np.allclose(pm @ c1 @ pp, c1 @ pp, atol=1e-12)
        assert np.allclose(pp @ c1 @ pm, c1 @ pm, atol=1e-12)


class TestSharedResiduals:
    """The residuals behind both ``spingeo spinrep`` and the acceptance battery."""

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_exact_on_the_spinor_module(self, n):
        sp = SpinorSpace(n)
        assert relations_residual(sp) == 0.0
        assert chirality_residual(sp) == (0.0, (sp.dim // 2, sp.dim // 2))

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_relations_residual_equals_the_dense_anticommutator_max(self, n):
        sp = SpinorSpace(n)
        for planted in (None, 0, n - 1):
            if planted is not None:  # Gaussian integers still, so both sides stay exact
                w, mask = sp.generators[planted]
                sp.generators[planted] = (w * np.where(np.arange(sp.dim) % 3, 1, 1j), mask)
            c, ident = [sp.c(i) for i in range(1, n + 1)], np.eye(sp.dim)
            want = max(
                float(np.max(np.abs(c[i] @ c[j] + c[j] @ c[i] + 2.0 * (i == j) * ident)))
                for i in range(n)
                for j in range(i, n)
            )
            assert relations_residual(sp) == want and (want > 0) == (planted is not None)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_chirality_residual_equals_the_dense_projector_max(self, n):
        sp = SpinorSpace(n)
        for planted in (None, 0, n - 1):
            if planted is not None:  # Gaussian integers still, so both sides stay exact
                w, mask = sp.generators[planted]
                sp.generators[planted] = (w * np.where(np.arange(sp.dim) % 3, 1, 1j), mask)
            pp, pm = chirality_split(sp)
            identities = (pp @ pp - pp, pm @ pm - pm, pp @ pm, pp + pm - np.eye(sp.dim))
            want = max(float(np.max(np.abs(m))) for m in identities)
            dims = tuple(int(round(np.trace(p).real)) for p in (pp, pm))
            assert chirality_residual(sp) == (want, dims) and (want > 0) == (planted is not None)

    def test_relations_residual_at_the_largest_n_is_quick(self):
        # and the chirality residual: both read words, so neither builds a 1024 x 1024 matrix
        sp = SpinorSpace(SpinorSpace.MAX_N)
        start = time.perf_counter()
        assert relations_residual(sp) == 0.0
        assert chirality_residual(sp) == (0.0, (sp.dim // 2, sp.dim // 2))
        assert time.perf_counter() - start < 1.0

    def test_relations_residual_sees_a_wrong_generator(self):
        assert relations_residual(WrongFirstGenerator(4)) >= 1

    def test_chirality_residual_sees_wrong_projectors(self):
        # π±² - π± = ±(c(ω)² - I)/4 = ∓I/2
        assert chirality_residual(WrongFirstGenerator(2)) == (0.5, (1, 1))

    def test_one_plan_per_n_built_once(self, monkeypatch):
        built = []

        class Counted(SpinorSpace):
            def __init__(self, n):
                built.append(n)
                super().__init__(n)

        spinrep._chirality_plan.cache_clear()
        monkeypatch.setattr(spinrep, "SpinorSpace", Counted)
        berezin_residual(4, 5, seed=2)
        berezin_residual(4, 5, seed=3)
        assert built == [4]
        assert acceptance.criterion_berezin().passed
        assert built == [4, 2]
        plan = spinrep._chirality_plan(2)
        assert plan is spinrep._chirality_plan(2) and built == [4, 2]
        assert not any(array.flags.writeable for array in plan)
        spinrep._chirality_plan.cache_clear()  # later tests build their plans from SpinorSpace itself

    def test_a_shared_module_gives_each_matrix_its_own_bits(self):
        # every call at one n reads the one cached plan of the spinor module; a fresh plan, with the
        # matrices in the other order, gives each the same bits
        rng = np.random.default_rng(12)
        mats = [B - B.T for B in rng.normal(size=(3, 6, 6))]
        shared = [repr(berezin_supertrace_exp(A)) for A in mats]
        spinrep._chirality_plan.cache_clear()
        assert [repr(berezin_supertrace_exp(A)) for A in mats[::-1]] == shared[::-1]
        module = ExteriorModule(6)  # relative_supertrace's volume pairing is built once per module
        assert module._volume_pairing() is module._volume_pairing()

    def test_berezin_residual_is_seeded(self):
        assert berezin_residual(4, 3, seed=9) == berezin_residual(4, 3, seed=9) <= 1e-10
        with pytest.raises(ValueError, match="trials must be at least 1"):
            berezin_residual(4, 0, seed=9)


def _plant_berezin_error(monkeypatch, size=None):
    """Make the Berezin sides, which berezin_supertrace_exp, berezin_residual and criterion 6
    share, report rhs = lhs + 1e-9 (on size x size input only, if given)."""
    exact = spinrep._berezin_sides

    def planted(A):
        lhs, rhs = exact(A)
        return (lhs, lhs + 1e-9) if size in (None, len(A)) else (lhs, rhs)

    monkeypatch.setattr(spinrep, "_berezin_sides", planted)


class TestSharedChecksCanFail:
    def test_cli_berezin_fails_through_the_shared_function(self, monkeypatch, capsys):
        _plant_berezin_error(monkeypatch)
        code = main(["spinrep", "2", "--check", "berezin", "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert code == 1 and data["passed"] is False
        assert data["results"]["berezin_residual"] == pytest.approx(1e-9)

    def test_criterion_berezin_fails_through_the_shared_function(self, monkeypatch):
        _plant_berezin_error(monkeypatch)
        assert not acceptance.criterion_berezin().passed

    def test_criterion_berezin_fails_on_its_random_draws(self, monkeypatch):
        # the λ sweep is 2x2, so a planted error on 4x4 input only reaches the random draws
        _plant_berezin_error(monkeypatch, size=4)
        result = acceptance.criterion_berezin()
        assert not result.passed and "1.00e-09" in result.detail

    @pytest.mark.parametrize(
        "name, planted, criteria",
        [
            ("relations", lambda sp: 1e-11, ("spinor_representation", "substitution_suites")),
            ("chirality", lambda sp: (1e-11, (sp.dim // 2,) * 2), ("spinor_representation",)),
        ],
    )
    def test_relations_and_chirality_fail_in_cli_and_criteria(self, monkeypatch, capsys, name, planted, criteria):
        monkeypatch.setattr(spinrep, f"{name}_residual", planted)
        assert main(["spinrep", "2", "--check", name]) == 1
        assert "FAIL" in capsys.readouterr().out
        for criterion in criteria:
            assert not getattr(acceptance, f"criterion_{criterion}")().passed

    def test_a_wrong_module_is_a_failed_check_not_bad_input(self, monkeypatch, capsys):
        monkeypatch.setattr(spinrep, "SpinorSpace", WrongFirstGenerator)
        assert main(["spinrep", "4", "--check", "chirality"]) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out and "chirality_residual = 0.5" in captured.out and captured.err == ""
        assert not acceptance.criterion_spinor_representation().passed
        assert not acceptance.criterion_substitution_suites().passed  # through the relations residual

    def test_a_duplicated_generator_drops_the_span_and_fails_criterion_4(self, monkeypatch, capsys):
        for n in (2, 4, 6):
            assert dense_span_rank(DuplicatedGenerator(n)) < 4 ** (n // 2)
        monkeypatch.setattr(spinrep, "SpinorSpace", DuplicatedGenerator)
        # c(e_1)c(e_2) + c(e_2)c(e_1) = 2c(e_1)² = -2I where 0 belongs
        result = acceptance.criterion_spinor_representation()
        assert not result.passed and result.detail == "relations residual 2.00e+00 at n=2"
        assert main(["spinrep", "2", "--check", "relations"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_a_doubled_module_spans_end_s_but_fails_criterion_4_on_its_dimension(self, monkeypatch):
        for n in (2, 4, 6):
            sp = DoubledModule(n)
            assert sp.dim == 2 ** (n // 2 + 1)
            assert relations_residual(sp) == 0.0 and chirality_residual(sp) == (0.0, (sp.dim // 2,) * 2)
            assert dense_span_rank(sp) == 4 ** (n // 2)  # what the retired span check compared with
        monkeypatch.setattr(spinrep, "SpinorSpace", DoubledModule)
        result = acceptance.criterion_spinor_representation()
        assert not result.passed and result.detail == "dim S = 4, not 2, at n=2"

    def test_criterion_checks_half_spinor_dimensions(self, monkeypatch):
        monkeypatch.setattr(spinrep, "chirality_residual", lambda sp: (0.0, (sp.dim, 0)))
        assert not acceptance.criterion_spinor_representation().passed
