"""Spin groups, spinor representations, and relative supertraces.

Covers the twisted adjoint action (reflections and the double cover of
SO(n)), the Lie algebra isomorphism spin(n) ≅ so(n), the complex spinor
representation on Λ(V^{1,0}) for even n, the exterior Clifford module with
the two multiplications c and c̃, the relative supertrace, and the
Berezin/Pfaffian formula for supertraces of quadratic exponentials.

Normalization convention
------------------------
The relative supertrace is ``2^{-n/2} * tr(γ · c(ω_C) · F)``.  With this
constant the top-degree value is ``str c̃(e^1 ... e^n) = (-2i)^{n/2}`` and
the Berezin formula ``str exp(½ Σ A_ij c̃(e^i) c̃(e^j)) = Pf(-2iA) /
det^{1/2} Â(-2A)`` holds; see :func:`relative_supertrace`.  The constant is
exposed as :data:`RELATIVE_SUPERTRACE_NORMALIZATION` and pinned by the n = 2
consistency check in the test suite.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import combinations

# clifford first: compiled from source on top of numpy's heap, it raised `spinrep`'s peak RSS 0.6 MB
from . import clifford
from .clifford import QI, Multivector, Signature

import numpy as np

from .pfaffian import pfaffian  # re-exported: spingeo.spinrep.pfaffian

#: The constant kappa(n) in str^{E/S} F = kappa(n) * tr(gamma c(omega) F).
#: Pinned to 2^{-n/2} by a dense n = 2 computation of both sides of the
#: Berezin formula (the alternative (2i)^{-n/2} fails it by a phase).
RELATIVE_SUPERTRACE_NORMALIZATION = lambda n: 2.0 ** (-n / 2)


# -- twisted adjoint and Spin ------------------------------------------------

def twisted_adjoint(x: Multivector, w: Multivector) -> Multivector:
    """The twisted adjoint action ρ̃(x)(w) = ε(x) w x^{-1}."""
    return x.grade_involution() * w * x.clifford_inverse()


def reflection_formula(v: Multivector, w: Multivector) -> Multivector:
    """w - 2 (g(v,w)/g(v,v)) v for degree-1 v, w; the hyperplane reflection."""
    if v.grades() - {1} or w.grades() - {1}:
        raise ValueError("reflection formula needs degree-1 arguments")
    # g(v, w) = -(vw + wv)/2 scalar part under the convention v*v = -g(v,v)
    gvw = -((v * w + w * v) / 2).scalar_part()
    gvv = -(v * v).scalar_part()
    if gvv == 0:
        raise ValueError("null vector cannot be inverted")
    return w - (2 * gvw / gvv) * v


def twisted_adjoint_matrix(x: Multivector) -> np.ndarray:
    """Matrix of ρ̃(x) restricted to the degree-1 subspace.

    One pass over the term pairs (a of x, b of x⁻¹) fills all n columns, since
    ε(a) e_a e_j e_b = ±e_(a⊕b⊕j): the pair adds ±ca·cb to the coefficient of
    e_(c⊕j) in column j, c = a ⊕ b, with the sign of bit j of one word per pair.
    Each column sums as the products ε(x) e_j x⁻¹ do, bit for bit.  Complex x
    whose term pairs ``clifford._kernel_pays`` for sums in ``clifford._pair_sums``,
    each word selecting the columns its pair negates.  Exact x (int, Fraction or
    QI) sums on integers: entry (i, j) is M[i][j] / N of :func:`twisted_adjoint_numerators`.
    """
    sig, n, kinds = x.signature, x.signature.n, set(map(type, x.terms.values()))
    if kinds <= clifford._EXACT:
        N, M = twisted_adjoint_numerators(x)  # 0 / N is -0.0 for N < 0; the exact 0 gives 0.0
        return np.array([[complex(m / N) if m else 0j for m in row] for row in M], dtype=complex).reshape(n, n)
    neg = (1 << sig.p) - 1
    inverse = x.clifford_inverse().terms  # complex where x is
    right = [(b, cb, clifford._sign_mask(b, neg, n)) for b, cb in inverse.items()]
    lwords = _left_words(x.terms, neg, n)
    if kinds == {complex} and clifford._kernel_pays(len(x.terms), len(right), n):
        parts = clifford._components(x.terms), clifford._components(inverse)
        blades, (re, im) = clifford._pair_sums(x.terms, inverse, [m for _, _, m in right], *parts, (lwords, n))
        acc = np.empty(re.shape, dtype=complex)
        acc.real, acc.imag = re, im
        sums = dict(zip(blades, acc.tolist()))
    else:
        sums = _twisted_loop(x.terms, lwords, right, n)
    touched = ((c ^ 1 << j, v) for c, acc in sums.items() for j, v in enumerate(acc))
    if any(blade.bit_count() != 1 and abs(complex(v)) > 1e-9 for blade, v in touched):
        raise ValueError("twisted adjoint did not preserve degree 1")
    zeros, cols = [0] * n, range(n)
    return np.array(
        [[complex(sums.get(1 << i ^ 1 << j, zeros)[j]) for j in cols] for i in cols], dtype=complex
    ).reshape(n, n)


def twisted_adjoint_numerators(x: Multivector) -> tuple:
    """(N, M) with ρ̃(x) = M / N, for x with int, Fraction or QI coefficients.

    X is x over a common denominator: integers, or Gaussian integers as QI.  N = X·X̄ must be a
    nonzero scalar; M[i][j] is the e_i coefficient of ε(X)·e_j·X̄, whose terms off degree 1 must be 0.
    :func:`_twisted_loop` sums both on ints, X·X̄ in an unsigned column n; Gaussian X = R + iI takes
    four passes, ε(R)e_jR̄ − ε(I)e_jĪ + i(ε(R)e_jĪ + ε(I)e_jR̄).
    """
    sig, n, neg = x.signature, x.signature.n, (1 << x.signature.p) - 1
    gaussian = QI in set(map(type, x.terms.values()))
    nums = clifford._numerators(x.terms.values(), gaussian)[1]
    X = Multivector._make(sig, dict(zip(x.terms, [QI(*c) for c in nums] if gaussian else nums)))
    words = _left_words(X.terms, neg, n)
    right = [(b, cb, clifford._sign_mask(b, neg, n)) for b, cb in X.clifford_conjugate().terms.items()]
    if gaussian:
        left = [{a: int(getattr(c, k)) for a, c in X.terms.items()} for k in ("re", "im")]
        right = [[(b, int(getattr(cb, k)), m) for b, cb, m in right] for k in ("re", "im")]
        rr, ii, ri, ir = (_twisted_loop(left[s], words, right[t], n + 1) for s, t in ((0, 0), (1, 1), (0, 1), (1, 0)))
        sums = {c: [QI(a - b, e + f) for a, b, e, f in zip(rr[c], ii[c], ri[c], ir[c])] for c in rr}
    else:
        sums = _twisted_loop(X.terms, words, right, n + 1)
    zeros = [0] * (n + 1)
    if not sums.get(0, zeros)[n] or any(acc[n] for c, acc in sums.items() if c):
        raise ValueError("element has no scalar norm; cannot invert")
    if any(v and (c ^ 1 << j).bit_count() != 1 for c, acc in sums.items() for j, v in enumerate(acc[:n])):
        raise ValueError("twisted adjoint did not preserve degree 1")
    return sums[0][n], [[sums.get(1 << i ^ 1 << j, zeros)[j] for j in range(n)] for i in range(n)]


def _left_words(blades, neg: int, n: int) -> list[int]:
    """Bit j of blade a's word is the sign parity of ε(e_a) e_a e_j = (−1)^[j ∈ a] e_j e_a, so a ⊕ m_a;
    e_(a⊕j) e_b then adds bit j of m_b and the parity of a & m_b."""
    return [a ^ clifford._sign_mask(a, neg, n) for a in blades]


def _twisted_loop(terms: dict, lwords: list[int], right: list[tuple], n: int) -> dict[int, list]:
    """c ↦ [coefficient of e_(c⊕j) in column j for j < n], summed pair by pair: a of ``terms``
    with its word in ``lwords``, then (b, cb, m_b) of ``right``; each pair negates the
    columns set in its sign word."""
    low, cols = (1 << n) - 1, range(n)
    sums = {}
    for (a, ca), signs in zip(terms.items(), lwords):
        for b, cb, m in right:
            prod = ca * cb
            flip = -prod
            cs = signs ^ m ^ (low if (a & m).bit_count() & 1 else 0)
            acc = sums.get(a ^ b)
            if acc is None:
                acc = sums[a ^ b] = [0] * n
            for j in cols:
                acc[j] += flip if cs >> j & 1 else prod
    return sums


def spin_rotation(i: int, j: int, t: float, sig: Signature) -> Multivector:
    """cos(t) + sin(t) e_i e_j; its twisted adjoint is rotation by 2t in (i,j)."""
    if i == j:
        raise ValueError("spin rotation needs distinct axes")
    sig = Signature(*sig)
    return Multivector.scalar(complex(math.cos(t)), sig) + Multivector.blade(
        sorted((i, j)), sig, complex(math.sin(t)) * (1 if i < j else -1)
    )


def lie_iso(i: int, j: int, n: int) -> np.ndarray:
    """Image of e_i e_j ∈ spin(n) in so(n): the matrix of 2 e_i ∧ e_j.

    With (v ∧ w)(x) = v g(w,x) - w g(v,x), the generator e_i e_j maps to
    2(E_ji - E_ij) for i < j (indices 1-based).
    """
    if i == j:
        raise ValueError("need i != j")
    a = np.zeros((n, n))
    a[j - 1, i - 1] = 2.0
    a[i - 1, j - 1] = -2.0
    return a


def lie_iso_inv(a: np.ndarray, sig: Signature) -> Multivector:
    """Inverse of the spin(n) ≅ so(n) isomorphism: v ∧ w ↦ ¼[v, w].

    Accepts any antisymmetric matrix a = Σ a_ij e_i ∧ e_j (i < j entries
    a[j-1, i-1]) and returns the corresponding element of spin(n).
    """
    sig = Signature(*sig)
    n = sig.n
    if a.shape != (n, n):
        raise ValueError("matrix size must match the signature dimension")
    out = Multivector.zero(sig)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            coeff = a[j - 1, i - 1]
            if coeff != 0:
                # e_i ∧ e_j ↦ ¼ [e_i, e_j] = ½ e_i e_j
                out = out + Multivector.blade((i, j), sig, coeff * Fraction(1, 2))
    return out


# -- exterior-algebra machinery ----------------------------------------------

class ExteriorModule:
    """The Clifford module Λ(R^n) ⊗ C with both multiplications.

    ``c(e^i) = e^i ∧ - ι_i`` generates a Cl(n, 0) action ({c, c} = -2δ),
    while ``c̃(e^i) = e^i ∧ + ι_i`` generates the opposite-sign action
    ({c̃, c̃} = +2δ); the two anticommute.  In the subset basis e_s (s a
    bitmask, b_i = 2^{i-1}) both are signed permutations:
    c̃(e^i) e_s = σ_i(s) e_{s ⊕ b_i} with σ_i(s) = (-1)^{|s ∩ (b_i - 1)|}, and
    c(e^i) carries the extra sign -1 where b_i ∈ s.  The module keeps each
    generator as the pair (w, b_i) of its ±1 vector and bit, composes words
    of such pairs on index arrays, and builds the dense 2^n-dimensional
    matrices on request, so n is at most :attr:`MAX_N`.
    """

    #: Largest n: ``c``, ``c_word``, ``gamma`` and the other matrices are built dense on request,
    #: and at n = 12 each is a 4096 × 4096 complex matrix of 256 MiB.
    MAX_N = 12

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be positive")
        if n > self.MAX_N:
            raise ValueError(f"the exterior module is built for n <= {self.MAX_N}, not {n}")
        self.n = n
        self.dim = 1 << n
        self._index = np.arange(self.dim)
        self._grading = np.array([-1.0 if s.bit_count() % 2 else 1.0 for s in range(self.dim)])
        self._ct, self._c = [], []
        for i in range(n):
            bit = 1 << i
            sigma = self._grading[self._index & (bit - 1)]
            self._ct.append((sigma, bit))
            self._c.append((np.where(self._index & bit, -sigma, sigma), bit))
        self._pairing = None

    def _word(self, gens, indices) -> tuple[np.ndarray, int]:
        """(w, m) with M_{i_1} ... M_{i_k} e_s = w[s] e_{s ⊕ m}, where gens[i-1] = (w_i, m_i) is M_i's pair."""
        w, mask = np.ones(self.dim), 0
        for i in indices:
            wi, mi = gens[i - 1]
            w = wi * w[self._index ^ mi]
            mask ^= mi
        return w, mask

    def _dense(self, w: np.ndarray, mask: int) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        out[self._index ^ mask, self._index] = w
        return out

    def _volume_pairing(self) -> tuple[np.ndarray, np.ndarray]:
        """(g, π) with 2^{-n/2} γ c(ω_C) e_s = g[s] e_{π[s]}, so str^{E/S} F = Σ_s g[s] F[s, π[s]].

        Built on the first call and shared by later ones, which only read it."""
        if self._pairing is None:
            w, mask = self._word(self._c, range(1, self.n + 1))
            phase = RELATIVE_SUPERTRACE_NORMALIZATION(self.n) * (1j) ** ((self.n + 1) // 2)
            perm = self._index ^ mask
            self._pairing = phase * w * self._grading[perm], perm
        return self._pairing

    @property
    def gamma(self) -> np.ndarray:
        """The grading (-1)^{|s|} as a diagonal matrix."""
        return np.diag(self._grading).astype(complex)

    def c(self, i: int) -> np.ndarray:
        return self._dense(*self._c[i - 1])

    def c_tilde(self, i: int) -> np.ndarray:
        return self._dense(*self._ct[i - 1])

    def c_word(self, indices) -> np.ndarray:
        """c(e^{i_1}) ... c(e^{i_k})."""
        return self._dense(*self._word(self._c, indices))

    def c_tilde_word(self, indices) -> np.ndarray:
        return self._dense(*self._word(self._ct, indices))

    def c_omega(self) -> np.ndarray:
        """c of the complex volume element i^{⌊(n+1)/2⌋} e^1 ... e^n."""
        return (1j) ** ((self.n + 1) // 2) * self.c_word(range(1, self.n + 1))

    def c_tilde_omega(self) -> np.ndarray:
        return (1j) ** ((self.n + 1) // 2) * self.c_tilde_word(range(1, self.n + 1))


def relative_supertrace(F: np.ndarray, module: ExteriorModule) -> complex:
    """str^{E/S} F = 2^{-n/2} tr(γ c(ω_C) F) on the exterior module.

    Since γ ∘ c(ω_C) = c̃(ω_C) this equals 2^{-n/2} tr(c̃(ω_C) F); the
    supertrace of c̃(e^I) vanishes for \\|I\\| < n and is (-2i)^{n/2} on the
    top monomial.  γ c(ω_C) is a signed permutation, so only the 2^n entries
    F[s, π(s)] it pairs with are read.
    """
    if module.n % 2:
        raise ValueError("relative supertrace needs even n")
    g, perm = module._volume_pairing()
    return complex(g @ F[module._index, perm])


# -- Berezin / Pfaffian -------------------------------------------------------

#: |sin(θ/2)| at or below this, for θ ≥ 2π, is a pole of (θ/2)/sin(θ/2).
_POLE_TOL = 1e-12
#: Largest |B + Bᵀ| an antisymmetric input may have.
_ANTISYMMETRY_TOL = 1e-12


def ahat_matrix_det_sqrt(B: np.ndarray) -> float:
    """det^{1/2} Â(B) for a real antisymmetric matrix, in closed form.

    With Â(x) = (x/2)/sinh(x/2) and the eigenvalues of B written ±iθ_j
    (θ_j² are the eigenvalues of -B² = BᵀB, each appearing twice),
    Â(±iθ_j) = (θ_j/2)/sin(θ_j/2), so the square root that is analytic in B
    with value 1 at B = 0 is Π_j (θ_j/2)/sin(θ_j/2).  Raises ``ValueError``
    for a non-finite or non-antisymmetric B and at the poles, sin(θ_j/2) = 0
    with θ_j ≠ 0.
    """
    B = np.asarray(B, dtype=float)
    m = B.shape[0]
    if B.shape != (m, m):
        raise ValueError("B must be square")
    if not np.isfinite(B).all():
        raise ValueError("B must be finite")
    if m and np.max(np.abs(B + B.T)) > _ANTISYMMETRY_TOL:
        raise ValueError("B must be antisymmetric")
    mu = np.linalg.eigvalsh(B.T @ B).tolist()  # ascending: the θ_j² in pairs, one extra 0 if m is odd
    det_sqrt = 1.0
    for low, high in zip(mu[m % 2 :: 2], mu[m % 2 + 1 :: 2]):
        theta = math.sqrt(max((low + high) / 2, 0.0))
        if theta:
            half = math.pi * (theta / (2 * math.pi))  # θ/2 rounded as numpy.sinc rounds it
            sine = math.sin(half)
            if theta > math.pi and abs(sine) <= _POLE_TOL:
                raise ValueError(f"det^1/2 Â(B) has a pole: sin(θ/2) = 0 at θ = {theta:.12g}")
            det_sqrt *= 1.0 / (sine / half)
    return det_sqrt


def berezin_supertrace_exp(A: np.ndarray) -> tuple[complex, complex]:
    """Both sides of str^{E/S} exp(½ A_ij c̃(e^i) c̃(e^j)) = Pf(-2iA)/det^{1/2}Â(-2A), n ≤ 20.

    E ≅ S ⊗ S* as a Cl(n)-bimodule (c on the spinor module S, c̃ on S*), and str^{E/S} is the
    supertrace over the twisting factor (Berline–Getzler–Vergne, §3.2).  So the left side is
    tr(c(ω_C) e^Q) on S, with Q = Σ_{i<j} A_ij c(e_i) c(e_j): Q is even and c(ω_C) diagonal, so Q has
    one block on each of S± (:func:`_chirality_plan`), and tr e^Q|S± = Σ e^{-iw} over the eigenvalues
    w of the Hermitian i·Q|S±.  The right side uses the Pfaffian and the closed form of
    :func:`ahat_matrix_det_sqrt`, so it equals Π_j (-2i sin λ_j) when A has the rotation blocks λ_j.
    Returns ``(lhs, rhs)``; raises ``ValueError`` for a non-finite or non-antisymmetric A, beyond
    :attr:`SpinorSpace.MAX_N` and where the right side has a pole.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] % 2 or not A.size:
        raise ValueError("A must be square of even size")
    return _berezin_sides(A)


def _berezin_sides(A: np.ndarray) -> tuple[complex, complex]:
    """:func:`berezin_supertrace_exp` of a float A of even size, on the cached plan of its size."""
    if not np.isfinite(A).all():
        raise ValueError("A must be finite")
    if np.max(np.abs(A + A.T)) > _ANTISYMMETRY_TOL:
        raise ValueError("A must be antisymmetric")
    _, _, rows, cols, iw, starts, dest = _chirality_plan(A.shape[0])
    half = iw.shape[1] // 2
    iq = np.zeros(2 * half * half, dtype=complex)
    iq[dest] = np.add.reduceat(A[rows, cols][:, None] * iw, starts, axis=0)
    w = np.linalg.eigvalsh(iq.reshape(2, half, half))  # (S±, 2^{n/2-1})
    plus, minus = np.exp(-1j * w).sum(axis=1)
    rhs = pfaffian(-2j * A) / ahat_matrix_det_sqrt(A.T - A)  # -2A, exactly antisymmetric
    return complex(plus - minus), complex(rhs)


@cache
def _chirality_plan(n: int) -> tuple:
    """(χ, pos, rows, cols, i·w, starts, dest): how i·Q of :func:`_berezin_sides` scatters on S.

    The word of all n generators has mask 0, so c(ω_C) is diagonal: Fock vector s lies in S₊ for
    χ[s] = 0 and in S₋ for χ[s] = 1, at position pos[s] = s >> 1 of its block, since c(e_1) is odd
    and moves e_s to e_{s ⊕ 1}.  (rows[p], cols[p]) is the p-th pair i < j, in the order of the mask
    m of c(e_i) c(e_j) e_s = w[s] e_{s ⊕ m}; row p of ``i·w`` is i times that w, and ``starts``
    holds the first pair of each mask.  The pairs of one mask sum to one vector, whose entry s lands
    at flat index dest[mask, s] = (χ[s], pos[s ⊕ m], pos[s]) of the stacked (2, 2^{n/2-1},
    2^{n/2-1}) blocks: Q is even, so it never crosses them.  Built once per even n ≤
    :attr:`SpinorSpace.MAX_N`; the arrays are read-only.
    """
    space = SpinorSpace(n)
    chirality = (space._omega()[0].real < 0).astype(np.intp)
    index, half = np.arange(space.dim), space.dim // 2
    position, gens = index >> 1, space.generators
    pairs = sorted(combinations(range(n), 2), key=lambda ij: gens[ij[0]][1] ^ gens[ij[1]][1])
    words = [space._word((i + 1, j + 1)) for i, j in pairs]
    masks, starts = np.unique([m for _, m in words], return_index=True)
    dest = (chirality * half + position[index ^ masks[:, None]]) * half + position
    rows, cols = np.array(pairs).T
    plan = chirality, position, rows, cols, 1j * np.array([w for w, _ in words]), starts, dest
    for array in plan:
        array.setflags(write=False)
    return plan


# -- complex spinor representation -------------------------------------------

class SpinorSpace:
    """The spinor module Λ(V^{1,0}) for Cl(n, 0) ⊗ C, n = 2k even.

    The basis pairs (e_{2j-1}, e_{2j}) give isotropic generators
    ε_j = (e_{2j-1} - i e_{2j})/√2 and the action c(v) = √2 (v^{1,0} ∧ -
    ι_{v^{0,1}}) becomes c(e_{2j-1}) = a_j† - a_j, c(e_{2j}) = i(a_j† + a_j)
    in terms of fermionic creation/annihilation operators on Λ(C^k), that is
    c(e^j) and i c̃(e^j) of the exterior module Λ(C^k), kept as its pairs
    (w, m) with c(e_i) e_s = w[s] e_{s ⊕ m}; w holds Gaussian integers, exact
    even in floats.  Dense matrices are built on request, so n ≤ :attr:`MAX_N`.
    """

    #: Largest n: one dense 1024 × 1024 complex matrix, built on request, is 16 MiB.
    MAX_N = 20

    def __init__(self, n: int):
        if n < 2 or n % 2:
            raise ValueError("spinor representation implemented for even n >= 2")
        if n > self.MAX_N:
            raise ValueError(f"spinor representation implemented for n <= {self.MAX_N}, not {n}")
        self.n = n
        self.k = n // 2
        self.dim = 1 << self.k
        self._fock = ExteriorModule(self.k)
        self.generators = []
        for (w, bit), (wt, _) in zip(self._fock._c, self._fock._ct):
            self.generators += [(w, bit), (1j * wt, bit)]  # c(e_{2j-1}) = a_j† - a_j, c(e_{2j}) = i(a_j† + a_j)

    def _word(self, indices) -> tuple[np.ndarray, int]:
        return self._fock._word(self.generators, indices)

    def c(self, i: int) -> np.ndarray:
        """Matrix of Clifford multiplication by e_i."""
        return self._fock._dense(*self.generators[i - 1])

    def _omega(self) -> tuple[np.ndarray, int]:
        """(d, m) with c(ω_C) e_s = d[s] e_{s ⊕ m}, ω_C = i^{⌊(n+1)/2⌋} e_1 ... e_n the complex volume element."""
        w, mask = self._word(range(1, self.n + 1))
        return (1j) ** ((self.n + 1) // 2) * w, mask

    def c_omega(self) -> np.ndarray:
        """Chirality operator: the action of the complex volume element."""
        return self._fock._dense(*self._omega())


# -- residuals of the spinor checks, for ``spingeo spinrep`` and the battery --

RELATIONS_TOL = 1e-12
CHIRALITY_TOL = 1e-12
BEREZIN_TOL = 1e-10


def relations_residual(space: SpinorSpace) -> float:
    """max over i ≤ j of |c(e_i)c(e_j) + c(e_j)c(e_i) + 2δ_ij I| (entrywise), read off the words' w:
    both words map each e_s to a multiple of the same e_{s ⊕ m}, which is e_s for i = j."""
    worst = 0.0
    for i in range(1, space.n + 1):
        for j in range(i, space.n + 1):
            (w_ij, _), (w_ji, _) = space._word((i, j)), space._word((j, i))
            worst = max(worst, float(np.max(np.abs(w_ij + w_ji + 2.0 * (i == j)))))
    return worst


def chirality_residual(space: SpinorSpace) -> tuple[float, tuple[int, int]]:
    """Worst of π±² = π±, π₊π₋ = 0 and π₊ + π₋ = I for π± = (I ± c(ω))/2, with (dim S₊, dim S₋) = (dim ±
    tr c(ω))/2, read off the word (d, m) of c(ω): π±² - π± = ±(c(ω)² - I)/4 and π₊π₋ = (I - c(ω)²)/4,
    π₊ + π₋ = I holds exactly, c(ω)² e_s = d[s] d[s ⊕ m] e_s, and tr c(ω) is Σd for m = 0, else 0."""
    d, mask = space._omega()
    residual = float(np.max(np.abs(d * d[np.arange(space.dim) ^ mask] - 1))) / 4
    plus = int(round((space.dim + (0.0 if mask else float(d.sum().real))) / 2))
    return residual, (plus, space.dim - plus)


def berezin_residual(n: int, trials: int, seed: int) -> float:
    """Worst |lhs - rhs| of :func:`berezin_supertrace_exp` over seeded A = B - Bᵀ, B = 0.4·N(0, 1).

    n must be even with 2 ≤ n ≤ :attr:`SpinorSpace.MAX_N`, checked before any A is drawn; every
    trial reads the one cached :func:`_chirality_plan` of n."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, not {trials}")
    if n < 2 or n % 2:
        raise ValueError(f"the Berezin check needs an even n >= 2, not {n}")
    _chirality_plan(n)  # raises beyond SpinorSpace.MAX_N
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        B = rng.normal(size=(n, n)) * 0.4
        lhs, rhs = _berezin_sides(B - B.T)
        worst = max(worst, abs(lhs - rhs))
    return worst
