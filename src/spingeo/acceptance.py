"""The package's acceptance checks, shared by the test suite and the CLI.

Each ``criterion_*`` function performs one end-to-end verification and
returns a :class:`CheckResult`; :func:`run_all` executes the full battery.
Randomized checks take an explicit seed so runs are reproducible.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np

from . import cech, chern_weil, classification, clifford, index_lab, spinrep
from .clifford import Multivector, Signature
from .records import Record


class CheckResult(Record):
    __slots__ = _fields = ("name", "passed", "detail")


# 1 ---------------------------------------------------------------------------

_TABLE1 = {
    1: (("C", 1, False), ("R", 1, True)),
    2: (("H", 1, False), ("R", 2, False)),
    3: (("H", 1, True), ("C", 2, False)),
    4: (("H", 2, False), ("H", 2, False)),
    5: (("C", 4, False), ("H", 2, True)),
    6: (("R", 8, False), ("H", 4, False)),
    7: (("R", 8, True), ("C", 8, False)),
    8: (("R", 16, False), ("R", 16, False)),
}


def criterion_classification_table() -> CheckResult:
    """classify_real reproduces all 16 golden entries for n = 1..8."""
    bad = []
    for n, (pos, neg) in _TABLE1.items():
        got_pos = classification.classify_real(n, 0)
        got_neg = classification.classify_real(0, n)
        if (got_pos.base, got_pos.size, got_pos.doubled) != pos:
            bad.append(f"Cl({n},0) -> {got_pos}")
        if (got_neg.base, got_neg.size, got_neg.doubled) != neg:
            bad.append(f"Cl(0,{n}) -> {got_neg}")
    return CheckResult(
        "classification golden table",
        not bad,
        "all 16 entries match" if not bad else "; ".join(bad),
    )


# 2 ---------------------------------------------------------------------------

def criterion_periodicity() -> CheckResult:
    """Mod-8 real periodicity (sizes x16) and mod-2 complex periodicity (x2)."""
    ok = True
    notes = []
    for n in range(0, 17):
        a = classification.classify_real(n, 0)
        b = classification.classify_real(n + 8, 0)
        if not (b.base == a.base and b.doubled == a.doubled and b.size == 16 * a.size):
            ok = False
            notes.append(f"real period fails at n={n}")
    for n in range(0, 17):
        a = classification.classify_complex(n)
        b = classification.classify_complex(n + 2)
        if not (b.doubled == a.doubled and b.size == 2 * a.size):
            ok = False
            notes.append(f"complex period fails at n={n}")
    for p in range(0, 9):
        for q in range(0, 9):
            t = classification.classify_real(p, q)
            if t.real_dim != 2 ** (p + q):
                ok = False
                notes.append(f"dimension audit fails at ({p},{q})")
    return CheckResult("periodicity + dimension audit", ok, "; ".join(notes) or "8-/2-periodic, dims 2^n")


# 3 ---------------------------------------------------------------------------

def criterion_clifford_relations(seed: int = 0) -> CheckResult:
    """Every generator relation with p+q ≤ 5, every blade triple with n ≤ 4, and random triples at n = 5, 6.

    The relations e_i e_j + e_j e_i = -2η_ij are checked once for each of the
    280 cases (p, q, i, j) with 1 ≤ p+q ≤ 5, through ``Multivector.__mul__``.
    The product is trilinear, so associativity on basis blades decides it:
    every blade triple for n ≤ 4, in every signature, is checked on
    ``clifford._sign_mask``, the sign kernel ``__mul__`` calls.  100 seeded
    random ``Fraction`` triples at n = 5 and 6 cover the coefficient path.
    """
    relations = 0
    for n in range(1, 6):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            basis = [Multivector.basis_vector(i, sig) for i in range(1, n + 1)]
            for i, ei in enumerate(basis, 1):
                for j, ej in enumerate(basis, 1):
                    eta = 0 if i != j else (1 if i <= p else -1)
                    if ei * ej + ej * ei != Multivector.scalar(-2 * eta, sig):
                        return CheckResult("Clifford relations", False, f"relation fails at {(p, n - p, i, j)}")
                    relations += 1

    # e_A e_B = (-1)^|A & m_B| e_(A^B), so (ab)c = a(bc) when the two sign parities agree
    triples = 0
    for n in range(1, 5):
        for p in range(n + 1):
            masks = [clifford._sign_mask(b, (1 << p) - 1, n) for b in range(1 << n)]
            for a in range(1 << n):
                for b, mb in enumerate(masks):
                    ab, ab_odd = a ^ b, (a & mb).bit_count()
                    for c, mc in enumerate(masks):
                        abc_odd = ab_odd + (ab & mc).bit_count()  # sign parity of (ab)c
                        if (abc_odd + (b & mc).bit_count() + (a & masks[b ^ c]).bit_count()) & 1:
                            return CheckResult(
                                "Clifford relations", False, f"associativity fails on blades {(a, b, c)} in Cl({p},{n - p})"
                            )
                    triples += len(masks)

    rng = random.Random(seed)

    def random_mv(sig: Signature) -> Multivector:
        terms = {}
        for _ in range(3):
            blade = rng.randrange(1 << sig.n)
            terms[blade] = terms.get(blade, 0) + Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        return Multivector(sig, terms)

    samples = 100
    for _ in range(samples):
        n = rng.randint(5, 6)
        p = rng.randint(0, n)
        sig = Signature(p, n - p)
        a, b, c = (random_mv(sig) for _ in range(3))
        if (a * b) * c != a * (b * c):
            return CheckResult("Clifford relations", False, f"associativity fails in Cl({p},{n - p})")
    return CheckResult(
        "Clifford relations",
        True,
        f"{relations} relation cases (all with p+q ≤ 5), {triples:,} blade triples (all with n ≤ 4), "
        f"{samples} random triples at n = 5, 6, exact",
    )


# 4 ---------------------------------------------------------------------------

def criterion_spinor_representation() -> CheckResult:
    """Spinor generators for n = 2, 4, 6: relations, dimension, chirality.  Cl^c_n ≅ M_{2^{n/2}}(C) is simple, so a
    module where the relations hold is faithful, and irreducible exactly when dim S = 2^{n/2}: its words span End S."""
    for n in (2, 4, 6):
        sp = spinrep.SpinorSpace(n)
        residual = spinrep.relations_residual(sp)
        if residual > spinrep.RELATIONS_TOL:
            return CheckResult("spinor representation", False, f"relations residual {residual:.2e} at n={n}")
        if sp.dim != 2 ** (n // 2):
            return CheckResult("spinor representation", False, f"dim S = {sp.dim}, not {2 ** (n // 2)}, at n={n}")
        residual, dims = spinrep.chirality_residual(sp)
        if residual > spinrep.CHIRALITY_TOL or dims != (sp.dim // 2, sp.dim // 2):
            return CheckResult("spinor representation", False, f"chirality fails at n={n}: {residual:.2e}, {dims}")
    detail = "relations and dim S = 2^{n/2} (so the words span End S), projectors for n=2,4,6"
    return CheckResult("spinor representation", True, detail)


# 5 ---------------------------------------------------------------------------

def _det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss's fraction-free elimination: each division is exact."""
    m, sign, prev = [list(row) for row in rows], 1, 1
    for k in range(len(m)):
        pivot = next((i for i in range(k, len(m)) if m[i][k]), None)
        if pivot is None:
            return 0
        m[k], m[pivot], sign = m[pivot], m[k], sign if pivot == k else -sign
        for i in range(k + 1, len(m)):
            m[i] = [(m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev for j in range(len(m))]
        prev = m[k][k]
    return sign * prev


def criterion_twisted_adjoint(seed: int = 0) -> CheckResult:
    """ρ̃ maps Pin(n) to O(n) and Spin(n) to SO(n), exactly; reflections exact.

    1,000 seeded products of one to five nonzero integer vectors, alternately in Cl(4,0) and
    Cl(0,3), where q > 0 and n is odd, so a dropped ε flips det.  With ρ̃(x) = M/N from
    ``spinrep.twisted_adjoint_numerators``, N = Π g(v, v), M·Mᵀ = N²·I and det M = (−1)^length·Nⁿ.
    Then 100 reflections w ↦ ε(v)wv⁻¹ against the reflection formula in the same two algebras.
    Every value is exact and every vector integral; no numpy runs.
    """
    rng, largest, signatures = random.Random(seed), 0, (Signature(4, 0), Signature(0, 3))
    for trial in range(1000):
        sig = signatures[trial % 2]
        n, length, x, norm = sig.n, rng.randint(1, 5), 1, 1
        for _ in range(length):
            while not any(v := [rng.randint(-3, 3) for _ in range(n)]):
                pass
            x *= Multivector.vector(v, sig)
            norm *= sum(c * c if i < sig.p else -c * c for i, c in enumerate(v))
        where = f"a product of {length} vectors in Cl({sig.p},{sig.q})"
        try:
            N, M = spinrep.twisted_adjoint_numerators(x)
        except ValueError as err:
            return CheckResult("twisted adjoint", False, f"{err}: {where}")
        if N != norm:
            return CheckResult("twisted adjoint", False, f"N = {N}, not Π g(v, v) = {norm}: {where}")
        if any(sum(map(int.__mul__, r, s)) != N * N * (i == j) for i, r in enumerate(M) for j, s in enumerate(M)):
            return CheckResult("twisted adjoint", False, f"M·Mᵀ ≠ N²·I: {where}")
        if _det(M) != (-1) ** length * N**n:
            return CheckResult("twisted adjoint", False, f"det M ≠ (−1)^{length}·N^{n}: {where}")
        largest = max(largest, abs(N))
    reflections = 0
    for trial in range(100):  # the reflection formula, exactly, on integer vectors
        sig = signatures[trial % 2]
        v, w = (Multivector.vector([rng.randint(-3, 3) for _ in range(sig.n)], sig) for _ in range(2))
        if (v * v).is_zero():
            continue
        if spinrep.twisted_adjoint(v, w) != spinrep.reflection_formula(v, w):
            return CheckResult("twisted adjoint", False, "reflection formula mismatch")
        reflections += 1
    return CheckResult(
        "twisted adjoint",
        True,
        f"500 products each in Cl(4,0) and Cl(0,3): N = Π g(v, v), M·Mᵀ = N²·I, det M = (−1)^length·Nⁿ "
        f"exactly (largest |N| {largest:,}); {reflections} reflections exact",
    )


# 6 ---------------------------------------------------------------------------

def criterion_berezin(seed: int = 0) -> CheckResult:
    """Quadratic-exponential supertraces match the Pfaffian closed form."""
    worst = 0.0
    for lam10 in range(1, 21):
        lam = lam10 / 10.0
        A = np.array([[0.0, lam], [-lam, 0.0]])
        lhs, rhs = spinrep._berezin_sides(A)
        worst = max(worst, abs(lhs - rhs), abs(lhs - (-2j * math.sin(lam))))
    worst = max(worst, spinrep.berezin_residual(4, 20, seed))
    return CheckResult("Berezin/Pfaffian identity", worst <= spinrep.BEREZIN_TOL, f"worst |lhs-rhs| = {worst:.2e}")


# 7 ---------------------------------------------------------------------------

def criterion_genus_expansions() -> CheckResult:
    """Exact genus Taylor coefficients and the symbolic p1 identity."""
    ahat = chern_weil.taylor_series("ahat", 4)
    lg = chern_weil.taylor_series("lgenus", 4)
    todd = chern_weil.taylor_series("todd", 2)
    if ahat[2] != Fraction(-1, 24) or ahat[4] != Fraction(7, 5760):
        return CheckResult("genus expansions", False, f"ahat series {ahat}")
    if lg[2] != Fraction(1, 3) or lg[4] != Fraction(-1, 45):
        return CheckResult("genus expansions", False, f"L series {lg}")
    if todd[1] != Fraction(1, 2):
        return CheckResult("genus expansions", False, f"todd series {todd}")
    pont = chern_weil.genus_expand("ahat")
    if pont["p1"] != Fraction(-1, 24) or pont["p1^2"] != Fraction(7, 5760) or pont["p2"] != Fraction(-1, 1440):
        return CheckResult("genus expansions", False, f"ahat pontryagin form {pont}")
    # p1 == e2(F/2π) = (1/4π²) Σ_{i<j} (F_ii∧F_jj − F_ij∧F_ji): principal minors, while genus_eval
    # takes traces.  The six quadratic monomials in these three entries are independent 4-forms,
    # so one exact evaluation decides the identity as a polynomial in the entries.
    m = 8
    F = chern_weil.FormMatrix.zero(3, m)
    for (i, j), pairs in {(0, 1): ((1, 2), (3, 4)), (0, 2): ((5, 6), (7, 8)), (1, 2): ((1, 5), (2, 6))}.items():
        poly = sum((chern_weil.FormPoly.monomial(p, m) for p in pairs), chern_weil.FormPoly(m))
        F.entries[i][j], F.entries[j][i] = poly, -poly
    p1 = chern_weil.genus_eval("pontryagin", F).degree_part(4)
    e = F.entries
    minors = sum((e[i][i] * e[j][j] - e[i][j] * e[j][i] for i, j in combinations(range(3), 2)), chern_weil.FormPoly(m))
    if p1 != minors * chern_weil.PiLaurent({-2: Fraction(1, 4)}):
        return CheckResult("genus expansions", False, "p1 != (1/4π²) Σ_{i<j} (F_ii∧F_jj − F_ij∧F_ji)")
    return CheckResult("genus expansions", True, "ahat/L/todd coefficients and symbolic p1 exact")


# 8 ---------------------------------------------------------------------------

def criterion_chern_gauss_bonnet() -> CheckResult:
    """Euler characteristic numbers from curvature models, exactly."""
    for r in (Fraction(1, 2), 1, 3):
        model = chern_weil.curvature_model("sphere2", r)
        chi = chern_weil.integrate_top(chern_weil.genus_eval("euler", model.F), model)
        if chi != 2:
            return CheckResult("Chern-Gauss-Bonnet", False, f"sphere2({r}) gave {chi}")
    torus = chern_weil.curvature_model("torus2")
    if chern_weil.integrate_top(chern_weil.genus_eval("euler", torus.F), torus) != 0:
        return CheckResult("Chern-Gauss-Bonnet", False, "torus2 nonzero")
    prod = chern_weil.product_model(
        chern_weil.curvature_model("sphere2"), chern_weil.curvature_model("sphere2", 2)
    )
    chi = chern_weil.integrate_top(chern_weil.genus_eval("euler", prod.F), prod)
    if chi != 4:
        return CheckResult("Chern-Gauss-Bonnet", False, f"product gave {chi}")
    return CheckResult("Chern-Gauss-Bonnet", True, "χ = 2 (any r), 0, 4 exactly")


# 9 ---------------------------------------------------------------------------

def criterion_cech(seed: int = 0) -> CheckResult:
    """δ² = 0 on 1000 random nerves, plus spin-structure counts 2 / 1 / 4 with torsor checks.

    Each nerve is closed downward from random pairs, triples and quadruples
    of 3-6 patches, so it may have 3-simplices.  For k = 0, 1 the GF(2)
    product of ``coboundary_matrix(nerve, k+1)`` and
    ``coboundary_matrix(nerve, k)`` must vanish: that decides δ² on every
    cochain of the nerve.
    """
    rng = random.Random(seed)
    nerves = 1000
    for trial in range(nerves):
        patches = rng.randint(3, 6)
        chosen = [s for size, chance in ((4, 0.25), (3, 0.5), (2, 0.5))
                  for s in combinations(range(patches), size) if rng.random() < chance]
        closed = {face for s in chosen for size in range(2, len(s) + 1) for face in combinations(s, size)}
        nerve = cech.Nerve._make(patches, tuple(sorted(closed, key=lambda t: (len(t), t))))
        lower = cech.coboundary_matrix(nerve, 0)
        for k in (0, 1):
            upper = cech.coboundary_matrix(nerve, k + 1)
            for row in upper:  # row of δ_(k+1) δ_k: xor of the δ_k rows it picks
                product = 0
                for i, lower_row in enumerate(lower):
                    if row >> i & 1:
                        product ^= lower_row
                if product:
                    return CheckResult("Čech suite", False, f"δ² ≠ 0 on nerve {trial} (k = {k})")
            lower = upper
    expected = {"circle": 2, "sphere": 1, "torus": 4}
    for name, want in expected.items():
        nerve = cech.BUILTIN_NERVES[name]()
        report = cech.w2_and_spin_structures(cech.Cochain(nerve, 1))
        if report.count != want:
            return CheckResult("Čech suite", False, f"{name}: got {report.count}, want {want}")
        if not report.torsor_verified:
            return CheckResult("Čech suite", False, f"{name}: H¹ action not a verified torsor")
    return CheckResult("Čech suite", True, f"δ² = 0 as a matrix product on {nerves} nerves; spin counts 2/1/4 with torsor")


# 10 ---------------------------------------------------------------------------

def criterion_index_lab() -> CheckResult:
    """D_λ sweep, S² Hodge supertrace, torus Dirac cancellation, Mehler."""
    # (a) λ sweep
    for k in range(0, 21):
        lam = k / 10.0
        model = index_lab.dlambda_model(lam, 10)
        want_kernel = 1 if lam == int(lam) else 0
        if model.zero_modes(+1) != want_kernel or model.zero_modes(-1) != want_kernel:
            return CheckResult("index lab", False, f"dlambda sweep fails at λ={lam}")
    # (b) sphere2 supertrace within tail bound
    ts = (0.1, 0.5, 1.0, 2.0)
    ms = index_lab.mckean_singer_check(
        index_lab.sphere2_hodge_model(40), ts, 2, lambda t: index_lab.sphere2_tail_bound(t, 40)
    )
    if not ms["passed"]:
        return CheckResult("index lab", False, f"sphere2 supertraces {ms['values']} at t={ts}, want 2")
    # (c) torus Dirac supertrace
    for delta in ((0, 0), (0, 0.5), (0.5, 0), (0.5, 0.5)):
        model = index_lab.torus_dirac_model(delta, 12)
        if not index_lab.mckean_singer_check(model, (0.2, 1.0, 5.0), 0)["passed"]:
            return CheckResult("index lab", False, f"torus Dirac str != 0 at δ={delta}")
        want_kernel = 2 if delta == (0, 0) else 0
        if model.kernel_dim() != want_kernel:
            return CheckResult("index lab", False, f"torus Dirac kernel at δ={delta}")
    # (d) Mehler vs Hermite oracle + semigroup residual
    grid = np.linspace(-1, 1, 5)
    worst = max(
        abs(index_lab.mehler_kernel(0.3, x, y, 1.0) - index_lab.oscillator_eigen_expansion(0.3, x, y, 1.0, terms=60))
        for x in grid for y in grid
    )
    if worst > 1e-8:
        return CheckResult("index lab", False, f"Mehler vs Hermite worst {worst:.2e}")
    xs = np.linspace(-1, 1, 3)
    res_line = index_lab.semigroup_residual(index_lab.line_heat_kernel, 0.5, 0.5, xs)
    res_meh = index_lab.semigroup_residual(
        lambda t, x, y: index_lab.mehler_kernel(t, x, y, 1.0), 0.2, 0.3, xs
    )
    if max(res_line, res_meh) > 1e-6:
        return CheckResult("index lab", False, f"semigroup residual {max(res_line, res_meh):.2e}")
    return CheckResult(
        "index lab",
        True,
        f"λ-sweep, S² str→2, torus str=0, Mehler {worst:.1e}, semigroup {max(res_line, res_meh):.1e}",
    )


# 11 ---------------------------------------------------------------------------

def criterion_substitution_suites() -> CheckResult:
    """Flat D² identity and McKean-Singer t-independence."""
    # D = Σ c(e_i) ∂_i squares to -Σ ∂_i² ⊗ I exactly when the c(e_i) satisfy the Clifford relations;
    # so does the symbol, σ(ξ)² = |ξ|² I, which makes D elliptic
    if spinrep.relations_residual(spinrep.SpinorSpace(4)) > 1e-14:
        return CheckResult("substitution suites", False, "flat D² != -Σ∂² ⊗ I")
    models = [
        index_lab.sphere2_hodge_model(40),
        index_lab.torus2_hodge_model(10),
        index_lab.dlambda_model(0.5, 30),
        index_lab.torus_dirac_model((0.5, 0.5), 10),
    ]
    for model in models:
        if not model.spectral_symmetry_holds():
            return CheckResult("substitution suites", False, f"spectral symmetry fails in {model.name}")
        if not index_lab.mckean_singer_check(model, (0.2, 0.7, 1.3, 3.0))["passed"]:
            return CheckResult("substitution suites", False, f"heat trace not one integer for all t in {model.name}")
    return CheckResult("substitution suites", True, "D² identity, t-independence")


def run_all(seed: int = 0) -> list[CheckResult]:
    """The eleven criteria in order, each seeded one with ``seed``."""
    return [
        criterion_classification_table(),
        criterion_periodicity(),
        criterion_clifford_relations(seed=seed),
        criterion_spinor_representation(),
        criterion_twisted_adjoint(seed=seed),
        criterion_berezin(seed=seed),
        criterion_genus_expansions(),
        criterion_chern_gauss_bonnet(),
        criterion_cech(seed=seed),
        criterion_index_lab(),
        criterion_substitution_suites(),
    ]
