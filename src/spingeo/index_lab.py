"""Spectral models for desk-scale index-theorem checks.

Every operator here is represented by closed-form eigendata (a
:class:`SpectralModel`), never by a mesh discretization, so each check has
an explicit truncation tail bound.  The models: the circle operator
``D_λ f = f' - 2πiλ f``, the flat-torus spin Dirac operator for each of the
four spin structures, the Hodge-de Rham supertraces on S² and T²
(McKean-Singer), the heat kernel on the line, and the harmonic-oscillator
kernel together with its Hermite eigenfunction oracle.

Oscillator convention: the closed-form kernel implemented by
:func:`mehler_kernel` is the heat kernel of ``H = -d²/dx² + a²x²`` (so the
frequency parameter enters the prefactor as ``2at``); this convention is the
one validated by the eigenfunction oracle, see
:func:`oscillator_eigen_expansion`.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import takewhile

from .records import Record


# -- spectral models ----------------------------------------------------------

#: Floor of every supertrace comparison: the rounding error of a closed-form float sum.
SUPERTRACE_TOL = 1e-12


def _check_time(t: float, name: str = "t") -> None:
    if not 0 < t < math.inf:
        raise ValueError(f"{name} must be positive and finite, not {t!r}")


def _check_t_grid(t_grid) -> list[float]:
    """The grid as a list, once every time in it is checked: none may be missing, nan, infinite or ≤ 0."""
    t_grid = list(t_grid)
    if not t_grid:
        raise ValueError("empty t grid")
    for t in t_grid:
        _check_time(t)
    return t_grid


class SpectralModel(Record):
    """Explicitly diagonalized D²: (eigenvalue, multiplicity, chirality) rows, kept in ascending order.

    ``supertrace`` and ``zero_modes`` stop early on that order, which both constructors guarantee;
    assigning unsorted ``entries`` is outside the contract.
    """

    __slots__ = _fields = ("name", "entries")

    def __init__(self, name: str, entries: list[tuple[float, int, int]]):
        entries = sorted(entries)
        for lam, mult, chi in entries:
            if not 0 <= lam < math.inf or mult < 1 or chi not in (1, -1):
                raise ValueError(f"invalid spectral entry {(lam, mult, chi)!r}")
        super().__init__(name, entries)

    @classmethod
    def _make(cls, name: str, rows: list[tuple[float, int, int]]) -> "SpectralModel":
        """A model from valid rows already in ascending order."""
        model = object.__new__(cls)
        Record.__init__(model, name, rows)
        return model

    def supertrace(self, t: float) -> float:
        """str e^{-tD²}, summed smallest eigenvalue first for reproducibility."""
        _check_time(t)
        total = 0.0
        for lam, mult, chi in self.entries:
            term = math.exp(-t * lam)
            if term == 0.0:  # so is every later term: adding ±0.0 to a total that is never -0.0 changes no bit
                break
            total += chi * mult * term
        return total

    def zero_modes(self, chirality: int) -> int:
        """Multiplicity of the eigenvalue 0 on the given chirality: dim ker D^± for D² = D^∓D^±."""
        zeros = takewhile(lambda row: row[0] == 0, self.entries)
        return sum(mult for _, mult, chi in zeros if chi == chirality)

    def kernel_dim(self) -> int:
        return self.zero_modes(+1) + self.zero_modes(-1)

    def nonzero_spectrum(self, chirality: int) -> list[tuple[float, int]]:
        """Multiset of nonzero eigenvalues on the given chirality."""
        out: dict[float, int] = {}
        for lam, mult, chi in self.entries:
            if chi == chirality and lam > 0:
                out[lam] = out.get(lam, 0) + mult
        return sorted(out.items())

    def spectral_symmetry_holds(self) -> bool:
        """spec(D⁻D⁺) \\ {0} = spec(D⁺D⁻) \\ {0} within the truncation."""
        return self.nonzero_spectrum(+1) == self.nonzero_spectrum(-1)


#: Largest cutoff of :func:`dlambda_model` and of the torus models, and largest l_max of
#: :func:`sphere2_hodge_model`: each build takes about 1 s there (2 cores, Python 3.11).  They
#: bound time, not memory: at the limits a build peaks at 236 MB RSS for D_λ, 161 MB for either
#: torus model and 565 MB on S², 110–170 bytes a row.
DLAMBDA_MAX_CUTOFF, TORUS_MAX_CUTOFF, SPHERE2_MAX_L = 500_000, 1_200, 2_000_000


def dlambda_model(lam: float, cutoff: int) -> SpectralModel:
    """Graded model of D_λ f = f' - 2πiλ f on the circle: D*D on the + side, DD* on the - side.

    On the modes e^{2πinx}, |n| ≤ cutoff, D_λ has eigenvalues 2πi(n - λ) and the adjoint
    d/dx + 2πiλ has 2πi(n + λ), so ker D_λ = ``zero_modes(+1)`` and coker D_λ =
    ``zero_modes(-1)`` are 1-dimensional at integer λ, else 0: the index vanishes.
    """
    if not math.isfinite(lam):
        raise ValueError(f"λ must be finite, not {lam!r}")
    if cutoff < abs(lam) + 1:
        raise ValueError("cutoff must exceed |λ| + 1")
    if cutoff > DLAMBDA_MAX_CUTOFF:
        raise ValueError(f"cutoff must be at most {DLAMBDA_MAX_CUTOFF}, not {cutoff}")
    entries = []
    for n in range(-cutoff, cutoff + 1):
        for d, chi in ((n - lam, +1), (n + lam, -1)):  # a d ≠ 0 whose (2πd)² underflows (|λ| < 1e-162) stays > 0
            entries.append(((2 * math.pi * d) ** 2 or (math.ulp(0.0) if d else 0.0), 1, chi))
    return SpectralModel("dlambda", entries)


def _torus_rows(delta, cutoff: int, states: int) -> list[tuple[float, int, int]]:
    """The torus models' rows in ascending order: (4π²|k|², states × how many k have that |k|², -1 then +1).

    The modes are k = (n + δ₁, m + δ₂) with |n|, |m| ≤ cutoff.
    """
    if cutoff > TORUS_MAX_CUTOFF:
        raise ValueError(f"cutoff must be at most {TORUS_MAX_CUTOFF}, not {cutoff}")
    first, second = (Counter((j + d) ** 2 for j in range(-cutoff, cutoff + 1)) for d in delta)
    counts = {}  # a plain dict: Counter's __missing__ is a Python call per new key
    for a, ca in first.items():
        for b, cb in second.items():
            k2 = a + b
            counts[k2] = counts.get(k2, 0) + ca * cb
    four_pi2 = 4 * math.pi**2
    return [(four_pi2 * k2, states * count, chi) for k2, count in sorted(counts.items()) for chi in (-1, +1)]


def torus_dirac_model(delta: tuple[float, float], cutoff: int) -> SpectralModel:
    """Flat T² spin Dirac operator for the spin structure δ ∈ {0, 1/2}².

    Modes are k = (n + δ₁, m + δ₂) with D² eigenvalue 4π²|k|²; every mode
    carries one + and one - chirality state (the kernel, present only for
    δ = (0, 0), consists of one harmonic spinor of each chirality), so the
    graded supertrace vanishes identically.  The modes are counted per |k|²:
    one row per distinct eigenvalue and chirality, with the count as its
    multiplicity, so each - row cancels its + row and str is exactly 0.0.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    if len(delta) != 2 or not all(d in (0, 0.5) for d in delta):
        raise ValueError(f"spin structure offsets must be 2 values, each 0 or 1/2, not {delta}")
    return SpectralModel._make("torus_dirac", _torus_rows(delta, cutoff, 1))


def sphere2_hodge_model(l_max: int) -> SpectralModel:
    """Hodge Laplacian on S² graded by form parity.

    Even forms (functions and their Hodge duals): eigenvalue l(l+1) with
    multiplicity 2(2l+1) for l ≥ 0.  Odd forms (1-forms): eigenvalue l(l+1)
    with multiplicity 2(2l+1) for l ≥ 1.  All l ≥ 1 terms cancel in the
    supertrace, leaving χ(S²) = 2.
    """
    if l_max < 1:
        raise ValueError("l_max must be at least 1")
    if l_max > SPHERE2_MAX_L:
        raise ValueError(f"l_max must be at most {SPHERE2_MAX_L}, not {l_max}")
    rows = [(float(l * (l + 1)), 2 * (2 * l + 1), chi) for l in range(1, l_max + 1) for chi in (-1, +1)]
    return SpectralModel._make("sphere2_hodge", [(0.0, 2, +1)] + rows)


def torus2_hodge_model(cutoff: int) -> SpectralModel:
    """Hodge Laplacian on flat T²: each Fourier mode carries Λ⁰+Λ² vs Λ¹.

    As in :func:`torus_dirac_model`, one row per distinct eigenvalue and
    chirality, with multiplicity twice the number of modes.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    return SpectralModel._make("torus2_hodge", _torus_rows((0, 0), cutoff, 2))


def sphere2_tail_bound(t: float, l_max: int) -> float:
    """Truncation error bound for the S² supertrace, valid for t ≥ 0.1 (a smaller t raises ValueError).

    The dropped terms cancel in pairs except for bookkeeping at l_max, so
    4(l_max+1)² e^{-t l_max(l_max+1)} dominates the remainder crudely.
    """
    if t < 0.1:
        raise ValueError(f"the S² tail bound holds for t ≥ 0.1, not t = {t}")
    return 4.0 * (l_max + 1) ** 2 * math.exp(-t * l_max * (l_max + 1))


def mckean_singer_check(model: SpectralModel, t_grid, index: int | None = None, tail_bound=None) -> dict:
    """Judge the graded heat trace on a grid against the index.

    By McKean-Singer str e^{-tD²} = ind D for every t > 0, so each value must
    lie within SUPERTRACE_TOL, or tail_bound(t) if given and larger, of ``index``,
    which defaults to the integer nearest the first value (``inferred_index``).
    """
    t_grid = _check_t_grid(t_grid)
    values = [model.supertrace(t) for t in t_grid]
    inferred = round(values[0])
    index = inferred if index is None else index
    tail_bound = tail_bound or (lambda t: 0.0)
    passed = all(abs(v - index) <= max(tail_bound(t), SUPERTRACE_TOL) for t, v in zip(t_grid, values))
    deviation = max(abs(v - inferred) for v in values)
    return {"inferred_index": inferred, "max_deviation_from_integer": deviation, "values": values, "passed": passed}


# -- heat kernels ----------------------------------------------------------------

def line_heat_kernel(t: float, x: float, y: float) -> float:
    """(4πt)^{-1/2} exp(-(x-y)²/4t), the heat kernel on the real line."""
    _check_time(t)
    return math.exp(-((x - y) ** 2) / (4 * t)) / math.sqrt(4 * math.pi * t)


def mehler_kernel(t: float, x: float, y: float, a: float) -> float:
    """Heat kernel of the harmonic oscillator H = -d²/dx² + a²x².

    k(t,x,y) = (4πt)^{-1/2} (2at/sinh 2at)^{1/2}
               exp(-(1/4t)(2at/sinh 2at)(cosh(2at)(x²+y²) - 2xy)).

    As a → 0 this degenerates to the line heat kernel.  The a²x² potential
    convention is fixed by the Hermite eigenfunction oracle
    :func:`oscillator_eigen_expansion` (eigenvalues a(2k+1)).
    """
    _check_time(t)
    if a == 0:
        return line_heat_kernel(t, x, y)
    w = 2 * a * t
    ratio = w / math.sinh(w)
    pref = math.sqrt(ratio / (4 * math.pi * t))
    expo = -(ratio / (4 * t)) * (math.cosh(w) * (x * x + y * y) - 2 * x * y)
    return pref * math.exp(expo)


def oscillator_eigen_expansion(t: float, x: float, y: float, a: float, terms: int = 60) -> float:
    """Σ_k e^{-t a(2k+1)} ψ_k(x) ψ_k(y) with the L² Hermite eigenfunctions.

    ψ_k(x) = (a/π)^{1/4} (2^k k!)^{-1/2} H_k(√a x) e^{-a x²/2} solves
    -ψ'' + a²x²ψ = a(2k+1)ψ; this series is the independent oracle for
    :func:`mehler_kernel`.
    """
    _check_time(t)
    if not a > 0:
        raise ValueError("a must be positive")
    # ψ_{k+1}(x) = √(2/(k+1)) √a x ψ_k(x) - √(k/(k+1)) ψ_{k-1}(x), from H_{k+1} = 2u H_k - 2k H_{k-1}
    norm = (a / math.pi) ** 0.25
    px, py = norm * math.exp(-a * x * x / 2), norm * math.exp(-a * y * y / 2)
    qx = qy = 0.0  # ψ_{k-1}
    total = 0.0
    for k in range(terms):
        total += math.exp(-t * a * (2 * k + 1)) * px * py
        up, down = math.sqrt(2 * a / (k + 1)), math.sqrt(k / (k + 1))
        px, qx = up * x * px - down * qx, px
        py, qy = up * y * py - down * qy, py
    return total


def _composite_gauss_legendre(L: float, panels: int):
    """Deterministic composite Gauss-Legendre nodes/weights on [-L, L], 24 nodes per panel."""
    import numpy as np

    nodes, weights = np.polynomial.legendre.leggauss(24)
    edges = np.linspace(-L, L, panels + 1)
    zs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        zs.append(0.5 * (b - a) * nodes + 0.5 * (a + b))
        ws.append(0.5 * (b - a) * weights)
    return np.concatenate(zs), np.concatenate(ws)


def semigroup_residual(kernel, t1: float, t2: float, xs) -> float:
    """Max |∫ k(t1,x,z)k(t2,z,y)dz - k(t1+t2,x,y)| over the grid xs × xs.

    Quadrature is composite Gauss-Legendre with 16 panels on [-L, L],
    L = max(8√(t1+t2), 8); node placement is deterministic.
    """
    import numpy as np

    _check_time(t1, "t1")
    _check_time(t2, "t2")
    z, w = _composite_gauss_legendre(max(8.0 * math.sqrt(t1 + t2), 8.0), 16)
    residual = 0.0
    rights = [np.array([kernel(t2, zz, y) for zz in z]) for y in xs]
    for x in xs:
        left = np.array([kernel(t1, x, zz) for zz in z])
        for y, right in zip(xs, rights):
            integral = float(np.sum(w * left * right))
            residual = max(residual, abs(integral - kernel(t1 + t2, x, y)))
    return residual


def delta_limit_error(kernel, f, t: float, x: float) -> float:
    """|∫ k(t,x,y) f(y) dy - f(x)| by composite Gauss-Legendre quadrature, 256 panels on [-8, 8]."""
    import numpy as np

    z, w = _composite_gauss_legendre(8.0, 256)
    vals = np.array([kernel(t, x, zz) * f(zz) for zz in z])
    return abs(float(np.sum(w * vals)) - f(x))

