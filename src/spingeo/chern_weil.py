"""Characteristic classes from curvature data.

The coefficient ring is a truncated exterior algebra on ``m`` coframe
generators; curvature entries are forms of positive even degree (so they
commute and are nilpotent).  Genera are invariant power series evaluated on
a curvature matrix: the U(n) family as ``det f(X)``, the O(n) family as
``det^{1/2} f(X)``, the Chern character as ``tr exp(X)`` and the Euler class
as ``Pf(F/2π)``, always with ``X = (i/2π) F`` applied internally so callers
pass the raw (real, antisymmetric) curvature matrix ``F`` (Milnor-Stasheff,
*Characteristic Classes*, App. C).  All but the Euler class are computed
from the power sums ``tr X^k``, which generate the invariant polynomials
(ibid., §16).  Each series genus f is written once, as the closed form of
log f in the Bernoulli numbers, since det f(X) = exp(Σ c_k tr X^k).

The coefficients choose the arithmetic.  With rational curvature, as in the
built-in models and every model file (:func:`model_from_dict` parses its
numbers exactly), each coefficient lies in Q(i)[π, π⁻¹] and is computed in
:class:`PiLaurent`, without sympy.  Symbolic coefficients passed in by a
caller reach sympy through ``PiLaurent._sympy_``, the one place that imports
it; complex coefficients give complex values.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, factorial, pi as _PI, prod

from .clifford import QI, _sign_mask
from .pfaffian import pfaffian
from .records import Record


# -- scalar series ------------------------------------------------------------

_ZERO = Fraction(0)


@lru_cache
def _bernoulli_numbers(n: int) -> tuple[Fraction, ...]:
    """(B_0, …, B_n) (B_1 = -1/2) from the defining recurrence Σ_{j≤m} C(m+1, j) B_j = 0."""
    values = [Fraction(1)]
    for m in range(1, n + 1):
        values.append(-sum(comb(m + 1, j) * values[j] for j in range(m) if values[j]) / (m + 1))
    return tuple(values)


def bernoulli(k: int) -> Fraction:
    """Bernoulli number B_k (B_1 = -1/2) from the defining recurrence."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _bernoulli_numbers(k)[k]


# Each multiplicative genus f as the closed form of log f = Σ c_k x^k: name ->
# (exponent weight, c_k from k and b), with b[k] = B_k/(k·k!) for even k ≥ 2, else 0,
# so log((x/2)/sinh(x/2)) = -Σ b[k] x^k (Hirzebruch, *Topological Methods*, ch. I;
# Milnor-Stasheff, App. B).  Weight 1 is det f(X) (U(n)), ½ is det^{1/2} f(X) (O(n)).
_LOG_GENERA = {
    "chern": (1, lambda k, b: Fraction((-1) ** (k + 1), k)),  # log(1 + x)
    "todd": (1, lambda k, b: Fraction(1, 2) if k == 1 else -b[k]),  # x/(1 - e^{-x}) = e^{x/2}·Â
    "pontryagin": (Fraction(1, 2), lambda k, b: _ZERO if k % 2 else Fraction((-1) ** (k // 2 + 1), k // 2)),
    "ahat": (Fraction(1, 2), lambda k, b: -b[k]),
    "lgenus": (Fraction(1, 2), lambda k, b: 2**k * (2**k - 2) * b[k]),  # log cosh(x) + log(x/sinh(x))
}


def _log_genus(name: str, order: int) -> tuple[Fraction | int, list[Fraction]]:
    """(exponent weight, [c_0, …, c_order]) of log f for the named genus in ``_LOG_GENERA``."""
    weight, coefficient = _LOG_GENERA[name]
    b = [_ZERO] * 2 + [B / (k * factorial(k)) for k, B in enumerate(_bernoulli_numbers(order)[2:], 2)]
    return weight, [_ZERO] + [coefficient(k, b) for k in range(1, order + 1)]


def taylor_series(name: str, order: int = 10) -> list[Fraction]:
    """Exact Taylor coefficients of the named genus series up to x^order.

    chern: 1 + x; todd: x/(1-e^{-x}); chern_char: e^x;
    lgenus: x/tanh(x); ahat: (x/2)/sinh(x/2); pontryagin: 1 + x^2.
    chern_char is Σ x^k/k!; the others are exp of their logarithms in ``_LOG_GENERA``:
    a_0 = 1 and k·a_k = Σ_{j=1..k} j·c_j·a_{k-j}.  A negative order is a ``ValueError``.
    """
    if order < 0:
        raise ValueError(f"series order must be nonnegative, not {order}")
    if name == "chern_char":
        return [Fraction(1, factorial(k)) for k in range(order + 1)]
    if name not in _LOG_GENERA:
        raise ValueError(f"unknown genus series {name!r}")
    _, c = _log_genus(name, order)
    a = [Fraction(1)]
    for k in range(1, order + 1):
        a.append(sum((j * c[j] * a[k - j] for j in range(1, k + 1) if c[j]), _ZERO) / k)
    return a


def genus_expand(name: str) -> dict[str, Fraction]:
    """Leading coefficients of the named genus in the Pontryagin classes.

    Returns the coefficients of 1, p1, p1^2 and p2 in Π f(x_j) where
    p1 = Σ x_j² and p2 = Σ_{j<k} x_j² x_k² (enough for 8-dimensional bases).
    Only an even series f is a function of the x_j², so any other is a
    ``ValueError``.
    """
    coeffs = taylor_series(name, 4)
    if any(coeffs[1::2]):
        raise ValueError(f"{name} is not an even series, so it has no expansion in Pontryagin classes")
    a2, a4 = coeffs[2], coeffs[4]
    return {"1": Fraction(1), "p1": a2, "p1^2": a4, "p2": a2 * a2 - 2 * a4}


# -- the exact scalar ring Q(i)[π, π⁻¹] -----------------------------------------

def _qi(re: Fraction, im: Fraction) -> QI:
    """QI(re, im) from two Fractions, without QI's conversion of each part."""
    x = object.__new__(QI)
    object.__setattr__(x, "re", re)
    object.__setattr__(x, "im", im)
    return x


def _pi_terms(x) -> dict | None:
    """{k: c_k} of an exact scalar the ring knows (PiLaurent, int, Fraction, QI), else None."""
    if isinstance(x, PiLaurent):
        return x.terms
    if isinstance(x, QI):
        return {0: x} if x else {}
    if isinstance(x, (int, Fraction)):
        return {0: QI(x)} if x else {}
    return None


def _term_str(c: QI, k: int) -> str:
    """c·π^k as sympy's ``str`` prints it."""
    power = "pi" if abs(k) == 1 else f"pi**{abs(k)}"
    if c.re and c.im:
        if k == 0:
            return f"{c.re} {'+' if c.im > 0 else '-'} {_term_str(QI(0, abs(c.im)), 0)}"
        gauss = _term_str(c, 0)
        return f"{power}*({gauss})" if k > 0 else f"({gauss})/{power}"
    q, unit = (c.re, []) if c.re else (c.im, ["I"])
    if q == 1 and not unit and k < -1:
        return f"pi**({k})"  # a bare power, not a quotient
    sign, q = ("-" if q < 0 else ""), abs(q)
    num = ([str(q.numerator)] if q.numerator != 1 else []) + unit + ([power] if k > 0 else [])
    den = ([str(q.denominator)] if q.denominator != 1 else []) + ([power] if k < 0 else [])
    text = "*".join(num) or "1"
    if den:
        text += "/" + (den[0] if len(den) == 1 else "(" + "*".join(den) + ")")
    return sign + text


class PiLaurent:
    """Exact element Σ c_k π^k of Q(i)[π, π⁻¹], kept as {k: c_k} with nonzero Gaussian rationals.

    It equals the int, Fraction or QI it equals and prints as sympy prints
    the same number.  A float or complex operand gives a complex; any other
    operand is not its own (``NotImplemented``), so a sympy value takes over
    through ``_sympy_``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {}
        for k, c in (terms or {}).items():
            c = c if isinstance(c, QI) else QI(c)
            if c:
                self.terms[k] = c

    @classmethod
    def _from(cls, terms: dict) -> "PiLaurent":
        x = object.__new__(cls)
        x.terms = {k: c for k, c in terms.items() if c.re or c.im}
        return x

    def __add__(self, other):
        o = _pi_terms(other)
        if o is None:
            return complex(self) + other if isinstance(other, (float, complex)) else NotImplemented
        terms = dict(self.terms)
        for k, c in o.items():
            if k in terms:
                t = terms[k]
                terms[k] = _qi(t.re + c.re, t.im + c.im)
            else:
                terms[k] = c
        return PiLaurent._from(terms)

    __radd__ = __add__

    def __neg__(self):
        return PiLaurent._from({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        o = _pi_terms(other)
        if o is None:
            return complex(self) - other if isinstance(other, (float, complex)) else NotImplemented
        return self + -PiLaurent._from(o)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return PiLaurent._from({k: _qi(c.re * other, c.im * other) for k, c in self.terms.items()})
        o = _pi_terms(other)
        if o is None:
            return complex(self) * other if isinstance(other, (float, complex)) else NotImplemented
        terms: dict[int, QI] = {}
        for i, a in self.terms.items():
            for j, b in o.items():
                if a.im or b.im:
                    re, im = a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re
                else:
                    re, im = a.re * b.re, _ZERO
                t = terms.get(i + j)
                terms[i + j] = _qi(re, im) if t is None else _qi(t.re + re, t.im + im)
        return PiLaurent._from(terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = _pi_terms(other)
        if o is not None:
            return self.terms == o
        if isinstance(other, (float, complex)):  # π is transcendental: only constants can match
            return self.terms.keys() <= {0} and self.terms.get(0, QI()) == other
        return NotImplemented

    def __hash__(self):
        if self.terms.keys() <= {0}:
            return hash(self.terms.get(0, 0))  # as the int, Fraction or QI it equals
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def __complex__(self):
        return complex(sum(complex(c) * _PI**k for k, c in self.terms.items()))

    def __str__(self):
        text = ""
        for k in sorted(self.terms, reverse=True):
            term = _term_str(self.terms[k], k)
            if not text:
                text = term
            else:
                text += " - " + term[1:] if term.startswith("-") else " + " + term
        return text or "0"

    __repr__ = __str__

    def _sympy_(self):
        import sympy

        return sympy.Add(*(c._sympy_() * sympy.pi**k for k, c in self.terms.items()))


PI = PiLaurent({1: 1})


# -- the truncated exterior coefficient ring ----------------------------------

def _is_zero(c) -> bool:
    if isinstance(c, PiLaurent):
        return not c.terms
    return c == 0


def _mul_into(acc: dict, left: dict, right: dict, m: int) -> None:
    """Add the exterior product of two {mask: coefficient} forms on m generators into acc."""
    right = [(mb, cb, _sign_mask(mb, 0, m)) for mb, cb in right.items()]
    for ma, ca in left.items():
        for mb, cb, sign_mask in right:
            if ma & mb:
                continue
            contrib = -(ca * cb) if (ma & sign_mask).bit_count() & 1 else ca * cb
            mask = ma | mb
            acc[mask] = acc.get(mask, 0) + contrib


class FormPoly:
    """Element of the exterior algebra on generators e^1..e^m, truncated at m.

    Stored as bitmask -> coefficient.  Products of overlapping monomials
    vanish; merging disjoint monomials contributes the interleaving sign.
    All monomials used by the genus machinery have even degree, so these
    elements commute.
    """

    __slots__ = ("m", "terms")

    def __init__(self, m: int, terms: dict[int, object] | None = None):
        self.m = m
        limit = (1 << m) - 1
        clean = {}
        for mask, coeff in (terms or {}).items():
            if mask & ~limit:
                raise ValueError("monomial outside the generator range")
            if _is_zero(coeff):
                continue
            clean[mask] = coeff
        self.terms = clean

    @classmethod
    def _make(cls, m: int, terms: dict) -> "FormPoly":
        """A FormPoly from masks already inside the generator range, such as products'; only zeros are pruned."""
        x = object.__new__(cls)
        x.m = m
        x.terms = {mask: c for mask, c in terms.items() if not _is_zero(c)}
        return x

    @classmethod
    def scalar(cls, value, m: int) -> "FormPoly":
        return cls(m, {0: value})

    @classmethod
    def monomial(cls, indices, m: int, coeff=1) -> "FormPoly":
        mask = 0
        for i in indices:
            bit = 1 << (i - 1)
            if mask & bit:
                raise ValueError("repeated generator in monomial")
            mask |= bit
        return cls(m, {mask: coeff})

    def _coerce(self, other) -> "FormPoly":
        if isinstance(other, FormPoly):
            if other.m != self.m:
                raise ValueError("generator count mismatch")
            return other
        return FormPoly.scalar(other, self.m)

    def __add__(self, other):
        o = self._coerce(other)
        terms = dict(self.terms)
        for mask, c in o.terms.items():
            terms[mask] = terms.get(mask, 0) + c
        return FormPoly(self.m, terms)

    __radd__ = __add__

    def __neg__(self):
        return FormPoly(self.m, {mask: -c for mask, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, FormPoly):
            return FormPoly._make(self.m, {mask: c * other for mask, c in self.terms.items()})
        terms: dict[int, object] = {}
        _mul_into(terms, self.terms, self._coerce(other).terms, self.m)
        return FormPoly._make(self.m, terms)

    def __rmul__(self, other):
        return FormPoly._make(self.m, {mask: other * c for mask, c in self.terms.items()})

    def __eq__(self, other):
        diff = self - self._coerce(other)
        return all(_is_zero(c) for c in diff.terms.values())

    def __hash__(self):
        return hash((self.m, frozenset(self.terms)))

    def coefficient(self, indices) -> object:
        mask = 0
        for i in indices:
            mask |= 1 << (i - 1)
        return self.terms.get(mask, 0)

    def top_coefficient(self) -> object:
        return self.terms.get((1 << self.m) - 1, 0)

    def constant(self) -> object:
        return self.terms.get(0, 0)

    def degree_part(self, d: int) -> "FormPoly":
        return FormPoly(self.m, {mask: c for mask, c in self.terms.items() if mask.bit_count() == d})

    def is_zero(self) -> bool:
        return all(_is_zero(c) for c in self.terms.values())

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        if not self.terms:
            return "FormPoly(0)"
        bits = []
        for mask in sorted(self.terms, key=lambda s: (s.bit_count(), s)):
            name = "1" if mask == 0 else "e" + "".join(
                str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1
            )
            bits.append(f"({self.terms[mask]})*{name}")
        return "FormPoly(" + " + ".join(bits) + ")"


class FormMatrix:
    """Square matrix with FormPoly entries."""

    def __init__(self, entries: list[list[FormPoly]]):
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise ValueError("matrix must be square")
        if n == 0:
            raise ValueError("empty matrix")
        self.n = n
        self.m = entries[0][0].m
        for row in entries:
            for e in row:
                if e.m != self.m:
                    raise ValueError("inconsistent generator counts")
        self.entries = entries

    @classmethod
    def zero(cls, n: int, m: int) -> "FormMatrix":
        return cls([[FormPoly(m) for _ in range(n)] for _ in range(n)])

    @classmethod
    def identity(cls, n: int, m: int) -> "FormMatrix":
        return cls(
            [[FormPoly.scalar(1 if i == j else 0, m) for j in range(n)] for i in range(n)]
        )

    def __add__(self, other: "FormMatrix") -> "FormMatrix":
        return FormMatrix(
            [[self.entries[i][j] + other.entries[i][j] for j in range(self.n)] for i in range(self.n)]
        )

    def __sub__(self, other: "FormMatrix") -> "FormMatrix":
        return FormMatrix(
            [[self.entries[i][j] - other.entries[i][j] for j in range(self.n)] for i in range(self.n)]
        )

    def scale(self, factor) -> "FormMatrix":
        return FormMatrix([[e * factor if e else e for e in row] for row in self.entries])

    def __matmul__(self, other: "FormMatrix") -> "FormMatrix":
        """Row by row over nonzero entries only, each output entry summed in one dict."""
        right = [[(j, b.terms) for j, b in enumerate(row) if b] for row in other.entries]
        out = []
        for row in self.entries:
            acc = [{} for _ in range(self.n)]
            for k, a in enumerate(row):
                if a:
                    for j, b in right[k]:
                        _mul_into(acc[j], a.terms, b, self.m)
            out.append([FormPoly._make(self.m, terms) for terms in acc])
        return FormMatrix(out)

    def is_antisymmetric(self) -> bool:
        """Whether F_ji = -F_ij, compared key by key with no coefficient sum.

        Entries hold no zero coefficient, so each diagonal entry must be empty and each mirror pair
        must carry the same masks with c_ji == -c_ij.  A float or complex infinity matches no
        mirror, as c_ij + c_ji == 0 judged it (inf - inf is nan); nan matches nothing either way.
        """
        e = self.entries
        for i, row in enumerate(e):
            if row[i].terms:
                return False
            for j in range(i):
                a, b = row[j].terms, e[j][i].terms
                if a.keys() != b.keys():
                    return False
                for k, c in a.items():
                    if c != -b[k] or (isinstance(c, (float, complex)) and c - c != 0):  # c - c is nan at ±inf
                        return False
        return True


def form_tr(M: FormMatrix) -> FormPoly:
    acc = FormPoly(M.m)
    for i in range(M.n):
        acc = acc + M.entries[i][i]
    return acc


def form_pfaffian(A: FormMatrix) -> FormPoly:
    """Pfaffian of an antisymmetric FormMatrix (perfect-matching expansion)."""
    if A.n % 2:
        raise ValueError("Pfaffian needs even size")
    if not A.is_antisymmetric():
        raise ValueError("Pfaffian needs an antisymmetric matrix")
    return FormPoly(A.m) + pfaffian(A.entries)  # an all-zero expansion is the int 0


def _check_curvature(F: FormMatrix) -> None:
    """Raise ValueError unless every entry of F is a form of positive even degree."""
    for row in F.entries:
        for e in row:
            if any(mask == 0 or mask.bit_count() % 2 for mask in e.terms):
                raise ValueError("curvature entries must be forms of positive even degree")


def _trace_product(A: FormMatrix, B: FormMatrix) -> FormPoly:
    """tr(AB) = Σ_ij A_ij B_ji over nonzero pairs, summed in one dict."""
    acc: dict[int, object] = {}
    for i, row in enumerate(A.entries):
        for j, a in enumerate(row):
            b = B.entries[j][i]
            if a and b:
                _mul_into(acc, a.terms, b.terms, A.m)
    return FormPoly._make(A.m, acc)


def _power_sums(F: FormMatrix, c) -> list[FormPoly]:
    """[tr X, tr X², …, tr X^K] for X = cF and K = m/2: X^k has degree ≥ 2k, so higher powers vanish.

    tr X^k = c^k tr F^k, so the sums run on F's own coefficients and each takes
    c^k once.  tr F^k = tr(F^a F^b) with a = ⌈k/2⌉, b = ⌊k/2⌋, so only F², …,
    F^{⌈K/2⌉} are formed: one product at m = 8, two at m = 12.
    """
    K = F.m // 2
    powers = [None, F]
    for _ in range(2, (K + 1) // 2 + 1):
        powers.append(powers[-1] @ F)
    sums, ck = [], c
    for k in range(1, K + 1):
        trace = form_tr(F) if k == 1 else _trace_product(powers[(k + 1) // 2], powers[k // 2])
        sums.append(trace * ck)
        ck = ck * c
    return sums


def _exp_nilpotent(s: FormPoly) -> FormPoly:
    """exp(s) = Σ s^j/j! for s of positive even degree, so s^j = 0 once 2j > m."""
    acc = term = FormPoly.scalar(1, s.m)
    for j in range(1, s.m // 2 + 1):
        term = term * s * Fraction(1, j)
        if not term:
            break
        acc = acc + term
    return acc


def genus_eval(name: str, F: FormMatrix) -> FormPoly:
    """Evaluate the named genus on a curvature matrix F.

    The conventional substitution X = (i/2π) F happens here: callers pass
    the raw curvature, whose entries must be forms of positive even degree
    (anything else is a ``ValueError``).  For the O(n) family and the Euler
    class F must be antisymmetric.  The factors 1/(2π) and i/(2π) are exact
    :class:`PiLaurent` constants, so F's coefficients choose the arithmetic.
    F itself is never scaled: the Pfaffian and the power sums run on its own
    coefficients and take the constant at the end, Pf(F/2π) = (2π)^{-n/2} Pf(F)
    and tr X^k = (i/2π)^k tr F^k.

    Every genus but the Euler class comes from the power sums p_k = tr X^k:
    det f(X) = exp(Σ c_k p_k) where log f(x) = Σ c_k x^k in closed form
    (``_LOG_GENERA``), det^{1/2} f(X) halves the exponent, and
    tr exp(X) = n + Σ p_k/k!.
    """
    _check_curvature(F)
    if name == "euler":
        if not F.is_antisymmetric():
            raise ValueError("Euler class needs an antisymmetric curvature")
        return (FormPoly(F.m) + pfaffian(F.entries)) * PiLaurent({-(F.n // 2): Fraction(1, 2 ** (F.n // 2))})
    if name != "chern_char" and name not in _LOG_GENERA:
        raise ValueError(f"unknown genus {name!r}")
    if name in _LOG_GENERA and _LOG_GENERA[name][0] != 1 and not F.is_antisymmetric():
        raise ValueError(f"{name} needs an antisymmetric curvature")
    p = _power_sums(F, PiLaurent({-1: QI(0, Fraction(1, 2))}))
    if name == "chern_char":
        return sum((pk * Fraction(1, factorial(k)) for k, pk in enumerate(p, 1)), FormPoly.scalar(F.n, F.m))
    weight, c = _log_genus(name, len(p))
    return _exp_nilpotent(sum((pk * (weight * c[k]) for k, pk in enumerate(p, 1)), FormPoly(F.m)))


# -- curvature models ----------------------------------------------------------

class CurvatureModel(Record):
    """Constant-coefficient curvature F (n × n) in a global orthonormal coframe, and its exact volume."""

    __slots__ = _fields = ("name", "n", "F", "volume")


def curvature_model(name: str, r=1) -> CurvatureModel:
    """Built-in homogeneous models: sphere2(r), torus2, sphere4(r).

    The radius r is a positive rational as ``Fraction`` reads it: an int, a
    rational number or a string such as ``"1/2"`` or ``"0.5"``.
    """
    try:
        radius = Fraction(r)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        radius = None
    if radius is None or radius <= 0:
        raise ValueError(f"radius must be a positive rational, not {r}")
    r = radius
    if name == "torus2":
        return CurvatureModel("torus2", 2, FormMatrix.zero(2, 2), PiLaurent({0: 1}))
    if name not in ("sphere2", "sphere4"):
        raise ValueError(f"unknown curvature model {name!r}")
    m = int(name[-1])
    F = FormMatrix.zero(m, m)
    for a, b in combinations(range(1, m + 1), 2):  # the round sphere: F_ab = e^a ∧ e^b / r²
        curv = FormPoly.monomial((a, b), m, 1 / r**2)
        F.entries[a - 1][b - 1] = curv
        F.entries[b - 1][a - 1] = -curv
    return CurvatureModel(name, m, F, 4 * PI * r**2 if m == 2 else Fraction(8, 3) * PI * PI * r**4)


def product_model(m1: CurvatureModel, m2: CurvatureModel) -> CurvatureModel:
    """Riemannian product: block-diagonal curvature on the combined coframe."""
    n = m1.n + m2.n
    F = FormMatrix.zero(n, n)
    for i in range(m1.n):
        for j in range(m1.n):
            F.entries[i][j] = _extend_poly(m1.F.entries[i][j], n, 0)
    for i in range(m2.n):
        for j in range(m2.n):
            F.entries[m1.n + i][m1.n + j] = _extend_poly(m2.F.entries[i][j], n, m1.n)
    name = f"product({m1.name},{m2.name})"
    return CurvatureModel(name, n, F, m1.volume * m2.volume)


def _extend_poly(poly: FormPoly, m: int, shift: int) -> FormPoly:
    return FormPoly(m, {mask << shift: c for mask, c in poly.terms.items()})


def integrate_top(phi: FormPoly, model: CurvatureModel) -> object:
    """Integrate a form over a homogeneous model: top coefficient × volume.

    The built-in models have constant coefficients in an orthonormal
    coframe, so integration is exactly this product.
    """
    if phi.m != model.F.m:
        raise ValueError("form was built over a different coframe")
    return phi.top_coefficient() * model.volume


#: Largest n of a model file, checked before the n × n matrix is built: the genera of a model with one
#: random 2-form per entry take about 0.7 s at n = 14 and 3.5 s at n = 16 (2 cores, Python 3.11).
MODEL_MAX_N = 14


def model_from_dict(data: dict) -> CurvatureModel:
    """Load a curvature model from {n, entries, volume} JSON data, n ≤ :data:`MODEL_MAX_N`.

    ``entries`` is a list of [i, j, [[indices, coeff], ...]] with matrix
    positions i, j and generator indices in 1..n.  A coefficient, like the
    ``volume``, is an exact number of Q(i)[π, π⁻¹]: a JSON number or a string
    of int and decimal literals, ``pi`` and ``I`` under ``+ - * /``, parentheses
    and integer powers (|k| ≤ 100), dividing only by one term c·π^k.
    Anything else raises ValueError naming the value at fault.
    """
    import ast

    def position(x, what: str) -> int:
        if not (isinstance(x, int) and not isinstance(x, bool) and 1 <= x <= n):
            raise ValueError(f"{what} must be an integer in 1..{n}, not {x!r}")
        return x

    def divide(a: PiLaurent, b: PiLaurent) -> PiLaurent:
        if len(b.terms) != 1:
            raise ValueError("division by a sum or by zero")
        return a * PiLaurent._from({-k: 1 / c for k, c in b.terms.items()})

    def power(x: PiLaurent, k: PiLaurent) -> PiLaurent:
        c = k.terms.get(0, QI())
        if k.terms.keys() - {0} or c.im or c.re.denominator != 1 or abs(c.re) > 100:
            raise ValueError("not an integer power")
        out = prod([x] * abs(c.re.numerator), start=PiLaurent({0: 1}))
        return out if c.re >= 0 else divide(PiLaurent({0: 1}), out)

    ops = {ast.Add: PiLaurent.__add__, ast.Sub: PiLaurent.__sub__, ast.Mult: PiLaurent.__mul__, ast.Div: divide,
           ast.Pow: power, ast.USub: PiLaurent.__neg__, ast.UAdd: lambda x: x}

    def number(node) -> PiLaurent:
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return PiLaurent({0: Fraction(repr(node.value))})  # inf and nan raise here
        if isinstance(node, ast.Name) and node.id in ("pi", "I"):
            return PI if node.id == "pi" else PiLaurent({0: QI(0, 1)})
        if isinstance(node, (ast.UnaryOp, ast.BinOp)) and type(node.op) in ops:
            operands = [node.operand] if isinstance(node, ast.UnaryOp) else [node.left, node.right]
            return ops[type(node.op)](*map(number, operands))
        raise ValueError("not an exact number")

    def expression(value, what: str) -> PiLaurent:
        try:  # ast.parse takes only strings: None, true and lists raise TypeError
            return number(ast.parse(repr(value) if type(value) in (int, float) else value, mode="eval").body)
        except (SyntaxError, TypeError, ValueError, RecursionError):
            raise ValueError(f"{what} must be a finite expression, not {value!r}") from None

    if not isinstance(data, dict):
        raise ValueError(f"a model file holds a JSON object, not {type(data).__name__}")
    n = data.get("n")
    if not (isinstance(n, int) and not isinstance(n, bool) and n >= 1):
        raise ValueError(f"n must be an integer >= 1, not {n!r}")
    if n > MODEL_MAX_N:
        raise ValueError(f"n must be at most {MODEL_MAX_N}, not {n}")
    entries = data.get("entries", [])
    if not isinstance(entries, list):
        raise ValueError(f"entries must be a list, not {entries!r}")
    F = FormMatrix.zero(n, n)
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 3 and isinstance(entry[2], list)):
            raise ValueError(f"an entry must be [i, j, [[indices, coeff], ...]], not {entry!r}")
        i, j, monomials = entry
        poly = FormPoly(n)
        for term in monomials:
            if not (isinstance(term, list) and len(term) == 2 and isinstance(term[0], list)):
                raise ValueError(f"a monomial must be [indices, coeff], not {term!r}")
            generators = [position(k, "a generator index") for k in term[0]]
            poly = poly + FormPoly.monomial(generators, n, expression(term[1], "a coefficient"))
        F.entries[position(i, "a matrix position") - 1][position(j, "a matrix position") - 1] = poly
    return CurvatureModel(str(data.get("name", "custom")), n, F, expression(data.get("volume", 1), "volume"))
