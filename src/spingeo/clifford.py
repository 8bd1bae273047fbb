"""Exact arithmetic in the Clifford algebras Cl(p, q) and their complexifications.

Sign convention
---------------
We use the convention ``v * v = -g(v, v)`` where ``g`` has ``p`` eigenvalues
``+1`` followed by ``q`` eigenvalues ``-1``.  Concretely the generators
satisfy ``e_i * e_i = -1`` for ``i <= p`` and ``e_i * e_i = +1`` for
``i > p``, so that Cl(1, 0) is isomorphic to the complex numbers.  Many other
texts use the opposite sign; all formulas in this package assume this one.

Blades are encoded as bitmasks (bit ``i - 1`` set means the generator
``e_i`` is present), coefficients are exact Gaussian rationals (:class:`QI`)
by default, with ordinary ``complex`` floats available for numerics.
Multivectors are value-semantic: never mutated after construction, so they
are safe to share across threads.
"""

from __future__ import annotations

import math
import numbers
import re
import sys
from fractions import Fraction
from typing import Iterable, NamedTuple, Union


class Signature(NamedTuple):
    """Signature (p, q): p generators square to -1, q generators to +1."""

    p: int
    q: int

    @property
    def n(self) -> int:
        return self.p + self.q

    def square(self, i: int) -> int:
        """Square of the generator e_i (1-based)."""
        if not 1 <= i <= self.n:
            raise ValueError(f"generator index {i} out of range for Cl({self.p},{self.q})")
        return -1 if i <= self.p else 1


#: Signatures _validate_signature has accepted: valid ones only, so at most 2,145.
_VALID_SIGNATURES: set[Signature] = set()


def _validate_signature(sig: Signature) -> Signature:
    if type(sig) is Signature and sig in _VALID_SIGNATURES:
        return sig
    sig = Signature(*sig)
    if sig.p < 0 or sig.q < 0:
        raise ValueError("signature counts must be nonnegative")
    if sig.n > 64:
        raise ValueError("at most 64 generators are supported")
    _VALID_SIGNATURES.add(sig)
    return sig


def _is_sympy(c) -> bool:
    """Whether c is a sympy value, without importing sympy: only a loaded sympy makes one."""
    sympy = sys.modules.get("sympy")
    return sympy is not None and isinstance(c, sympy.Basic)


class QI:
    """Gaussian rational a + b*i with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("QI is immutable")

    @staticmethod
    def _coerce(other) -> "QI | None":
        if isinstance(other, QI):
            return other
        if isinstance(other, (int, Fraction)):
            return QI(other)
        return None

    # A float, complex or numpy number turns the arithmetic into complex;
    # any other operand (a PiLaurent, a sympy number or symbol) is
    # NotImplemented, so its own reflected method keeps the result exact.
    @staticmethod
    def _inexact(other) -> bool:
        return isinstance(other, (float, complex)) or (isinstance(other, numbers.Complex) and not _is_sympy(other))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return complex(self) + other if self._inexact(other) else NotImplemented
        return QI(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return QI(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return complex(self) * other if self._inexact(other) else NotImplemented
        return QI(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return complex(self) / other if self._inexact(other) else NotImplemented
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return QI((self.re * o.re + self.im * o.im) / d, (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return other / complex(self) if self._inexact(other) else NotImplemented
        return o / self

    def conjugate(self) -> "QI":
        return QI(self.re, -self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is not None:
            return self.re == o.re and self.im == o.im
        if isinstance(other, numbers.Rational):
            return self.im == 0 and self.re == other
        if isinstance(other, numbers.Complex):
            # exact, as Fraction compares with float: QI(1/3) != 1/3
            other = complex(other)
            return self.re == other.real and self.im == other.imag
        return NotImplemented

    def __hash__(self):
        # CPython's complex hash, hash(re) + imag * hash(im) wrapped to the
        # hash width, so a QI hashes like any int, Fraction, float or
        # complex it equals
        width = sys.hash_info.width
        h = (hash(self.re) + sys.hash_info.imag * hash(self.im)) & ((1 << width) - 1)
        if h >= 1 << (width - 1):
            h -= 1 << width
        return -2 if h == -1 else h

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def _sympy_(self):
        import sympy

        return sympy.Rational(self.re) + sympy.I * sympy.Rational(self.im)

    def __repr__(self):
        return f"QI({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        imag = "i" if mag == 1 else f"{mag}*i"
        return f"({self.re}{sign}{imag})"


QI_I = QI(0, 1)

Coefficient = Union[QI, int, Fraction, complex, float]


def _sign_mask(b: int, neg: int, n: int) -> int:
    """Mask ``m`` with e_A * e_B = (-1)^popcount(A & m) * e_(A xor B).

    Bit i of ``m`` is the parity of B's generators below e_(i+1) (the
    transpositions that move e_(i+1) past them) xor whether e_(i+1) is in B
    and in ``neg``, the generators squaring to -1.  ``neg = (1 << p) - 1``
    gives the Clifford product of Cl(p, q); ``neg = 0`` gives the exterior
    product's sign on disjoint monomials.
    """
    m = b << 1
    shift = 1
    while shift < n:  # prefix xor: bit i becomes the parity of bits below i
        m ^= m << shift
        shift <<= 1
    return (m & ((1 << n) - 1)) ^ (b & neg)


def blade_mul(a: int, b: int, sig: Signature) -> tuple[int, int]:
    """Multiply two basis blades given as bitmasks.

    Returns ``(sign, blade)`` where sign is the product of the transposition
    parity needed to interleave the two index words and the squares of
    repeated generators.
    """
    sig = Signature(*sig)
    limit = (1 << sig.n) - 1
    if a & ~limit or b & ~limit:
        raise ValueError(f"blade uses generators beyond Cl({sig.p},{sig.q})")
    odd = (a & _sign_mask(b, (1 << sig.p) - 1, sig.n)).bit_count() & 1
    return (-1 if odd else 1), a ^ b


#: Coefficient types the integer-numerator product takes, tested with
#: ``type(c) is``, so bool and other subclasses take the generic loop.
_EXACT = frozenset((int, Fraction, QI))


def _exact_kind(ta: set[type], tb: set[type]) -> type | None:
    """QI or Fraction, whichever is the wider of two factors' coefficient types, or None.

    None unless all are exact and one factor holds only the wider: then each
    term of the generic loop, a sum of products with a factor of that type, has
    it too.  All-int factors give None, as the generic loop sums them on ints.
    """
    kind = QI if QI in ta | tb else Fraction
    return kind if ta | tb <= _EXACT and {kind} in (ta, tb) else None


#: Term pairs len(a) · len(b) from which a product of complex or exact factors,
#: and ``spinrep.twisted_adjoint_matrix`` on complex x, run in :func:`_pair_sums`
#: rather than a Python loop; the measured crossover is recorded in CHANGES.md.
_ARRAY_PAIRS = 512


def _kernel_pays(left: int, right: int, n: int) -> bool:
    """Whether ``left`` · ``right`` term pairs in an algebra on n generators go to :func:`_pair_sums`:
    from :data:`_ARRAY_PAIRS` pairs on, where its accumulators, one entry per blade, are no
    longer than the pairs.  Sparse factors in larger algebras keep the loop, which is faster there."""
    pairs = left * right
    return pairs >= _ARRAY_PAIRS and 1 << n <= pairs


#: Pair-column terms per block of :func:`_pair_sums`: each block's arrays stay small.
_BLOCK = 1 << 14


def _pair_sums(left, right, masks, lparts, rparts, columns=None):
    """Sums of ±l·r over the term pairs (a of ``left``, b of ``right``), each added to blade a ⊕ b.

    ``masks`` are the right blades' :func:`_sign_mask` words: a pair's term is
    negated when a & m_b has odd parity.  ``lparts`` and ``rparts`` hold each
    factor's coefficients as component lists, (re, im) of complex floats or of
    Gaussian integers, or (num,) of integers, whose products and sums fit int64;
    two components multiply as complex numbers do, re = ar·br − ai·bi and
    im = ar·bi + ai·br.  With ``columns = (lw, k)`` each pair adds to k
    columns instead, column j negated when bit j of lw[a] ^ m_b is set, and
    every column once more when a & m_b has odd parity.

    np.add.at adds its terms one after another in the order given, row after
    row, so each sum is built as the double loop over a, then b, builds it, bit
    for bit; a row meets each product blade at most once.  Returns the blades in
    the loop's order of first touch and, per component, their (blades, k) sums.
    """
    import numpy as np

    u64 = np.uint64
    la, lb, mb = (np.fromiter(x, dtype=u64, count=len(x)) for x in (left, right, masks))
    lw, k = (None, 1) if columns is None else (np.array(columns[0], dtype=u64), columns[1])
    lv, rv = [np.array(p) for p in lparts], [np.array(p) for p in rparts]
    xor = la[:, None] ^ lb
    index, size = xor.astype(np.intp), int(xor.max()) + 1
    accs = [np.zeros(size * k, dtype=p.dtype) for p in lv]
    first = np.full(size, xor.size)
    bits = np.arange(k, dtype=u64)
    low = u64((1 << k) - 1)
    step = max(1, _BLOCK // (len(right) * k))
    for s in range(0, len(left), step):
        rows = slice(s, s + step)
        words = (np.bitwise_count(la[rows, None] & mb) & 1).astype(u64)
        if lw is not None:
            words = words * low ^ lw[rows, None] ^ mb
        flags = words[..., None] >> bits & 1
        if len(lv) == 2:
            (ar, ai), (br, bi) = ((v[rows, None] for v in lv), rv)
            terms = (ar * br - ai * bi, ar * bi + ai * br)
        else:
            terms = (lv[0][rows, None] * rv[0],)
        cells = index[rows]
        flat = (cells[..., None] * k + np.arange(k)).ravel()
        for acc, t in zip(accs, terms):
            t = t[..., None]
            if t.dtype.kind == "f":  # flip the sign bit, as -x does, NaN included
                t = (t.view(u64) ^ flags << 63).view(t.dtype)
            else:
                t = t * (1 - 2 * flags.view(np.int64))
            np.add.at(acc, flat, t.ravel())
        np.minimum.at(first, cells.ravel(), np.arange(s * len(right), s * len(right) + cells.size))
    touched = np.flatnonzero(first < xor.size)
    order = touched[np.argsort(first[touched])]
    return order.tolist(), [acc.reshape(size, k)[order] for acc in accs]


def _components(terms: dict[int, complex]) -> tuple[list[float], list[float]]:
    """The real and the imaginary parts of complex coefficients, for :func:`_pair_sums`."""
    return [c.real for c in terms.values()], [c.imag for c in terms.values()]


def _numerators(coeffs: Iterable[Coefficient], gaussian: bool) -> tuple[int, list]:
    """A common denominator d and the numerators of exact coeffs over d, as (re, im) pairs if gaussian."""
    coeffs = [x for c in coeffs for x in ((c.re, c.im) if type(c) is QI else (c, 0))] if gaussian else list(coeffs)
    d = math.lcm(*(c.denominator for c in coeffs))
    nums = [c.numerator * (d // c.denominator) for c in coeffs]
    return d, list(zip(nums[::2], nums[1::2])) if gaussian else nums


def _loop_product(left: dict[int, Coefficient], right: list[tuple[int, Coefficient, int]]) -> dict:
    """The generic product: each term pair adds ±ca·cb to blade a ⊕ b, a after a and b after b.

    ``right`` holds (blade, coefficient, sign mask) triples.
    """
    terms: dict[int, Coefficient] = {}
    for ba, ca in left.items():
        for bb, cb, m in right:
            blade = ba ^ bb
            contrib = -(ca * cb) if (ba & m).bit_count() & 1 else ca * cb
            terms[blade] = terms.get(blade, 0) + contrib
    return terms


def _numerator_loop(left, lnum: list, right, rnum: list, gaussian: bool) -> tuple[list[int], list[list[int]]]:
    """The generic loop on integer numerators: the blades in order of first touch and the
    sums at them, one list per component (re, im if gaussian)."""
    if not gaussian:
        acc = _loop_product(dict(zip(left, lnum)), [(bb, br, m) for (bb, _, m), br in zip(right, rnum)])
        return list(acc), [list(acc.values())]
    rows = [(bb, br, bi, m) for (bb, _, m), (br, bi) in zip(right, rnum)]
    re_acc: dict[int, int] = {}
    im_acc: dict[int, int] = {}
    for ba, (ar, ai) in zip(left, lnum):
        for bb, br, bi, m in rows:
            blade = ba ^ bb
            real = ar * br - ai * bi
            imag = ar * bi + ai * br
            if (ba & m).bit_count() & 1:
                real, imag = -real, -imag
            re_acc[blade] = re_acc.get(blade, 0) + real
            im_acc[blade] = im_acc.get(blade, 0) + imag
    return list(re_acc), [list(re_acc.values()), list(im_acc.values())]


def _numerator_array(left, lnum: list, right, rnum: list, gaussian: bool) -> tuple[list[int], list[list[int]]] | None:
    """:func:`_numerator_loop`'s result from :func:`_pair_sums` on int64, or None where a sum could overflow."""
    parts = ([*zip(*lnum)], [*zip(*rnum)]) if gaussian else ([lnum], [rnum])
    # a blade's sum has at most min(len) terms, each at most two products of numerators
    bound = 2 * min(len(lnum), len(rnum)) * math.prod(max(abs(x) for p in ps for x in p) for ps in parts)
    if bound >= 1 << 63:
        return None
    blades, sums = _pair_sums(left, [bb for bb, _, _ in right], [m for _, _, m in right], *parts)
    return blades, [s[:, 0].tolist() for s in sums]


def _exact_product(
    left: dict[int, Coefficient], right: list[tuple[int, Coefficient, int]], kind: type, kernel: bool
) -> dict:
    """Terms of the product of two factors of :func:`_exact_kind` ``kind``, summed on integers.

    ``right`` holds (blade, coefficient, sign mask) triples.  Both factors are
    scaled to integer (Gaussian if ``kind`` is QI) numerators over a common
    denominator, so the sums are of plain ints and one ``kind`` is built per
    output blade: values, types and order are the generic loop's.  With
    ``kernel`` (:func:`_kernel_pays`), numerators whose sums fit int64 are
    summed by :func:`_pair_sums`.
    """
    gaussian = kind is QI
    da, lnum = _numerators(left.values(), gaussian)
    db, rnum = _numerators((cb for _, cb, _ in right), gaussian)
    d = da * db
    summed = _numerator_array(left, lnum, right, rnum, gaussian) if kernel else None
    blades, sums = summed or _numerator_loop(left, lnum, right, rnum, gaussian)
    if not gaussian:
        return {blade: Fraction(v, d) for blade, v in zip(blades, sums[0])}
    return {blade: QI(Fraction(real, d), Fraction(imag, d)) for blade, real, imag in zip(blades, *sums)}


class Multivector:
    """Sparse element of Cl(p, q): blade bitmask -> coefficient.

    Zero coefficients are pruned on construction so equality is structural.
    Instances are immutable.
    """

    __slots__ = ("signature", "terms")

    def __init__(self, signature: Signature, terms: dict[int, Coefficient] | None = None):
        sig = _validate_signature(signature)
        terms = terms or {}
        limit = (1 << sig.n) - 1
        for blade in terms:
            if blade & ~limit:
                raise ValueError(f"blade {blade:b} outside Cl({sig.p},{sig.q})")
        object.__setattr__(self, "signature", sig)
        object.__setattr__(self, "terms", {b: c for b, c in terms.items() if c != 0})

    @classmethod
    def _make(cls, sig: Signature, terms: dict[int, Coefficient]) -> "Multivector":
        """A kernel's result: ``sig`` is validated and every blade in range, so only zeros are pruned."""
        mv = object.__new__(cls)
        object.__setattr__(mv, "signature", sig)
        object.__setattr__(mv, "terms", {b: c for b, c in terms.items() if c != 0})
        return mv

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, sig: Signature) -> "Multivector":
        return cls(sig, {})

    @classmethod
    def scalar(cls, value: Coefficient, sig: Signature) -> "Multivector":
        return cls(sig, {0: value})

    @classmethod
    def basis_vector(cls, i: int, sig: Signature) -> "Multivector":
        sig = _validate_signature(sig)
        if not 1 <= i <= sig.n:
            raise ValueError(f"no generator e_{i} in Cl({sig.p},{sig.q})")
        return cls(sig, {1 << (i - 1): 1})

    @classmethod
    def blade(cls, indices: Iterable[int], sig: Signature, coeff: Coefficient = 1) -> "Multivector":
        sig = _validate_signature(sig)
        mask = 0
        for i in indices:
            if not 1 <= i <= sig.n:
                raise ValueError(f"no generator e_{i} in Cl({sig.p},{sig.q})")
            bit = 1 << (i - 1)
            if mask & bit:
                raise ValueError("blade indices must be distinct")
            mask |= bit
        return cls(sig, {mask: coeff})

    @classmethod
    def vector(cls, coeffs: Iterable[Coefficient], sig: Signature) -> "Multivector":
        terms = {1 << k: c for k, c in enumerate(coeffs)}
        return cls(sig, terms)

    # -- ring structure ----------------------------------------------------

    def _check_sig(self, other: "Multivector"):
        if self.signature != other.signature:
            raise ValueError(f"signature mismatch: {self.signature} vs {other.signature}")

    def __add__(self, other):
        if not isinstance(other, Multivector):
            return self + Multivector.scalar(other, self.signature)
        self._check_sig(other)
        terms = dict(self.terms)
        for blade, coeff in other.terms.items():
            terms[blade] = terms.get(blade, 0) + coeff
        return Multivector._make(self.signature, terms)

    __radd__ = __add__

    def __neg__(self):
        return Multivector._make(self.signature, {b: -c for b, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Multivector):
            return Multivector._make(self.signature, {b: c * other for b, c in self.terms.items()})
        sig = self.signature
        if sig != other.signature:
            raise ValueError(f"signature mismatch: {sig} vs {other.signature}")
        neg, n = (1 << sig.p) - 1, sig.n
        right = [(bb, cb, _sign_mask(bb, neg, n)) for bb, cb in other.terms.items()]
        ta, tb = set(map(type, self.terms.values())), set(map(type, other.terms.values()))
        kind, kernel = _exact_kind(ta, tb), _kernel_pays(len(self.terms), len(right), n)
        if kind is not None:
            return Multivector._make(sig, _exact_product(self.terms, right, kind, kernel))
        if kernel and ta == tb == {complex}:
            parts = _components(self.terms), _components(other.terms)
            blades, (re, im) = _pair_sums(self.terms, other.terms, [m for _, _, m in right], *parts)
            return Multivector._make(sig, dict(zip(blades, map(complex, re[:, 0].tolist(), im[:, 0].tolist()))))
        return Multivector._make(sig, _loop_product(self.terms, right))

    def __rmul__(self, other):
        # scalars commute with everything
        return Multivector._make(self.signature, {b: other * c for b, c in self.terms.items()})

    def __truediv__(self, scalar):
        if isinstance(scalar, int):
            scalar = Fraction(scalar)  # exact stays exact: 1 / 3 would be a float
        return Multivector._make(self.signature, {b: c / scalar for b, c in self.terms.items()})

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers: use clifford_inverse")
        out = Multivector.scalar(1, self.signature)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            if other == 0:
                return not self.terms
            return set(self.terms) == {0} and self.terms[0] == other
        if self.signature != other.signature:
            return False
        if {type(c) for t in (self.terms, other.terms) for c in t.values()} <= _EXACT:
            return self.terms == other.terms  # pruned and exact; inf - inf needs the difference
        return (self - other).terms == {}

    def __hash__(self):
        # equal multivectors share their blade support whatever the
        # coefficient types (1, Fraction(1), QI(1), 1+0j), so hash only that
        return hash((self.signature, frozenset(self.terms)))

    # -- grading -----------------------------------------------------------

    def grades(self) -> set[int]:
        return {b.bit_count() for b in self.terms}

    def grade_part(self, k: int) -> "Multivector":
        return Multivector._make(self.signature, {b: c for b, c in self.terms.items() if b.bit_count() == k})

    def parity(self) -> str:
        gs = {g % 2 for g in self.grades()}
        if gs <= {0}:
            return "even"
        if gs == {1}:
            return "odd"
        return "mixed"

    def scalar_part(self) -> Coefficient:
        return self.terms.get(0, 0)

    def is_zero(self) -> bool:
        return not self.terms

    # -- involutions -------------------------------------------------------

    def grade_involution(self) -> "Multivector":
        """The algebra automorphism that negates odd blades."""
        return Multivector._make(
            self.signature,
            {b: (-c if b.bit_count() & 1 else c) for b, c in self.terms.items()},
        )

    def transpose(self) -> "Multivector":
        """Anti-automorphism reversing each blade's factors: sign (-1)^(k(k-1)/2)."""
        return Multivector._make(
            self.signature,
            {b: (-c if b.bit_count() & 2 else c) for b, c in self.terms.items()},
        )

    def clifford_conjugate(self) -> "Multivector":
        """grade_involution(transpose(phi)) in one pass: sign (-1)^(k(k+1)/2)."""
        return Multivector._make(
            self.signature,
            {b: (-c if (b.bit_count() + 1) & 2 else c) for b, c in self.terms.items()},
        )

    def norm(self) -> "Multivector":
        """N(phi) = phi * grade_involution(transpose(phi))."""
        return self * self.clifford_conjugate()

    def clifford_inverse(self) -> "Multivector":
        """Inverse for elements whose norm is a nonzero scalar (Clifford group).

        In float mode, non-scalar norm components below 1e-9 (relative to
        the scalar part) are treated as rounding noise.
        """
        conj = self.clifford_conjugate()
        n = self * conj
        scalar = n.terms.get(0, 0)
        stray = [c for b, c in n.terms.items() if b != 0]
        if stray:
            floaty = any(isinstance(c, (float, complex)) for c in n.terms.values())
            bound = 1e-9 * max(1.0, abs(complex(scalar))) if floaty else 0
            if not floaty or any(abs(complex(c)) > bound for c in stray):
                raise ValueError("element has no scalar norm; cannot invert")
        if scalar == 0:
            raise ValueError("element has no scalar norm; cannot invert")
        return conj / scalar

    def __repr__(self):
        return f"Multivector({self.signature}, {format_mv(self)!r})"

    def __str__(self):
        return format_mv(self)


def volume_element(n: int) -> Multivector:
    """Complex volume element omega = i^floor((n+1)/2) e_1 ... e_n in Cl(n,0)⊗C.

    Satisfies omega^2 = 1; central for n odd, and for n even anticommutes
    with odd elements (v*omega = (-1)^(n-1) omega*v for degree-1 v).
    """
    if n < 1:
        raise ValueError("volume element needs n >= 1")
    power = (n + 1) // 2
    coeff = QI(1)
    for _ in range(power):
        coeff = coeff * QI_I
    mask = (1 << n) - 1
    return Multivector(Signature(n, 0), {mask: coeff})


def supercommutator(a: Multivector, b: Multivector) -> Multivector:
    """[a, b]_s = ab - (-1)^{|a||b|} ba, extended bilinearly over parities.

    Only odd·odd pairs take the plus sign, so [a, b]_s = ab - ba + 2·b₁a₁ with a₁, b₁ the odd parts."""
    a._check_sig(b)
    odd = lambda x: Multivector._make(x.signature, {bl: c for bl, c in x.terms.items() if bl.bit_count() & 1})
    return a * b - b * a + 2 * (odd(b) * odd(a))


# -- text format ------------------------------------------------------------

def _blade_name(blade: int) -> str:
    if blade == 0:
        return "1"
    return "".join(f"e{i + 1}" for i in range(blade.bit_length()) if blade >> i & 1)


def _format_coeff(c: Coefficient) -> str:
    if isinstance(c, QI):
        return str(c)
    if isinstance(c, complex):
        if c.imag == 0:
            return repr(c.real)
        if c.real == 0:
            return f"{c.imag!r}*i"
        sign = "+" if c.imag >= 0 else "-"
        return f"({c.real!r}{sign}{abs(c.imag)!r}*i)"
    return str(c)


def format_mv(mv: Multivector) -> str:
    """Render a multivector as text, e.g. ``3/2*e1e3 - i*e2``."""
    if not mv.terms:
        return "0"
    parts = []
    for blade in sorted(mv.terms, key=lambda b: (b.bit_count(), b)):
        coeff = mv.terms[blade]
        text = _format_coeff(coeff)
        name = _blade_name(blade)
        neg = text.startswith("-") and not text.startswith("-(")
        if neg:
            text = text[1:]
        if name == "1":
            term = text
        elif text == "1":
            term = name
        else:
            term = f"{text}*{name}"
        if not parts:
            parts.append(("-" if neg else "") + term)
        else:
            parts.append(("- " if neg else "+ ") + term)
    return " ".join(parts)


#: An unsigned rational or float as ``format_mv`` prints it: ``3``, ``3/2``,
#: ``0.25``, ``1e-05``.  An exponent needs its sign, as ``repr`` prints it,
#: so that ``3e1`` still reads as ``3*e1``.
_NUMBER = r"\d+(?:\.\d+)?(?:e[+-]\d+)?(?:/\d+)?"

_TERM_RE = re.compile(
    rf"""\s*(?P<sign>[+-])?\s*
        (?P<coeff>(?:{_NUMBER}\*?)?i|{_NUMBER}|\((?:[^()]*)\))?
        \*?
        (?P<blade>(?:e\d+)+)?\s*""",
    re.VERBOSE,
)


def _parse_coeff(text: str) -> QI:
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        inner = text[1:-1]
        m = re.fullmatch(rf"\s*(-?{_NUMBER})\s*([+-])\s*({_NUMBER})?\s*\*?\s*i\s*", inner)
        if not m:
            raise ValueError(f"cannot parse coefficient {text!r}")
        re_part = Fraction(m.group(1))
        im_mag = Fraction(m.group(3)) if m.group(3) else Fraction(1)
        im_part = im_mag if m.group(2) == "+" else -im_mag
        return QI(re_part, im_part)
    if text.endswith("i"):
        head = text[:-1].rstrip("*")
        mag = Fraction(head) if head else Fraction(1)
        return QI(0, mag)
    return QI(Fraction(text))


def parse_mv(text: str, sig: Signature) -> Multivector:
    """Parse the output of :func:`format_mv` back into a multivector."""
    sig = _validate_signature(sig)
    text = text.strip()
    if text == "0":
        return Multivector.zero(sig)
    terms: dict[int, Coefficient] = {}
    pos = 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos or (m.group("coeff") is None and m.group("blade") is None):
            raise ValueError(f"cannot parse multivector at {text[pos:]!r}")
        pos = m.end()
        coeff = _parse_coeff(m.group("coeff")) if m.group("coeff") else QI(1)
        if m.group("sign") == "-":
            coeff = -coeff
        blade = 0
        if m.group("blade"):
            for idx in re.findall(r"e(\d+)", m.group("blade")):
                i = int(idx)
                if not 1 <= i <= sig.n:
                    raise ValueError(f"generator e{i} outside Cl({sig.p},{sig.q})")
                bit = 1 << (i - 1)
                if blade & bit:
                    raise ValueError(f"repeated generator e{i} in blade")
                blade |= bit
        terms[blade] = terms.get(blade, 0) + coeff
    return Multivector(sig, terms)
