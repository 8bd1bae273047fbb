"""Čech cohomology with Z₂ coefficients on finite good-cover nerves.

Covers are purely combinatorial: a :class:`Nerve` lists the patches and the
nonempty multiple intersections (simplices).  Cochains take multiplicative
values in {+1, -1}, stored as GF(2) bitmasks; the coboundary is the product
over faces, i.e. the GF(2) coboundary matrix applied to the bitmask.
On top of this sit the first Stiefel-Whitney class (orientability of a sign
cocycle), a sign model of the second, and the enumeration of spin structures,
certified as the torsor under H¹.
"""

from __future__ import annotations

from itertools import combinations

from .records import FrozenRecord, Record


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_patches(patches) -> None:
    if not _is_int(patches) or patches < 0:
        raise ValueError(f"patches must be an integer >= 0, not {patches!r}")


def _vertices(s, patches: int | None) -> tuple[int, ...]:
    """s's vertices in sorted order, once checked: integers, none repeated, in range(patches) unless that is None."""
    if not isinstance(s, (tuple, list)):
        raise ValueError(f"simplex {s!r} must be a list of vertices")
    s = tuple(s)
    if not all(map(_is_int, s)):  # before sorting, which would compare 0 with 'a'
        raise ValueError(f"simplex {s} must have integer vertices")
    if not s:
        raise ValueError("the empty simplex () is not a simplex of a nerve")
    ordered = tuple(sorted(s))
    if len(set(ordered)) != len(ordered):
        raise ValueError(f"simplex {s} repeats a vertex")
    if patches is not None and (ordered[0] < 0 or ordered[-1] >= patches):
        raise ValueError(f"simplex {s} outside patch range")
    return ordered


class Nerve(FrozenRecord):
    """Patch count plus sorted simplex tuples, downward closed.

    ``_by_dim``, derived and so not a field, groups the sorted k-simplices by k (vertices: the patches).
    """

    _fields = ("patches", "simplices")
    __slots__ = (*_fields, "_by_dim")

    def __init__(self, patches: int, simplices: tuple[tuple[int, ...], ...]):
        _check_patches(patches)
        seen = set()
        for s in simplices:
            if _vertices(s, patches) != s:
                raise ValueError(f"simplex {s} must be a sorted tuple")
            seen.add(s)
        for s in seen:
            if len(s) > 1:
                for face in combinations(s, len(s) - 1):
                    if len(face) > 1 and face not in seen:
                        raise ValueError(f"nerve not downward closed at {s}: missing {face}")
        self._fill(patches, simplices, sorted(simplices))

    @classmethod
    def _make(cls, patches: int, simplices: tuple[tuple[int, ...], ...]) -> "Nerve":
        """A nerve from checked, downward-closed simplices already sorted by (size, vertices)."""
        nerve = object.__new__(cls)
        nerve._fill(patches, simplices, simplices)
        return nerve

    def _fill(self, patches, simplices, ordered) -> None:
        """Set the fields, and ``_by_dim`` from ``ordered``: the simplices, sorted within each size."""
        super().__init__(patches, simplices)
        groups = {0: [(i,) for i in range(patches)]}
        for s in ordered:
            if len(s) > 1:
                groups.setdefault(len(s) - 1, []).append(s)
        object.__setattr__(self, "_by_dim", groups)

    def simplices_of_dim(self, k: int) -> list[tuple[int, ...]]:
        """All k-simplices ((k+1)-fold intersections), vertices included for k=0."""
        return list(self._by_dim.get(k, ()))


def make_nerve(patches: int, simplices) -> Nerve:
    """Build a nerve, closing the given simplices downward automatically.

    Only the given simplices are checked: their faces are valid by construction."""
    _check_patches(patches)
    closed = set()
    for s in simplices:
        s = _vertices(s, patches)
        closed.add(s)
        for size in range(2, len(s)):
            closed.update(combinations(s, size))
    return Nerve._make(patches, tuple(sorted(closed, key=lambda t: (len(t), t))))


class Cochain:
    """Multiplicative Z₂ cochain: map from k-simplices to {+1, -1}, kept as its GF(2) vector."""

    def __init__(self, nerve: Nerve, k: int, values: dict[tuple[int, ...], int] | None = None):
        self.nerve, self.k, self.vector = nerve, k, 0
        index = {s: i for i, s in enumerate(nerve._by_dim.get(k, ()))} if values else {}
        for s, v in (values or {}).items():
            s = _vertices(s, None)  # out of range: not a simplex of the nerve, reported next
            if s not in index:
                raise ValueError(f"{s} is not a {k}-simplex of the nerve")
            if not _is_int(v) or v not in (1, -1):
                raise ValueError(f"values must be +1 or -1 as ints, got {v!r} at {s}")
            bit = 1 << index[s]
            self.vector = self.vector | bit if v == -1 else self.vector & ~bit

    @property
    def values(self) -> dict[tuple[int, ...], int]:
        simplices = self.nerve.simplices_of_dim(self.k)
        return {s: -1 if self.vector >> i & 1 else 1 for i, s in enumerate(simplices)}

    def __getitem__(self, s) -> int:
        return self.values[tuple(sorted(s))]

    def __mul__(self, other: "Cochain") -> "Cochain":
        if self.k != other.k or self.nerve != other.nerve:
            raise ValueError("cochain mismatch")
        return Cochain.from_vector(self.nerve, self.k, self.vector ^ other.vector)

    def __eq__(self, other):
        same = isinstance(other, Cochain) and (self.k, self.nerve) == (other.k, other.nerve)
        return same and self.vector == other.vector

    def is_trivial(self) -> bool:
        return not self.vector

    def to_vector(self) -> int:
        """GF(2) vector as a bitmask: bit i is set when simplex i of the sorted basis carries -1."""
        return self.vector

    @classmethod
    def from_vector(cls, nerve: Nerve, k: int, vec: int) -> "Cochain":
        size = len(nerve._by_dim.get(k, ()))
        if vec < 0 or vec >> size:
            raise ValueError(f"vector {vec:#x} has bits outside the {size} {k}-simplices")
        cochain = cls(nerve, k)
        cochain.vector = vec
        return cochain


def _apply(rows: list[int], x: int) -> int:
    """Matrix times vector over GF(2): bit r is the parity of row r & x."""
    return sum(((row & x).bit_count() & 1) << r for r, row in enumerate(rows))


def coboundary(sigma: Cochain) -> Cochain:
    """(δσ)(s) = Π_j σ(s with vertex j dropped); satisfies δ∘δ = trivial."""
    delta = coboundary_matrix(sigma.nerve, sigma.k)
    return Cochain.from_vector(sigma.nerve, sigma.k + 1, _apply(delta, sigma.vector))


def coboundary_matrix(nerve: Nerve, k: int) -> list[int]:
    """GF(2) matrix of δ_k: one row bitmask over the k-simplices per (k+1)-simplex."""
    col_index = {s: i for i, s in enumerate(nerve._by_dim.get(k, ()))}
    rows = []
    for s in nerve._by_dim.get(k + 1, ()):
        row = 0
        for j in range(len(s)):
            row ^= 1 << col_index[s[:j] + s[j + 1 :]]
        rows.append(row)
    return rows


# -- GF(2) elimination on row bitmasks -----------------------------------------
# An echelon basis maps each pivot column to its row, whose highest set bit it
# is; rows are not reduced against each other.  A row touches no bit above its
# pivot, so clearing v's pivot bits from the highest downward, rescanning after
# each XOR, leaves the unique element of v + span with no pivot bit set: a
# normal form without full reduction.  Pivoting on the highest bit is the
# reduction of persistent homology (Edelsbrunner-Letscher-Zomorodian 2002):
# on coboundary matrices, whose rows and columns are simplices in sorted
# order, it keeps the basis rows sparse where the lowest bit fills them in.
# Keys are column numbers, not the bits themselves: hashing a small int is
# cheaper than hashing a wide power of two.

def _reduce(v: int, basis: dict[int, int]) -> int:
    """Normal form of v modulo the span of an echelon basis: no pivot bit left set."""
    bits = v  # v's bits not yet scanned
    while bits:
        col = bits.bit_length() - 1
        row = basis.get(col)
        if row:
            v ^= row
            bits ^= row
        else:
            bits ^= 1 << col
    return v


def _insert(basis: dict[int, int], row: int) -> bool:
    """Add row's normal form to the echelon basis in place; False when row was in the span."""
    row = _reduce(row, basis)
    if not row:
        return False
    basis[row.bit_length() - 1] = row
    return True


def _echelon(rows) -> dict[int, int]:
    basis: dict[int, int] = {}
    for row in rows:
        _insert(basis, row)
    return basis


def _back_substitute(basis: dict[int, int], x: int) -> int:
    """x plus each pivot bit, lowest first, whose row has odd parity against x: every row ends even.

    A row touches no bit above its pivot, so once the lower pivots are settled
    only its own pivot bit can still change its parity."""
    for col in sorted(basis):
        if (basis[col] & x).bit_count() & 1:
            x |= 1 << col
    return x


def gf2_rank(rows: list[int]) -> int:
    return len(_echelon(rows))


def gf2_solve(rows: list[int], rhs: int, ncols: int) -> int | None:
    """One x with rows · x = rhs over GF(2) (bit r of rhs for row r), or None.

    Row r is shifted up one column and carries rhs bit r as a flag in column 0,
    below every column of x: no solution exactly when the flag alone becomes a
    pivot, else back substitution from the flag, shifted back down."""
    if any(row >> ncols for row in rows):
        raise ValueError(f"a row has bits outside the {ncols} columns")
    basis = _echelon(row << 1 | rhs >> r & 1 for r, row in enumerate(rows))
    if 0 in basis:
        return None
    return _back_substitute(basis, 1) >> 1


def gf2_nullspace(rows: list[int], ncols: int) -> list[int]:
    """Basis of ker(rows) over GF(2): back substitution from each free column."""
    if any(row >> ncols for row in rows):
        raise ValueError(f"a row has bits outside the {ncols} columns")
    basis = _echelon(rows)
    return [_back_substitute(basis, 1 << c) for c in range(ncols) if c not in basis]


def cohomology_dim(nerve: Nerve, k: int) -> int:
    """dim_{GF(2)} H^k of the nerve's Čech complex."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    ker = len(nerve.simplices_of_dim(k)) - gf2_rank(coboundary_matrix(nerve, k))
    if k == 0:
        return ker
    return ker - gf2_rank(coboundary_matrix(nerve, k - 1))


def cohomology_dims(nerve: Nerve, top: int) -> list[int]:
    """[dim H^0, ..., dim H^top], building and ranking each δ_k, k ≤ top, once."""
    if top < 0:
        raise ValueError("top must be nonnegative")
    ranks = [gf2_rank(coboundary_matrix(nerve, k)) for k in range(top + 1)]
    return [len(nerve.simplices_of_dim(k)) - ranks[k] - (ranks[k - 1] if k else 0) for k in range(top + 1)]


# -- Stiefel-Whitney classes ----------------------------------------------------

class CohomologyClass(Record):
    """A cocycle, whether its class is trivial, and then a witness s with δs = representative (else None)."""

    __slots__ = _fields = ("representative", "trivial", "witness")


def w1(transitions: Cochain) -> CohomologyClass:
    """First Stiefel-Whitney class of determinant signs on double overlaps.

    Checks the cocycle condition and decides triviality (orientability) by
    solving c = δs over GF(2); the witness s is returned when it exists.
    """
    if transitions.k != 1:
        raise ValueError("w1 needs a 1-cochain of pair signs")
    nerve = transitions.nerve
    if not coboundary(transitions).is_trivial():
        raise ValueError("transition signs do not form a cocycle")
    sol = gf2_solve(coboundary_matrix(nerve, 0), transitions.to_vector(), nerve.patches)
    if sol is None:
        return CohomologyClass(transitions, False, None)
    return CohomologyClass(transitions, True, Cochain.from_vector(nerve, 0, sol))


class SpinStructureReport(Record):
    """ε, whether w₂ vanishes, and the spin structures with their count and torsor certificate."""

    __slots__ = _fields = ("epsilon", "w2_trivial", "count", "structures", "torsor_verified")


def w2_and_spin_structures(lifts: Cochain) -> SpinStructureReport:
    """The sign model's ε = δ(lifts) and the spin-structure enumeration.

    ε_{αβγ} = g̃_{γα} g̃_{βγ} g̃_{αβ} with g̃_{βα} = g̃_{αβ} is the coboundary of the
    lifts, so w₂ is reported trivial on every nerve and the count is 2^b₁
    whatever the lifts (ROADMAP item 8 computes w₂).  The spin structures are the
    c with δc = ε modulo coboundaries, an H¹-torsor.  Each class has exactly one
    representative vanishing on a spanning forest (edges with independent δ₀
    rows), so the pinned system always has a solution (lifts + δ₀s for the s
    with δ₀s = lifts on the forest); one solution plus the span of its b₁ kernel
    vectors gives them all, certified by :func:`_verify_torsor`.
    """
    if lifts.k != 1:
        raise ValueError("lift data lives on double overlaps")
    nerve = lifts.nerve
    epsilon = coboundary(lifts)
    edges = nerve.simplices_of_dim(1)
    forest: dict[int, int] = {}
    pins = [1 << i for i, row in enumerate(coboundary_matrix(nerve, 0)) if _insert(forest, row)]
    rows = pins + coboundary_matrix(nerve, 1)  # c = 0 on each forest edge, then δ₁c = ε
    vectors = [gf2_solve(rows, epsilon.vector << len(pins), len(edges))]
    for z in gf2_nullspace(rows, len(edges)):
        vectors += [v ^ z for v in vectors]
    structures = [Cochain.from_vector(nerve, 1, v) for v in vectors]
    stars = [0] * nerve.patches  # the certificate's im δ₀: δ₀ of a vertex is its edges
    for i, (a, b) in enumerate(edges):
        stars[a] |= 1 << i
        stars[b] |= 1 << i
    torsor = _verify_torsor(epsilon, vectors, _echelon(stars))
    return SpinStructureReport(epsilon, True, len(structures), structures, torsor)


def _verify_torsor(epsilon: Cochain, vectors: list[int], image: dict[int, int]) -> bool:
    """The classes of solutions of δc = ε modulo im δ₀ (echelon basis ``image``) form an
    H¹-torsor, so vectors that solve it, are distinct modulo im δ₀ and number 2^b₁ (b₁ from
    its own rank count: δ₁, and ``image``'s size for δ₀) are one representative of every class."""
    delta1 = coboundary_matrix(epsilon.nerve, 1)
    b1 = len(epsilon.nerve.simplices_of_dim(1)) - gf2_rank(delta1) - len(image)  # ker δ₁ less im δ₀
    return (
        all(_apply(delta1, v) == epsilon.vector for v in vectors)
        and len({_reduce(v, image) for v in vectors}) == len(vectors)
        and len(vectors) == 2**b1
    )


# -- built-in nerves -------------------------------------------------------------

def circle_nerve() -> Nerve:
    """Three arcs covering S¹: all pairs overlap, no triple overlap."""
    return make_nerve(3, [(0, 1), (1, 2), (0, 2)])


def sphere_nerve() -> Nerve:
    """Tetrahedral good cover of S²: boundary of the 3-simplex (hollow)."""
    return make_nerve(4, list(combinations(range(4), 3)))


def torus_nerve() -> Nerve:
    """9-patch grid good cover of T² (3x3 grid, standard triangulation)."""
    def v(i, j):
        return (i % 3) * 3 + (j % 3)

    triangles = []
    for i in range(3):
        for j in range(3):
            triangles.append((v(i, j), v(i + 1, j), v(i + 1, j + 1)))
            triangles.append((v(i, j), v(i, j + 1), v(i + 1, j + 1)))
    return make_nerve(9, triangles)


BUILTIN_NERVES = {
    "circle": circle_nerve,
    "sphere": sphere_nerve,
    "torus": torus_nerve,
}


#: Largest patch count, closure size Σ 2^{len s} over the given simplices s (the faces they close down
#: to, counted with repeats) and product of the two in a nerve file.  A file at any one limit loads and
#: ranks its coboundaries in under 1 s (2 cores, Python 3.11): δ₀ keeps a patches-bit row per edge.
NERVE_MAX_PATCHES, NERVE_MAX_CLOSURE, NERVE_MAX_PATCHES_TIMES_CLOSURE = 1_000_000, 1 << 17, 1 << 31


def nerve_from_dict(data: dict) -> Nerve:
    """Load a nerve from {patches, simplices} JSON data, within the limits above before anything is built;
    :func:`make_nerve` checks each simplex."""
    if not isinstance(data, dict):
        raise ValueError(f"a nerve file holds a JSON object, not {type(data).__name__}")
    if "patches" not in data or "simplices" not in data:
        raise ValueError(f"a nerve file holds {{patches, simplices}}, not {{{', '.join(data)}}}")
    patches, simplices = data["patches"], data["simplices"]
    if not isinstance(simplices, list):
        raise ValueError(f"simplices must be a list of simplices, not {simplices!r}")
    _check_patches(patches)
    if patches > NERVE_MAX_PATCHES:
        raise ValueError(f"patches must be at most {NERVE_MAX_PATCHES:,}, not {patches:,}")
    closure = sum(1 << len(s) for s in simplices if isinstance(s, list))
    if closure > NERVE_MAX_CLOSURE:
        raise ValueError(f"the simplices close down to more than {NERVE_MAX_CLOSURE:,} faces (Σ 2^len)")
    if patches * closure > NERVE_MAX_PATCHES_TIMES_CLOSURE:
        raise ValueError(f"{patches:,} patches times {closure:,} faces is over {NERVE_MAX_PATCHES_TIMES_CLOSURE:,}")
    return make_nerve(patches, simplices)
