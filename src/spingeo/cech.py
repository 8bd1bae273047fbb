"""Čech cohomology with Z₂ coefficients on finite good-cover nerves.

Covers are purely combinatorial: a :class:`Nerve` lists the patches and the
nonempty multiple intersections (simplices).  Cochains take multiplicative
values in {+1, -1}; the coboundary is the alternating product over faces.
On top of this sit the first Stiefel-Whitney class (orientability of a sign
cocycle), the second (obstruction to lifting transition signs), and the
enumeration of spin structures together with the free transitive action of
H¹ on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np


@dataclass(frozen=True)
class Nerve:
    """Patch count plus sorted simplex tuples, downward closed."""

    patches: int
    simplices: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = set()
        for s in self.simplices:
            if not s:
                raise ValueError("the empty simplex () is not a simplex of a nerve")
            if tuple(sorted(s)) != s or len(set(s)) != len(s):
                raise ValueError(f"simplex {s} must be sorted and duplicate-free")
            if s[0] < 0 or s[-1] >= self.patches:
                raise ValueError(f"simplex {s} outside patch range")
            seen.add(s)
        for s in seen:
            if len(s) > 1:
                for face in combinations(s, len(s) - 1):
                    if len(face) > 1 and face not in seen:
                        raise ValueError(f"nerve not downward closed at {s}: missing {face}")

    def simplices_of_dim(self, k: int) -> list[tuple[int, ...]]:
        """All k-simplices ((k+1)-fold intersections), vertices included for k=0."""
        if k == 0:
            return [(i,) for i in range(self.patches)]
        return sorted(s for s in self.simplices if len(s) == k + 1)


def make_nerve(patches: int, simplices) -> Nerve:
    """Build a nerve, closing the given simplices downward automatically."""
    closed = set()
    for s in simplices:
        s = tuple(sorted(s))
        closed.add(s)
        for size in range(2, len(s)):
            closed.update(combinations(s, size))
    return Nerve(patches, tuple(sorted(closed, key=lambda t: (len(t), t))))


class Cochain:
    """Multiplicative Z₂ cochain: map from k-simplices to {+1, -1}."""

    def __init__(self, nerve: Nerve, k: int, values: dict[tuple[int, ...], int] | None = None):
        self.nerve = nerve
        self.k = k
        simplices = nerve.simplices_of_dim(k)
        vals = {s: 1 for s in simplices}
        for s, v in (values or {}).items():
            s = tuple(sorted(s))
            if s not in vals:
                raise ValueError(f"{s} is not a {k}-simplex of the nerve")
            if v not in (1, -1):
                raise ValueError("values must be +1 or -1")
            vals[s] = v
        self.values = vals

    def __getitem__(self, s) -> int:
        return self.values[tuple(sorted(s))]

    def __mul__(self, other: "Cochain") -> "Cochain":
        if self.k != other.k or self.nerve != other.nerve:
            raise ValueError("cochain mismatch")
        return Cochain(self.nerve, self.k, {s: v * other.values[s] for s, v in self.values.items()})

    def __eq__(self, other):
        return (
            isinstance(other, Cochain)
            and self.k == other.k
            and self.nerve == other.nerve
            and self.values == other.values
        )

    def is_trivial(self) -> bool:
        return all(v == 1 for v in self.values.values())

    def to_vector(self) -> np.ndarray:
        """GF(2) vector in the sorted-simplex basis (+1 -> 0, -1 -> 1)."""
        simplices = self.nerve.simplices_of_dim(self.k)
        return np.array([0 if self.values[s] == 1 else 1 for s in simplices], dtype=np.int64)

    @classmethod
    def from_vector(cls, nerve: Nerve, k: int, vec) -> "Cochain":
        simplices = nerve.simplices_of_dim(k)
        return cls(nerve, k, {s: (-1) ** int(v) for s, v in zip(simplices, vec)})


def coboundary(sigma: Cochain) -> Cochain:
    """(δσ)(s) = Π_j σ(s with vertex j dropped); satisfies δ∘δ = trivial."""
    nerve = sigma.nerve
    k = sigma.k
    out = {}
    for s in nerve.simplices_of_dim(k + 1):
        val = 1
        for j in range(len(s)):
            face = s[:j] + s[j + 1 :]
            val *= sigma[face]
        out[s] = val
    return Cochain(nerve, k + 1, out)


def coboundary_matrix(nerve: Nerve, k: int) -> np.ndarray:
    """GF(2) matrix of δ_k from k-cochains to (k+1)-cochains."""
    rows = nerve.simplices_of_dim(k + 1)
    cols = nerve.simplices_of_dim(k)
    col_index = {s: i for i, s in enumerate(cols)}
    mat = np.zeros((len(rows), len(cols)), dtype=np.int64)
    for r, s in enumerate(rows):
        for j in range(len(s)):
            face = s[:j] + s[j + 1 :]
            mat[r, col_index[face]] ^= 1
    return mat


def gf2_rank(mat: np.ndarray) -> int:
    mat = mat.copy() % 2
    rows, cols = mat.shape
    rank = 0
    for c in range(cols):
        pivot = None
        for r in range(rank, rows):
            if mat[r, c]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[[rank, pivot]] = mat[[pivot, rank]]
        for r in range(rows):
            if r != rank and mat[r, c]:
                mat[r] ^= mat[rank]
        rank += 1
    return rank


def gf2_solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """One solution of mat @ x = rhs over GF(2), or None."""
    rows, cols = mat.shape
    aug = np.concatenate([mat % 2, (rhs % 2).reshape(-1, 1)], axis=1)
    pivots = []
    rank = 0
    for c in range(cols):
        pivot = None
        for r in range(rank, rows):
            if aug[r, c]:
                pivot = r
                break
        if pivot is None:
            continue
        aug[[rank, pivot]] = aug[[pivot, rank]]
        for r in range(rows):
            if r != rank and aug[r, c]:
                aug[r] ^= aug[rank]
        pivots.append(c)
        rank += 1
    for r in range(rank, rows):
        if aug[r, -1]:
            return None
    x = np.zeros(cols, dtype=np.int64)
    for r, c in enumerate(pivots):
        x[c] = aug[r, -1]
    return x


def gf2_nullspace(mat: np.ndarray) -> list[np.ndarray]:
    """Basis of ker(mat) over GF(2)."""
    rows, cols = mat.shape
    work = mat.copy() % 2
    pivots = {}
    rank = 0
    for c in range(cols):
        pivot = None
        for r in range(rank, rows):
            if work[r, c]:
                pivot = r
                break
        if pivot is None:
            continue
        work[[rank, pivot]] = work[[pivot, rank]]
        for r in range(rows):
            if r != rank and work[r, c]:
                work[r] ^= work[rank]
        pivots[c] = rank
        rank += 1
    basis = []
    free = [c for c in range(cols) if c not in pivots]
    for f in free:
        vec = np.zeros(cols, dtype=np.int64)
        vec[f] = 1
        for c, r in pivots.items():
            if work[r, f]:
                vec[c] = 1
        basis.append(vec)
    return basis


def cohomology_dim(nerve: Nerve, k: int) -> int:
    """dim_{GF(2)} H^k of the nerve's Čech complex."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    num_k = len(nerve.simplices_of_dim(k))
    if num_k == 0:
        return 0
    delta_k = coboundary_matrix(nerve, k)
    ker = num_k - gf2_rank(delta_k)
    if k == 0:
        return ker
    delta_prev = coboundary_matrix(nerve, k - 1)
    return ker - gf2_rank(delta_prev)


# -- Stiefel-Whitney classes ----------------------------------------------------

@dataclass
class CohomologyClass:
    representative: Cochain
    trivial: bool
    witness: Cochain | None = None  # s with δs = representative when trivial


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
    sol = gf2_solve(coboundary_matrix(nerve, 0), transitions.to_vector())
    if sol is None:
        return CohomologyClass(transitions, False)
    return CohomologyClass(transitions, True, Cochain.from_vector(nerve, 0, sol))


@dataclass
class SpinStructureReport:
    epsilon: Cochain
    w2_trivial: bool
    count: int
    structures: list[Cochain] = field(default_factory=list)
    torsor_verified: bool = False


def w2_cocycle(lifts: Cochain) -> Cochain:
    """ε_{αβγ} = g̃_{γα} g̃_{βγ} g̃_{αβ} from lift signs on double overlaps.

    In the sign model g̃_{βα} = g̃_{αβ}^{-1} = g̃_{αβ}, so ε is exactly the
    coboundary of the lift cochain; changing lifts changes ε by δκ.
    """
    if lifts.k != 1:
        raise ValueError("lift data lives on double overlaps")
    return coboundary(lifts)


def _h1_representatives(nerve: Nerve) -> list[np.ndarray]:
    """Canonical representative vectors of H¹, one per class."""
    delta1 = coboundary_matrix(nerve, 1)
    delta0 = coboundary_matrix(nerve, 0)
    kernel = gf2_nullspace(delta1)
    image = [delta0[:, j].copy() for j in range(delta0.shape[1])]
    # enumerate ker / im by reducing each kernel vector to a canonical coset rep
    image_basis = _row_reduce([v for v in image])
    seen = {}
    reps = []
    size = len(nerve.simplices_of_dim(1))
    for bits in range(1 << len(kernel)):
        vec = np.zeros(size, dtype=np.int64)
        for idx, b in enumerate(kernel):
            if bits >> idx & 1:
                vec ^= b
        canon = _reduce_mod(vec, image_basis)
        key = canon.tobytes()
        if key not in seen:
            seen[key] = True
            reps.append(vec)
    return reps


def _row_reduce(vectors) -> list[np.ndarray]:
    """Reduced row echelon basis over GF(2); gives unique coset normal forms."""
    vectors = [v % 2 for v in vectors]
    if not vectors:
        return []
    mat = np.array(vectors, dtype=np.int64)
    rows, cols = mat.shape
    rank = 0
    for c in range(cols):
        pivot = None
        for r in range(rank, rows):
            if mat[r, c]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[[rank, pivot]] = mat[[pivot, rank]]
        for r in range(rows):
            if r != rank and mat[r, c]:
                mat[r] ^= mat[rank]
        rank += 1
    return [mat[r] for r in range(rank)]


def _reduce_mod(v: np.ndarray, basis) -> np.ndarray:
    v = v.copy()
    for w in basis:
        lead = int(np.argmax(w == 1))
        if v[lead]:
            v ^= w
    return v


def w2_and_spin_structures(lifts: Cochain) -> SpinStructureReport:
    """Second Stiefel-Whitney data and the spin-structure enumeration.

    If ε is trivial in H², the spin structures are the corrections c with
    δ(c) = ε modulo coboundaries; they form a torsor under H¹, which is
    verified by brute force on the enumerated set.
    """
    nerve = lifts.nerve
    epsilon = w2_cocycle(lifts)
    if not coboundary(epsilon).is_trivial():
        raise ValueError("ε failed the 2-cocycle check")
    delta1 = coboundary_matrix(nerve, 1)
    particular = gf2_solve(delta1, epsilon.to_vector())
    if particular is None:
        return SpinStructureReport(epsilon, False, 0)
    delta0 = coboundary_matrix(nerve, 0)
    image_basis = _row_reduce([delta0[:, j].copy() for j in range(delta0.shape[1])])
    reps = _h1_representatives(nerve)
    # solution set = particular + ker δ1; classes = canonical reps of cosets
    classes = {}
    structures = []
    for rep in reps:
        sol = (particular ^ rep) % 2
        canon = _reduce_mod(sol, image_basis)
        key = canon.tobytes()
        if key not in classes:
            classes[key] = sol
            structures.append(Cochain.from_vector(nerve, 1, sol))
    count = len(structures)
    torsor = _verify_torsor(nerve, structures, reps, image_basis)
    return SpinStructureReport(epsilon, True, count, structures, torsor)


def _verify_torsor(nerve: Nerve, structures, h1_reps, image_basis) -> bool:
    """H¹ acts by multiplication; check the action is free and transitive."""
    keys = [
        _reduce_mod(s.to_vector(), image_basis).tobytes() for s in structures
    ]
    key_set = set(keys)
    if len(key_set) != len(structures) or len(h1_reps) != len(structures):
        return False
    for s in structures:
        images = set()
        for rep in h1_reps:
            moved = (s.to_vector() ^ rep) % 2
            images.add(_reduce_mod(moved, image_basis).tobytes())
        if images != key_set:  # transitive (and free, by cardinality)
            return False
    return True


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


def nerve_from_dict(data: dict) -> Nerve:
    """Load a nerve from {patches, simplices} JSON data."""
    return make_nerve(int(data["patches"]), [tuple(s) for s in data["simplices"]])
