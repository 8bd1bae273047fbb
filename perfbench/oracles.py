"""Reference computations the benchmark checks spingeo against.

Nothing here imports spingeo.  Each oracle is derived from a defining
property (the Clifford relation, a closed form, known topology) rather than
from the code it checks, so a wrong result from the program can fail it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

# -- Clifford algebras: the left-regular representation ----------------------

#: A prime p = 1 (mod 4), so that -1 has a square root mod p and Gaussian
#: rationals reduce to integers mod p.  Exact products are compared mod p.
PRIME = 1_000_000_009


def _sqrt_minus_one(p: int) -> int:
    for g in range(2, p):
        r = pow(g, (p - 1) // 4, p)
        if r * r % p == p - 1:
            return r
    raise ValueError("no square root of -1")


I_MOD = _sqrt_minus_one(PRIME)


def generator_square(i: int, p: int) -> int:
    """e_i e_i = -eta_ii under e_i e_j + e_j e_i = -2 eta_ij, eta = diag(+1^p, -1^q)."""
    return -1 if i <= p else 1


def regular_representation(p: int, q: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Left multiplication by every basis blade of Cl(p, q), as signed permutations.

    Entry ``S`` is ``(dest, sign)`` with ``e_S e_T = sign[T] e_{dest[T]}``.
    The generators come from the Clifford relation alone: e_i moves past the
    generators of T below it, each swap costing a sign, and squares to
    :func:`generator_square` when T already holds it.  A blade is the product
    of its generators in increasing order.
    """
    n = p + q
    dim = 1 << n
    blades = np.arange(dim)
    gens = []
    for i in range(1, n + 1):
        bit = 1 << (i - 1)
        below = np.array([bin(t & (bit - 1)).count("1") for t in range(dim)])
        sign = np.where(below % 2, -1, 1)
        sign = np.where(blades & bit, sign * generator_square(i, p), sign)
        gens.append((blades ^ bit, sign))
    reps = [(blades.copy(), np.ones(dim, dtype=np.int64))]
    for s in range(1, dim):
        low = (s & -s).bit_length()  # lowest generator of the blade
        g_dest, g_sign = gens[low - 1]
        r_dest, r_sign = reps[s ^ (1 << (low - 1))]
        # e_S = e_low * e_rest: apply e_rest first, then e_low
        reps.append((g_dest[r_dest], r_sign * g_sign[r_dest]))
    return reps


def to_mod_p(c) -> int:
    """Reduce an exact Gaussian rational (re/im attributes, or a rational) mod PRIME."""
    re, im = (c.re, c.im) if hasattr(c, "re") else (c, 0)
    re, im = Fraction(re), Fraction(im)

    def red(x: Fraction) -> int:
        return x.numerator % PRIME * pow(x.denominator, -1, PRIME) % PRIME

    return (red(re) + I_MOD * red(im)) % PRIME


def product_mod_p(reps, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficient vector of a*b mod PRIME, from coefficient vectors mod PRIME."""
    c = np.zeros(len(b), dtype=np.int64)
    for s, coeff in enumerate(a):
        if coeff:
            dest, sign = reps[s]
            term = b * int(coeff) % PRIME
            term = np.where(sign < 0, (PRIME - term) % PRIME, term)
            c[dest] = (c[dest] + term) % PRIME
    return c


def product_complex(reps, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficient vector of a*b for complex float coefficient vectors."""
    c = np.zeros(len(b), dtype=complex)
    for s, coeff in enumerate(a):
        if coeff:
            dest, sign = reps[s]
            c[dest] += coeff * sign * b
    return c


# -- Berezin integral ----------------------------------------------------------

def block_antisymmetric(lams) -> np.ndarray:
    """blockdiag of [[0, l], [-l, 0]] for each l."""
    n = 2 * len(lams)
    a = np.zeros((n, n))
    for j, lam in enumerate(lams):
        a[2 * j, 2 * j + 1] = lam
        a[2 * j + 1, 2 * j] = -lam
    return a


def random_rotation(n: int, rng: np.random.Generator) -> np.ndarray:
    """A matrix in SO(n): QR of a Gaussian matrix, signs fixed, det made +1."""
    qm, r = np.linalg.qr(rng.normal(size=(n, n)))
    qm = qm * np.sign(np.diag(r))
    if np.linalg.det(qm) < 0:
        qm[:, 0] = -qm[:, 0]
    return qm


def berezin_closed_form(lams) -> complex:
    """prod_j (-2i sin l_j): both sides of the Berezin identity for
    A = O blockdiag(l_j) O^T, from the Pfaffian Pf(-2iA) = prod(-2i l_j) and
    det^{1/2} A-hat(-2A) = prod(l_j / sin l_j)."""
    out = complex(1.0)
    for lam in lams:
        out *= -2j * math.sin(lam)
    return out


# -- genus series on a block-diagonal test curvature ---------------------------

def bernoulli_numbers(n: int) -> list[Fraction]:
    """B_0..B_n from sum_{k<=m} C(m+1, k) B_k = 0 (so B_1 = -1/2)."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return b


def genus_series(name: str, order: int) -> list[Fraction]:
    """Taylor coefficients a_0..a_order of a genus's characteristic series.

    ahat: (x/2)/sinh(x/2) = sum (2 - 4^k) B_2k (x/2)^2k / (2k)!;
    lgenus: x/tanh(x) = sum 4^k B_2k x^2k / (2k)!; pontryagin: 1 + x^2.
    """
    b = bernoulli_numbers(order)
    out = [Fraction(0)] * (order + 1)
    for k in range(order // 2 + 1):
        if name == "ahat":
            out[2 * k] = (2 - 4**k) * b[2 * k] / (4**k * math.factorial(2 * k))
        elif name == "lgenus":
            out[2 * k] = 4**k * b[2 * k] / math.factorial(2 * k)
        elif name == "pontryagin":
            out[2 * k] = Fraction(int(k <= 1))
        else:
            raise ValueError(f"no series for {name!r}")
    return out


def _nilpotent_mul(a: dict[int, Fraction], b: dict[int, Fraction]) -> dict[int, Fraction]:
    """Product of polynomials in commuting w_k with w_k^2 = 0, keyed by bitmask."""
    out: dict[int, Fraction] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            if not ma & mb:
                out[ma | mb] = out.get(ma | mb, 0) + ca * cb
    return out


def genus_top_coefficient(name: str, theta: list[list[int]]) -> Fraction:
    """(2π)^n × the top coefficient of prod_j f(x_j) for n = len(theta) blocks.

    The coframe has 2n elements; the curvature is blockdiag([[0, θ_j], [-θ_j, 0]]) with the 2-forms
    θ_j = sum_k theta[j][k] w_k, w_k = e_{2k+1} ∧ e_{2k+2}.  Then
    X = (i/2π)F has x_j^2 = θ_j^2 / (2π)^2, and the top degree of a
    product of even series is reached by products of the θ_j^2 alone.
    """
    dims = len(theta)
    coeffs = genus_series(name, dims)
    total: dict[int, Fraction] = {0: Fraction(1)}
    for row in theta:
        t = {1 << k: Fraction(c) for k, c in enumerate(row) if c}
        t2 = _nilpotent_mul(t, t)
        series, power = {0: coeffs[0]}, {0: Fraction(1)}
        for k in range(2, dims + 1, 2):
            power = _nilpotent_mul(power, t2)
            for mask, c in power.items():
                series[mask] = series.get(mask, 0) + coeffs[k] * c
        total = _nilpotent_mul(total, series)
    return total.get((1 << dims) - 1, Fraction(0))


# -- spectra of the index models ------------------------------------------------

def torus_dirac_spectrum(delta, cutoff: int) -> np.ndarray:
    """Sorted D^2 eigenvalues 4π^2 |k + δ|^2, k in [-cutoff, cutoff]^2, of one chirality."""
    n = np.arange(-cutoff, cutoff + 1)
    k2 = (n + delta[0])[:, None] ** 2 + (n + delta[1])[None, :] ** 2
    return np.sort(4 * math.pi**2 * k2.ravel())


def sphere2_hodge_spectrum(l_max: int, chirality: int) -> dict[float, int]:
    """{l(l+1): 2(2l+1)} of the Hodge Laplacian on even (l >= 0) or odd (l >= 1) forms of S^2."""
    first = 0 if chirality > 0 else 1
    return {float(l * (l + 1)): 2 * (2 * l + 1) for l in range(first, l_max + 1)}


# -- Čech nerves of surfaces, with known topology -----------------------------

def torus_grid(rows: int, cols: int) -> list[tuple[int, ...]]:
    """Triangles of the rows x cols grid triangulation of the torus (rows, cols >= 3)."""
    def v(i, j):
        return (i % rows) * cols + (j % cols)

    tris = []
    for i in range(rows):
        for j in range(cols):
            tris.append(tuple(sorted((v(i, j), v(i + 1, j), v(i + 1, j + 1)))))
            tris.append(tuple(sorted((v(i, j), v(i, j + 1), v(i + 1, j + 1)))))
    return tris


def torus7() -> list[tuple[int, ...]]:
    """The 7-vertex (Möbius-Császár) torus: triangles {i, i+1, i+3}, {i, i+2, i+3} mod 7."""
    tris = []
    for i in range(7):
        tris.append(tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))))
        tris.append(tuple(sorted((i, (i + 2) % 7, (i + 3) % 7))))
    return tris


def connected_sum(a: list[tuple[int, ...]], b: list[tuple[int, ...]], cut: tuple[int, int, int]):
    """Remove triangle ``cut`` from both surfaces and glue along its boundary.

    Vertices of ``b`` outside ``cut`` are shifted past those of ``a``.
    Returns (vertex count, triangles).
    """
    va = 1 + max(max(t) for t in a)
    fresh = iter(range(va, va + 10**6))
    vb = 1 + max(max(t) for t in b)
    relabel = {v: (v if v in cut else next(fresh)) for v in range(vb)}
    tris = [t for t in a if t != cut]
    tris += [tuple(sorted(relabel[v] for v in t)) for t in b if t != cut]
    return va + vb - 3, tris


def genus2() -> tuple[int, list[tuple[int, ...]]]:
    """An 11-vertex triangulated genus-2 surface: two 7-vertex tori glued."""
    return connected_sum(torus7(), torus7(), (0, 1, 3))


def relabel(vertices: int, tris, rng: np.random.Generator):
    """Apply a random vertex permutation (the same surface, other numbering)."""
    perm = rng.permutation(vertices)
    return [tuple(sorted(int(perm[v]) for v in t)) for t in tris]


def euler_characteristic(tris) -> int:
    verts = {v for t in tris for v in t}
    edges = {e for t in tris for e in combinations(t, 2)}
    return len(verts) - len(edges) + len(set(tris))


def is_closed_surface(tris) -> bool:
    """Every edge lies on exactly two triangles."""
    count: dict[tuple[int, int], int] = {}
    for t in tris:
        for e in combinations(t, 2):
            count[e] = count.get(e, 0) + 1
    return all(c == 2 for c in count.values())


def surface_z2_betti(genus: int) -> tuple[int, int, int]:
    """dim H^0, H^1, H^2 over Z2 of the closed orientable surface of given genus."""
    return (1, 2 * genus, 1)


# -- heat kernels ----------------------------------------------------------------

def hermite_kernel(t: float, x: float, y: float, a: float, eps: float = 1e-18) -> float:
    """sum_k e^{-t a (2k+1)} psi_k(x) psi_k(y) for H = -d²/dx² + a²x².

    psi_k are the normalized Hermite functions in sqrt(a) x, built by their
    three-term recurrence; terms are added until the weight e^{-2tak} drops
    below eps.
    """
    s = math.sqrt(a)
    u, w = s * x, s * y
    norm = (a / math.pi) ** 0.25
    pu, pw = norm * math.exp(-u * u / 2), norm * math.exp(-w * w / 2)
    pu_prev = pw_prev = 0.0
    total = 0.0
    k = 0
    while True:
        weight = math.exp(-t * a * (2 * k + 1))
        total += weight * pu * pw
        if weight < eps and k > 2:
            return total
        c1, c0 = math.sqrt(2.0 / (k + 1)), math.sqrt(k / (k + 1))
        pu, pu_prev = c1 * u * pu - c0 * pu_prev, pu
        pw, pw_prev = c1 * w * pw - c0 * pw_prev, pw
        k += 1


def sphere2_tail(t: float, l_max: int) -> float:
    """Bound on the S² Hodge supertrace remainder beyond l_max: 4(l+1)² e^{-t l(l+1)}."""
    return 4.0 * (l_max + 1) ** 2 * math.exp(-t * l_max * (l_max + 1))


# -- Clifford classification (standard table) -----------------------------------

#: Cl(p,q), Cl^c_n and Cl^0(p,q) as (base, matrix size, doubled), from the
#: table in Lawson-Michelsohn, *Spin Geometry*, I.4, under v·v = -g(v,v).
CLASSIFICATION = {
    ("real", 3, 0): ("H", 1, True),
    ("complex", 4): ("C", 4, False),
    ("even", 2, 0): ("C", 1, False),
}


def algebra_name(base: str, size: int, doubled: bool) -> str:
    core = base if size == 1 else f"M{size}({base})"
    return f"{core} + {core}" if doubled else core
