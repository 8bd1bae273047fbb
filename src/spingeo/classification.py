"""Symbolic classification of Cl(p, q) and Cl^c_n as matrix algebras.

Reduces a signature by peeling hyperbolic (1, 1) pairs and then applying the
two signature-swapping rules

    Cl(n, 0) ⊗ Cl(0, 2) ≅ Cl(0, n+2)       Cl(0, n) ⊗ Cl(2, 0) ≅ Cl(n+2, 0)

down to the five base algebras, then simplifies the resulting tensor
product of {R, C, H, M_k} factors.
"""

from __future__ import annotations

from .records import FrozenRecord

_BASE_DIM = {"R": 1, "C": 2, "H": 4}

#: Largest p + q, and complex n: past it a matrix size has more digits (4,300) than Python prints.
MAX_N = 28569


def _check_size(n: int, what: str) -> None:
    if n > MAX_N:
        raise ValueError(f"{what} must be at most {MAX_N}, not {n}")


class AlgebraType(FrozenRecord):
    """Isomorphism type M_size(base) or M_size(base) ⊕ M_size(base), base "R", "C" or "H"."""

    __slots__ = _fields = ("base", "size", "doubled")

    def __init__(self, base: str, size: int = 1, doubled: bool = False):
        if base not in _BASE_DIM:
            raise ValueError(f"base must be R, C or H, got {base!r}")
        if size < 1:
            raise ValueError("matrix size must be positive")
        super().__init__(base, size, doubled)

    @property
    def real_dim(self) -> int:
        return _BASE_DIM[self.base] * self.size * self.size * (2 if self.doubled else 1)

    def __str__(self):
        core = self.base if self.size == 1 else f"M{self.size}({self.base})"
        return f"{core} + {core}" if self.doubled else core

    def to_dict(self) -> dict:
        return {"base": self.base, "size": self.size, "doubled": self.doubled}


def _tensor_h(t: AlgebraType) -> AlgebraType:
    """t ⊗ H, simplified via H⊗H = M_4(R) and C⊗H = M_2(C)."""
    if t.base == "R":
        return AlgebraType("H", t.size, t.doubled)
    if t.base == "C":
        return AlgebraType("C", 2 * t.size, t.doubled)
    return AlgebraType("R", 4 * t.size, t.doubled)


_BASE_CASES = {
    (0, 0): AlgebraType("R"),
    (1, 0): AlgebraType("C"),
    (2, 0): AlgebraType("H"),
    (0, 1): AlgebraType("R", doubled=True),
    (0, 2): AlgebraType("R", 2),
    (1, 1): AlgebraType("R", 2),
}


def classify_real(p: int, q: int) -> AlgebraType:
    """Isomorphism type of the real Clifford algebra Cl(p, q)."""
    if p < 0 or q < 0:
        raise ValueError("signature counts must be nonnegative")
    _check_size(p + q, "p + q")
    m2_factors = 0
    h_factors = 0
    while (p, q) not in _BASE_CASES:
        if p >= 1 and q >= 1:
            # Cl(p, q) ≅ Cl(p-1, q-1) ⊗ M_2(R)
            p, q = p - 1, q - 1
            m2_factors += 1
        elif q == 0:
            # Cl(n, 0) ≅ Cl(0, n-2) ⊗ Cl(2, 0), Cl(2, 0) = H
            p, q = 0, p - 2
            h_factors += 1
        else:
            # Cl(0, n) ≅ Cl(n-2, 0) ⊗ Cl(0, 2), Cl(0, 2) = M_2(R)
            p, q = q - 2, 0
            m2_factors += 1
    result = _BASE_CASES[(p, q)]
    for _ in range(h_factors):
        result = _tensor_h(result)
    return AlgebraType(result.base, result.size << m2_factors, result.doubled)  # ⊗ M_2(R)^m2_factors


def classify_complex(n: int) -> AlgebraType:
    """Isomorphism type of the complex Clifford algebra Cl^c_n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    _check_size(n, "n")
    k = n // 2
    return AlgebraType("C", 2**k, doubled=bool(n % 2))


def even_subalgebra_type(p: int, q: int) -> AlgebraType:
    """Type of the even subalgebra Cl^0(p, q), via Cl(p, q) ≅ Cl^0(p+1, q)."""
    if p + q < 1:
        raise ValueError("even subalgebra type needs p + q >= 1")
    _check_size(p + q, "p + q")
    if p >= 1:
        return classify_real(p - 1, q)
    # Cl^0(0, q) ≅ Cl^0(q, 0): the even part is insensitive to the overall
    # sign of the form, since (e_i e_j)^2 depends on the product of squares.
    return classify_real(q - 1, 0)


def even_subalgebra_complex(n: int) -> AlgebraType:
    """Type of the even part of Cl^c_n (≅ Cl^c_{n-1})."""
    if n < 1:
        raise ValueError("even subalgebra type needs n >= 1")
    _check_size(n, "n")
    return classify_complex(n - 1)


def table1() -> list[tuple[int, AlgebraType, AlgebraType]]:
    """The classification table of Cl(n,0) and Cl(0,n) for n = 1..8."""
    return [(n, classify_real(n, 0), classify_real(0, n)) for n in range(1, 9)]
