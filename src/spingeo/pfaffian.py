"""The Pfaffian over any commutative coefficient ring.

A dependency-free leaf: :mod:`spingeo.chern_weil` applies it to matrices of
exterior forms and :mod:`spingeo.spinrep` to complex matrices, so neither
module has to import the other.
"""

from __future__ import annotations


def pfaffian(a) -> complex:
    """Pfaffian of an antisymmetric matrix by recursive expansion.

    Works over any commutative coefficient ring (floats, Fractions, form
    polynomials); intended for the small matrices appearing here.
    """
    rows = [list(r) for r in a]
    m = len(rows)
    if m % 2:
        raise ValueError("Pfaffian needs even size")

    def rec(idx):
        if not idx:
            return 1
        i0 = idx[0]
        total = 0
        for pos, j in enumerate(idx[1:], start=1):
            rest = idx[1:pos] + idx[pos + 1 :]
            sign = -1 if (pos - 1) % 2 else 1
            term = rows[i0][j] * rec(rest)
            total = total + (term if sign > 0 else -term)
        return total

    return rec(tuple(range(m)))
