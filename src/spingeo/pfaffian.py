"""The Pfaffian over any commutative coefficient ring.

A dependency-free leaf: :mod:`spingeo.chern_weil` applies it to matrices of
exterior forms and :mod:`spingeo.spinrep` to complex matrices, so neither
module has to import the other.
"""

from __future__ import annotations

from functools import cache


def pfaffian(a) -> complex:
    """Pfaffian of an antisymmetric matrix by recursive expansion along the first row.

    Works over any commutative coefficient ring (floats, Fractions, form
    polynomials); intended for the small matrices appearing here.  Zero
    entries and zero minors are skipped, so a matrix whose expansion is
    all zero gives the int 0.  Each minor is expanded once and cached by its
    index tuple; the expansion is pure, so a cached minor is the value the
    expansion would compute again, and a float or complex result is bit for
    bit that of the plain recursion.
    """
    rows = [list(r) for r in a]
    m = len(rows)
    if m % 2:
        raise ValueError("Pfaffian needs even size")

    @cache
    def rec(idx):
        if not idx:
            return 1
        i0 = idx[0]
        total = 0
        for pos, j in enumerate(idx[1:], start=1):
            if not rows[i0][j]:
                continue
            term = rows[i0][j]
            rest = idx[1:pos] + idx[pos + 1 :]
            if rest:
                minor = rec(rest)
                if not minor:
                    continue
                term = term * minor
            total = total + (-term if (pos - 1) % 2 else term)
        return total

    return rec(tuple(range(m)))
