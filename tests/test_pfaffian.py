import random
from fractions import Fraction

import numpy as np
import pytest

from spingeo.pfaffian import pfaffian


def plain_pfaffian(a):
    """The expansion along the first row with no cache: every minor is expanded each time it is met."""
    rows = [list(r) for r in a]

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

    return rec(tuple(range(len(rows))))


def antisymmetric(n, draw):
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = draw()
            a[j][i] = -a[i][j]
    return a


def minors_met(m: int) -> set[tuple[int, ...]]:
    """Every index tuple the first-row expansion of an m×m matrix reaches, m itself included."""
    seen, todo = set(), [tuple(range(m))]
    while todo:
        idx = todo.pop()
        if idx and idx not in seen:
            seen.add(idx)
            todo.extend(idx[1:pos] + idx[pos + 1 :] for pos in range(1, len(idx)))
    return seen


class Counted:
    """A Fraction that counts the products it takes part in."""

    products = 0

    def __init__(self, value):
        self.value = Fraction(value)

    def __mul__(self, other):
        Counted.products += 1
        return Counted(self.value * other.value)

    def __add__(self, other):
        return Counted(self.value + (other.value if isinstance(other, Counted) else other))

    __radd__ = __add__

    def __neg__(self):
        return Counted(-self.value)

    def __bool__(self):
        return bool(self.value)


@pytest.mark.parametrize("n, seed", [(8, 1), (8, 2), (10, 3), (10, 4)])
def test_complex_matches_the_plain_expansion_bit_for_bit(n, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = z - z.T  # exactly antisymmetric, as spinrep passes -2j * A
    got, want = pfaffian(a), plain_pfaffian(a)
    assert got.real.hex() == want.real.hex() and got.imag.hex() == want.imag.hex()


@pytest.mark.parametrize("n, seed", [(2, 0), (4, 1), (6, 2), (8, 3), (10, 4)])
def test_fractions_match_the_plain_expansion(n, seed):
    rng = random.Random(seed)
    a = antisymmetric(n, lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
    assert pfaffian(a) == plain_pfaffian(a)


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_each_minor_is_expanded_once(n):
    # a minor of size s ≥ 4 takes s - 1 products (entry × its own minor), so
    # the products count the expansions: once per minor met, against more in
    # the plain recursion once minors of size 4 repeat (n ≥ 8)
    rng = random.Random(n)
    a = antisymmetric(n, lambda: Counted(Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))))
    once = sum(len(idx) - 1 for idx in minors_met(n) if len(idx) >= 4)
    Counted.products = 0
    got = pfaffian(a).value
    assert Counted.products == once
    Counted.products = 0
    assert plain_pfaffian(a).value == got
    assert Counted.products > once if n >= 8 else Counted.products == once


def test_odd_size_rejected():
    with pytest.raises(ValueError, match="even size"):
        pfaffian([[0]])
