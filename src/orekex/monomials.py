"""Monomial order shared by every polynomial type in the package.

The global order is graded reverse-lexicographic (grevlex) on the full
exponent vector: higher total degree wins; on equal total degree the
monomial whose last nonzero entry of the difference is negative wins.
A graded order keeps leading monomials multiplicative, which the exact
division routines rely on.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np


def grevlex_key(exps: tuple[int, ...]):
    """Sort key: ascending order of keys is ascending grevlex."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


def grevlex_descending(exps: np.ndarray) -> np.ndarray:
    """Order of the columns of an int64 (n, terms) exponent array, greatest
    first: the degree (summed in 32-bit halves, exact for any int64)
    descending, then the last exponent, the one before it, ... ascending."""
    high, low = np.divmod(exps, 1 << 32)
    low = low.sum(0)
    high = high.sum(0) + (low >> 32)
    return np.lexsort((*exps, -(low & 0xFFFFFFFF), -high))


def compositions(total: int, slots: int):
    """All exponent tuples of the given total degree, grevlex-ascending."""
    if slots == 1:
        yield (total,)
        return
    out = []
    for cuts in combinations(range(total + slots - 1), slots - 1):
        prev = -1
        exps = []
        for c in cuts:
            exps.append(c - prev - 1)
            prev = c
        exps.append(total + slots - 2 - prev)
        out.append(tuple(exps))
    out.sort(key=grevlex_key)
    yield from out


def ascending(slots: int, count: int) -> list[tuple[int, ...]]:
    """The first ``count`` exponent tuples in ascending grevlex order."""
    out: list[tuple[int, ...]] = []
    degree = 0
    while len(out) < count:
        for exps in compositions(degree, slots):
            out.append(exps)
            if len(out) == count:
                return out
        degree += 1
    return out
