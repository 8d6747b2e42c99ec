"""Monomial order shared by every polynomial type in the package.

The global order is graded reverse-lexicographic (grevlex) on the full
exponent vector: higher total degree wins; on equal total degree the
monomial whose last nonzero entry of the difference is negative wins.
A graded order keeps leading monomials multiplicative, which the exact
division routines rely on.  The order is one ``np.lexsort`` over an int64
exponent array (:func:`grevlex_descending`); leading terms, text and the
message encoding all read it.
"""

from __future__ import annotations

import numpy as np


def total_degrees(exps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(high, low) halves of the total degree of each column of an int64
    (n, terms) exponent array of nonnegative entries, the degree being
    high * 2^32 + low with low < 2^32: summed in 32-bit halves, exact for
    any int64 entries, whose plain sum can pass int64."""
    high, low = np.divmod(exps, 1 << 32)
    low = low.sum(0)
    return high.sum(0) + (low >> 32), low & 0xFFFFFFFF


def top_degree(exps: np.ndarray) -> np.ndarray:
    """Mask of the columns of greatest total degree (:func:`total_degrees`)
    of an int64 (n, terms) exponent array with at least one column."""
    high, low = total_degrees(exps)
    top = high == high.max()
    return top & (low == low[top].max())


def grevlex_descending(exps: np.ndarray) -> np.ndarray:
    """Order of the columns of an int64 (n, terms) exponent array, greatest
    first: the degree (:func:`total_degrees`) descending, then the last
    exponent, the one before it, ... ascending."""
    high, low = total_degrees(exps)
    return np.lexsort((*exps, -low, -high))


def first_monomials(slots: int, degree: int, count: int) -> np.ndarray:
    """The first ``count`` exponent vectors in ascending grevlex order, all
    of total degree at most ``degree``, as an int64 (slots, count) array:
    every vector up to that degree, then one sort."""
    exps, room = np.zeros((0, 1), np.int64), np.array([degree])
    for _ in range(slots):  # each vector takes every entry its room allows
        run = room + 1
        src = np.repeat(np.arange(len(room)), run)
        entry = np.arange(len(src)) - (np.cumsum(run) - run)[src]
        exps, room = np.vstack([exps[:, src], entry]), room[src] - entry
    return exps[:, grevlex_descending(exps)[::-1][:count]]
