"""Hot kernels for skew rings over the field-index encoding: the product
of two polynomials in any number of Ore variables, and exact one-sided
division in two variables.

The product is one exact numpy FFT convolution over F_p digits
(:func:`skew2_mul`).  Division peels leading terms off a dense grid with
numpy table gathers (:func:`skew2_right_cofactor`,
:func:`skew2_left_cofactor`).  There is no other implementation.

Polynomials enter as ``{exponents: coeff_index}`` dicts and leave the same
way.  Both kernels work on dense grids, whose size follows the operands'
exponents rather than their term counts; a grid over ``MAX_GRID_CELLS``
cells raises :class:`OreKexError` before anything is allocated, so a few
bytes of ``d1^N`` in an input file cannot buy unbounded time or memory.
"""

from __future__ import annotations

from itertools import repeat
from math import prod

import numpy as np

from .errors import NotDivisibleError, OreKexError
from .fields import tables_for

# Largest dense grid either kernel allocates, counted after transform
# padding: the product d1^2047 * d2^2047 is exactly this size.  A session
# at the paper's largest tuple (50, 5, 50) needs 0.83M cells; the largest
# grid the tests and benchmark build is 1.1M (a d1^1000 * P_final division).
MAX_GRID_CELLS = 1 << 22


def _check_cells(shape) -> None:
    if prod(shape) > MAX_GRID_CELLS:
        dims = "x".join(map(str, shape))
        raise OreKexError(f"operands need a {dims} grid, over the "
                          f"{MAX_GRID_CELLS}-cell limit of the skew kernels")


# -- dict <-> array interchange ----------------------------------------------

def _to_coo(terms: dict, coeff_dtype):
    """(exponents, coefficients): an int64 (n, terms) array and a vector."""
    try:
        exps = np.array(list(terms), dtype=np.int64).T.copy()
    except OverflowError:
        raise OreKexError("exponent too large for the skew kernels") from None
    return exps, np.fromiter(terms.values(), coeff_dtype, len(terms))


def _grid_to_terms(grid: np.ndarray) -> dict:
    # row by row: short lists keep the transient memory of a large dict small
    terms = {}
    for a, row in enumerate(grid):
        idx = np.nonzero(row)
        terms.update(zip(zip(repeat(a), *(i.tolist() for i in idx)), row[idx].tolist()))
    return terms


def _total_degree(terms: dict) -> int:
    return max(a + b for a, b in terms)


# -- multiplication ------------------------------------------------------------

def _smooth(n: int) -> int:
    """Smallest 2/3/5-smooth integer >= n, a fast transform length."""
    while pow(30, n.bit_length(), n):  # n divides 30^e iff no prime above 5 does
        n += 1
    return n


def skew2_mul(ring, f_terms: dict, g_terms: dict) -> dict:
    """Product f*g in a skew ring with any number of Ore variables; moving
    d^e of f past a coefficient of g applies Frobenius^t, t = sigma_powers.e
    mod k.

    c1 * Frobenius^t(c2) is F_p-bilinear in the digits of c1 and c2, so
    output digit i is (sum_l H_il * G_l) mod p: G_l is g's digit-l grid, H_il
    is f's grid filled with ``twist_digits[fc, t, i, l]`` and * is an
    n-dimensional convolution, done by real FFTs in float64.  Every exact
    cell sum is at most k*(p-1)^2*min(|f|, |g|) (48*min in F_125), far below
    2^53; a rounding residue of 1/4 or more raises OreKexError.  The padded
    output grid must fit in ``MAX_GRID_CELLS``.
    """
    if not f_terms or not g_terms:
        return {}
    tab = tables_for(ring.field)
    p, kf = ring.field.p, ring.field.k
    fe, fc = _to_coo(f_terms, tab.dtype)
    ge, gc = _to_coo(g_terms, tab.dtype)
    shape = [a + b + 1 for a, b in zip(fe.max(1).tolist(), ge.max(1).tolist())]
    _check_cells(shape)  # before _smooth, which steps one integer at a time
    size = [_smooth(s) for s in shape]
    _check_cells(size)
    axes = tuple(range(len(size)))

    def spectrum(exps, digits):
        grid = np.zeros(exps.max(1) + 1)
        grid[tuple(exps)] = digits
        return np.fft.rfftn(grid, size, axes)

    g_hat = [spectrum(ge, gc // p ** l % p) for l in range(kf)]
    coeff = tab.twist_digits[fc, np.array(ring.sigma_powers) @ fe % kf]  # [term, i, l]
    out = np.zeros(shape, dtype=tab.dtype)
    crop = tuple(slice(s) for s in shape)
    for i in range(kf):
        acc = sum(spectrum(fe, coeff[:, i, l]) * g_hat[l] for l in range(kf))
        v = np.fft.irfftn(acc, size, axes)[crop]
        r = np.rint(v)
        if np.abs(np.subtract(v, r, out=v), out=v).max() >= 0.25:
            raise OreKexError("skew product lost exactness in floating point")
        out += (r % p * p ** i).astype(tab.dtype)
        del acc, v, r  # few transforms alive at once, none while the dict is built
    del g_hat
    return _grid_to_terms(out)


# -- exact division ------------------------------------------------------------
#
# Two variables only.  Leading terms are taken in grevlex; on equal total
# degree the larger d1 exponent wins, so the scan walks diagonals a+b = d
# with a descending.  Each reduction step cancels the current lead exactly,
# so the cursor only ever moves forward and the total scan cost is
# amortized by the grid size.

class _Cursor:
    """Grevlex-descending scan over a dense two-variable grid."""

    def __init__(self, grid, d0):
        self.grid = grid
        self.d = d0
        self.a = min(d0, grid.shape[0] - 1)

    def next_lead(self):
        na, nb = self.grid.shape
        while self.d >= 0:
            amin = max(0, self.d - (nb - 1))
            a = self.a
            while a >= amin:
                b = self.d - a
                if self.grid[a, b] != 0:
                    self.a = a
                    return a, b
                a -= 1
            self.d -= 1
            self.a = min(self.d, na - 1)
        return None

    def advance(self):
        self.a -= 1


def _lead_term(terms: dict):
    lead = max(terms, key=lambda e: (e[0] + e[1], e[0]))
    return lead, terms[lead]


def _prepare(h_terms: dict, div_terms: dict, dtype):
    """Dividend grid, zeroed cofactor grid and a cursor at the dividend's lead."""
    dh = _total_degree(h_terms)
    nq = dh - _total_degree(div_terms)
    if nq < 0:
        raise NotDivisibleError("divisor has higher total degree than dividend")
    _check_cells((dh + 1, dh + 1))
    h = np.zeros((dh + 1, dh + 1), dtype=dtype)
    for (a, b), c in h_terms.items():
        h[a, b] = c
    return h, np.zeros((nq + 1, nq + 1), dtype=dtype), _Cursor(h, dh)


def skew2_right_cofactor(ring, h_terms: dict, p_terms: dict) -> dict:
    """Solve h = p * q for q by leading-term peeling; raises NotDivisibleError."""
    if not h_terms:
        return {}
    tab = tables_for(ring.field)
    MUL, FROB, SUB = tab.mul, tab.frob, tab.sub
    pe, pc = _to_coo(p_terms, tab.dtype)
    pa, pb = pe
    twp = np.array(ring.sigma_powers) @ pe % ring.field.k
    (la, lb), lc = _lead_term(p_terms)
    inv_lc = int(tab.inv[lc])
    inv_s = -ring.twist_power((la, lb)) % ring.field.k
    h, qout, cur = _prepare(h_terms, p_terms, tab.dtype)
    while (lead := cur.next_lead()) is not None:
        mua, mub = lead[0] - la, lead[1] - lb
        if mua < 0 or mub < 0:
            raise NotDivisibleError("no exact right cofactor exists")
        c = FROB[inv_s, MUL[inv_lc, h[lead]]]
        qout[mua, mub] = c
        ia, ib = pa + mua, pb + mub
        h[ia, ib] = SUB[h[ia, ib], MUL[pc, FROB[twp, c]]]
        cur.advance()
    return _grid_to_terms(qout)


def skew2_left_cofactor(ring, h_terms: dict, q_terms: dict) -> dict:
    """Solve h = p * q for p; mirror of skew2_right_cofactor."""
    if not h_terms:
        return {}
    tab = tables_for(ring.field)
    MUL, FROB, SUB = tab.mul, tab.frob, tab.sub
    qe, qc = _to_coo(q_terms, tab.dtype)
    qa, qb = qe
    (lqa, lqb), lcq = _lead_term(q_terms)
    h, pout, cur = _prepare(h_terms, q_terms, tab.dtype)
    while (lead := cur.next_lead()) is not None:
        mua, mub = lead[0] - lqa, lead[1] - lqb
        if mua < 0 or mub < 0:
            raise NotDivisibleError("no exact left cofactor exists")
        tmu = ring.twist_power((mua, mub))
        c = MUL[h[lead], tab.inv[FROB[tmu, lcq]]]
        pout[mua, mub] = c
        ia, ib = mua + qa, mub + qb
        h[ia, ib] = SUB[h[ia, ib], MUL[c, FROB[tmu, qc]]]
        cur.advance()
    return _grid_to_terms(pout)
