"""Hot kernels for skew rings over the field-index encoding: the product
of two polynomials and exact one-sided division, both in any number of
Ore variables.

Both rest on one exact numpy FFT convolution over F_p digits
(:func:`_convolve`).  The product (:func:`skew2_mul`) is one convolution
of the operands' grids.  Division (:func:`skew2_right_cofactor`,
:func:`skew2_left_cofactor`) maps both operands onto one line by a
Kronecker substitution, inverts the divisor there as a power series by
Newton iteration, reads the cofactor off the line and checks that its
product with the divisor is the dividend.  There is no other
implementation.

A skew value's grid is the array these kernels convolve: cell e holds the
coefficient index of d^e, the origin is d^0 and every axis ends at the
value's highest exponent on it (see :class:`orekex.orepoly.OrePolynomial`).
The kernels take values and read their grids, so a product's grid goes
straight into the next product; a ``{exponents: coeff_index}`` dict is
built only when a caller asks for a value's terms.  Division reads its
operands' nonzero cells and returns its cofactor as such a dict.

Both kernels work on dense arrays, whose size follows the operands'
exponents rather than their term counts: the product's grid is the
output's bounding box, division's line about sigma_n times the cells of
the dividend's exponent box.  An array over ``MAX_GRID_CELLS`` cells
raises :class:`OreKexError` before anything is allocated, so a few bytes
of ``d1^N`` in an input file cannot buy unbounded time or memory.
"""

from __future__ import annotations

from itertools import chain, repeat
from math import prod
from operator import mul

import numpy as np

from .errors import NotDivisibleError, OreKexError
from .fields import tables_for

# Largest dense array either kernel allocates, counted after transform
# padding: the product d1^2047 * d2^2047 is exactly this size.  Division
# allocates nothing longer than its Kronecker line, about sigma_n times the
# cells of the dividend's exponent box.  A three-pass at the paper's largest
# tuple (50, 5, 50) needs 1.04M cells (a product) and a 0.99M-cell line; the
# tests build at most 0.36M (a product), the benchmark 64,000 (a product)
# and a 61,000-cell line.
MAX_GRID_CELLS = 1 << 22


def _check_cells(shape) -> None:
    if prod(shape) > MAX_GRID_CELLS:
        dims = "x".join(map(str, shape))
        raise OreKexError(f"operands need a {dims} grid, over the "
                          f"{MAX_GRID_CELLS}-cell limit of the skew kernels")


# -- dict <-> array interchange ----------------------------------------------

def _to_coo(terms: dict, coeff_dtype):
    """(exponents, coefficients): an int64 (n, terms) array and a vector."""
    n = len(next(iter(terms)))
    try:
        flat = np.fromiter(chain.from_iterable(terms), np.int64, n * len(terms))
    except OverflowError:
        raise OreKexError("exponent too large for the skew kernels") from None
    return flat.reshape(-1, n).T.copy(), np.fromiter(terms.values(), coeff_dtype, len(terms))


def _to_grid(exps: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    grid = np.zeros(exps.max(1) + 1, dtype=coeffs.dtype)
    grid[tuple(exps)] = coeffs
    return grid


def terms_to_grid(terms: dict, coeff_dtype) -> np.ndarray:
    """The grid of a nonzero term dict; its box must fit ``MAX_GRID_CELLS``."""
    exps, coeffs = _to_coo(terms, coeff_dtype)
    _check_cells((exps.max(1) + 1).tolist())
    return _to_grid(exps, coeffs)


def grid_to_terms(grid: np.ndarray) -> dict:
    # row by row: short lists keep the transient memory of a large dict small
    terms = {}
    for a, row in enumerate(grid):
        idx = np.nonzero(row)
        terms.update(zip(zip(repeat(a), *(i.tolist() for i in idx)), row[idx].tolist()))
    return terms


def grid_sum(tab, f: np.ndarray, g: np.ndarray) -> np.ndarray | None:
    """f + g over their union box, trimmed; None when the sum is zero."""
    out = np.zeros([max(a, b) for a, b in zip(f.shape, g.shape)], dtype=tab.dtype)
    out[tuple(map(slice, f.shape))] = f
    cut = tuple(map(slice, g.shape))
    out[cut] = tab.add[out[cut], g]
    axes = range(out.ndim)
    tops = [np.flatnonzero(out.any(axis=tuple(j for j in axes if j != i))) for i in axes]
    if not tops[0].size:
        return None
    return out[tuple(slice(t[-1] + 1) for t in tops)]


# -- the convolution core ----------------------------------------------------------

def _smooth(n: int) -> int:
    """Smallest 2/3/5-smooth integer >= n, a fast transform length."""
    while pow(30, n.bit_length(), n):  # n divides 30^e iff no prime above 5 does
        n += 1
    return n


def _convolve(tab, sigma, f: np.ndarray, g: np.ndarray, crop=None) -> np.ndarray:
    """The skew product f*g of two coefficient-index grids, cut to ``crop``
    (default: the whole product); moving cell e of f past a coefficient of g
    applies Frobenius^(sigma.e mod k).

    c1 * Frobenius^t(c2) is F_p-bilinear in the digits of c1 and c2, so
    output digit i is (sum_l H_il * G_l) mod p: G_l is g's digit-l grid, H_il
    is f's grid filled with ``twist_digits[f, t, i, l]`` and * is an
    n-dimensional convolution, done by real FFTs in float64.  Every exact
    cell sum is at most k*(p-1)^2*min(|f|, |g|) (48*min in F_125), far below
    2^53; a rounding residue of 1/4 or more raises OreKexError.  The padded
    transform must fit in ``MAX_GRID_CELLS``.
    """
    p, kf = tab.spec.p, tab.spec.k
    full = [a + b - 1 for a, b in zip(f.shape, g.shape)]
    crop = full if crop is None else crop
    if not f.size or not g.size:  # an empty half of a one-cell quotient
        return np.zeros(crop, dtype=tab.dtype)
    size = [max(a, c) for a, c in zip(full, crop)]
    _check_cells(size)  # before _smooth, which steps one integer at a time
    size = [_smooth(n) for n in size]
    _check_cells(size)
    axes = tuple(range(f.ndim))
    twist = sum(np.ix_(*[(np.arange(n) * s % kf).astype(np.uint8)
                         for n, s in zip(f.shape, sigma)])) % kf
    g_hat = [np.fft.rfftn(g // p ** l % p, size, axes) for l in range(kf)]
    coeff = tab.twist_digits[f, twist]  # [..., i, l]
    out = np.zeros(crop, dtype=tab.dtype)
    cut = tuple(slice(c) for c in crop)
    for i in range(kf):
        acc = np.fft.rfftn(coeff[..., i, 0], size, axes)
        acc *= g_hat[0]
        for l in range(1, kf):
            term = np.fft.rfftn(coeff[..., i, l], size, axes)
            term *= g_hat[l]
            acc += term
            del term
        v = np.fft.irfftn(acc, size, axes)[cut]
        del acc
        r = np.rint(v)
        if np.abs(np.subtract(v, r, out=v), out=v).max() >= 0.25:
            raise OreKexError("skew product lost exactness in floating point")
        out += (r % p * p ** i).astype(tab.dtype)
        del v, r  # few transforms alive at once, none while the caller decodes
    return out


# -- multiplication ------------------------------------------------------------

def skew2_mul(ring, f, g):
    """Product f*g of two nonzero values of a skew ring with any number of
    Ore variables; moving d^e of f past a coefficient of g applies
    Frobenius^t, t = sigma_powers.e mod k.  One call of the convolution core
    on the operands' grids; the output grid must fit in ``MAX_GRID_CELLS``.
    Each axis's top exponents add in a domain, so the product of two
    trimmed grids is trimmed."""
    tab = tables_for(ring.field)
    return type(f)._of_grid(ring, _convolve(tab, ring.sigma_powers, f.grid, g.grid))


# Side of the low corner of f*g and g*f that commutation is decided on first.
CORNER = 8


def low_corner(ring, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Cells below CORNER on every axis of the product of grids f and g.
    Cell e of a skew product reads only operand cells <= e, so the corner
    comes from the operands cut to it."""
    cut = (slice(CORNER),) * f.ndim
    return _convolve(tables_for(ring.field), ring.sigma_powers, f[cut], g[cut],
                     (CORNER,) * f.ndim)


# -- exact division ------------------------------------------------------------
#
# Any number of variables.  psi(d^e) = x^(w.e) is a ring homomorphism into
# F_q[x; F], F the Frobenius, when w_i = sigma_i (mod k): moving d^e past a
# coefficient applies F^(w.e) = F^(sigma.e).  With mixed-radix weights
# (:func:`_weights`) it is injective on the dividend's exponent box.
# Neither the lowest nor the highest exponent on an axis cancels in a
# product, so h = p*q fixes q's exponent box and lowest line position; a
# twist absorbs the shift of each line to x^0.  A left cofactor is a right
# one in the opposite ring, which a -> F^-i(a) on x^i maps onto F_q[x; F^-1].

def _series_inverse(tab, s: int, u: np.ndarray, n: int) -> np.ndarray:
    """u^-1 mod x^n in F_q[[x; F^s]] (u[0] != 0) by Newton's y <- y + y(1 - u y)."""
    if n == 1:
        return tab.inv[u[:1]]
    y = _series_inverse(tab, s, u, (n + 1) // 2)
    # u*y = 1 + O(x^len(y)): y*(1 - u*y) is y times the negated top of u*y,
    # shifted up; shifting a right factor leaves the twists alone
    top = tab.neg[_convolve(tab, (s,), u[:n], y, (n,))[len(y):]]
    return np.concatenate([y, _convolve(tab, (s,), y[:n - len(y)], top, (n - len(y),))])


def _right_quotient(tab, s: int, D: np.ndarray, H: np.ndarray, n: int) -> np.ndarray:
    """Q of length n with D*Q = H in F_q[x; F^s] (D[0] != 0), else
    NotDivisibleError.  Q's low half is D^-1 H and its high half D^-1 times
    what D leaves of H, so no product is longer than the line."""
    half = (n + 1) // 2
    y = _series_inverse(tab, s, D, half)
    lo = _convolve(tab, (s,), y, H[:half], (half,))
    check = np.zeros(len(H), dtype=tab.dtype)
    check[:len(D) + half - 1] = _convolve(tab, (s,), D, lo)
    hi = _convolve(tab, (s,), y[:n - half], tab.sub[H[half:n], check[half:n]], (n - half,))
    # D*(x^half hi) is D*hi shifted up by half
    check[half:] = tab.add[check[half:], _convolve(tab, (s,), D, hi)]
    if not np.array_equal(check, H):
        raise NotDivisibleError("the divisor does not divide exactly")
    return np.concatenate([lo, hi])


def _line(exps: np.ndarray, coeffs: np.ndarray, w, lo):
    """Terms at x^(w.(e - lo)) shifted down to start at x^0, and the shift."""
    pos = np.array(w) @ (exps - np.array(lo)[:, None])
    low = int(pos.min())
    return _to_grid(pos[None] - low, coeffs), low


def _coo(poly, coeff_dtype):
    """(exponents, coefficients) of a nonzero value, read from its grid when
    it holds one, so dividing a product builds no dict."""
    if poly._grid is None:
        return _to_coo(poly.terms, coeff_dtype)
    idx = np.nonzero(poly._grid)
    return np.array(idx, dtype=np.int64), poly._grid[idx]


def _weights(sigma, kf: int, span) -> list[int]:
    """Line weights w with w_i = sigma_i (mod k), last axis fastest: w_n =
    sigma_n and each earlier w_i the least such integer above what the later
    axes reach, sum_{j>i} w_j * span_j, so a box of these spans maps
    injectively onto the line and decodes by successive divmod."""
    w = [sigma[-1]]
    reach = sigma[-1] * span[-1]
    for s, a in zip(sigma[-2::-1], span[-2::-1]):
        w.insert(0, s + kf * ((reach - s) // kf + 1))
        reach += w[0] * a
    return w


def _divide(ring, h, d, right: bool) -> dict:
    tab = tables_for(ring.field)
    kf = ring.field.k
    he, hc = _coo(h, tab.dtype)
    de, dc = _coo(d, tab.dtype)
    h_lo, h_hi = he.min(1).tolist(), he.max(1).tolist()
    d_lo, d_hi = de.min(1).tolist(), de.max(1).tolist()
    q_lo = [a - b for a, b in zip(h_lo, d_lo)]
    q_span = [a - b - c for a, b, c in zip(h_hi, d_hi, q_lo)]
    if min(q_lo) < 0 or min(q_span) < 0:
        raise NotDivisibleError("no cofactor fits the operands' exponent ranges")
    h_span = [a - b for a, b in zip(h_hi, h_lo)]
    w = _weights(ring.sigma_powers, kf, h_span)
    # every array and transform below is at most one line long
    _check_cells((sum(map(mul, w, h_span)) + 1,))
    H, h_low = _line(he, hc, w, h_lo)
    D, d_low = _line(de, dc, w, d_lo)
    del he, hc, de, dc
    n = len(H) - len(D) + 1  # the cofactor's length on the line
    shift = h_low - d_low  # its lowest position, counted from q_lo
    if n < 1 or shift < 0:
        raise NotDivisibleError("no cofactor fits the operands' line positions")
    if right:
        # D * F^e(Q) = H, e the divisor's lowest line position
        e = (sum(map(mul, w, d_lo)) + d_low) % kf
        Q = tab.frob[-e % kf, _right_quotient(tab, 1, D, H, n)]
    else:
        # Q * F^e(D) = H, e the cofactor's lowest line position
        e = (sum(map(mul, w, q_lo)) + shift) % kf
        i = np.arange(len(H))
        Q = _right_quotient(tab, kf - 1, tab.frob[(e - i[:len(D)]) % kf, D],
                            tab.frob[-i % kf, H], n)
        Q = tab.frob[i[:n] % kf, Q]
    idx = np.flatnonzero(Q)
    rest, exps = idx + shift, []
    for wi, lo, span in zip(w, q_lo, q_span):
        a, rest = np.divmod(rest, wi)
        if a.max() > span:
            raise NotDivisibleError("the cofactor does not decode into its exponent box")
        exps.append((a + lo).tolist())
    if rest.any():
        raise NotDivisibleError("the cofactor does not decode into its exponent box")
    return dict(zip(zip(*exps), Q[idx].tolist()))


def skew2_right_cofactor(ring, h, p) -> dict:
    """The terms of q with h = p * q, for nonzero values h and p; raises
    NotDivisibleError."""
    return _divide(ring, h, p, right=True)


def skew2_left_cofactor(ring, h, q) -> dict:
    """The terms of p with h = p * q, for nonzero values h and q; raises
    NotDivisibleError."""
    return _divide(ring, h, q, right=False)
