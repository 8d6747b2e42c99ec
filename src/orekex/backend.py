"""Hot kernels for skew rings over the field-index encoding, and nothing
for weyl rings (:mod:`orekex.orepoly` and :mod:`orekex.division` hold
those): the product of two polynomials and exact one-sided division,
both in any number of Ore variables, on one exact numpy convolution over
F_p digits and nothing else.  The convolution takes one of two routes,
chosen by the operand-cell pairs |f|*|g| alone: up to ``DIRECT_PAIRS``
(2^15) it sums the pairs directly (:func:`_direct`), above it it runs
real FFTs (:func:`_product`).  The product (:func:`skew2_mul`) is one
convolution of the operands' grids.  Division
(:func:`skew2_right_cofactor`, :func:`skew2_left_cofactor`) maps both
operands onto one line by a Kronecker substitution and finds the cofactor
there from the bottom, in blocks, against spectra of the divisor and of
its Newton inverse made once; the exact remainder must end at zero.

The convolution packs output digits: every exact digit sum of a product
is below B = 2^b, b set by the field and the smaller operand's cells, so
s digits share one float64 plane as sum_j B^j r_j with B^s at most
2^``PACKED_BITS`` (:func:`_packing`).  In F_125 a product takes 7 real
FFTs for small operands (s = 3) and 11 at the protocols' sizes (s = 2)
instead of 15.  The direct route sums the same packed planes: each
partial sum is an integer below B^s <= 2^40 < 2^53, so float64 is exact
and it needs no residue check.  It runs no transform and few numpy
calls, so below the constant, set by a sweep (see ``DIRECT_PAIRS``), it
beats the transforms' fixed cost.

A skew value is a pair (lo, grid): its lowest exponent on each axis and
the trimmed coefficient-index array above it (see
:class:`orekex.orepoly.OrePolynomial`).  The kernels read and return such
pairs, and a product's offsets add.  Every dense array follows an exponent
box, not a term count, so one over ``MAX_GRID_CELLS`` raises
:class:`OreKexError` before it is allocated, where its value is made: a few
bytes of ``d1^N`` in an input file cannot buy unbounded time or memory.

At import, where the C library has ``mallopt`` (glibc), the module fixes
the allocator's mmap threshold at 32 MiB and its trim threshold at 64 MiB,
so the transform buffers a product frees stay mapped for the next product
instead of being faulted in again (see the comment at the call).
"""

from __future__ import annotations

import ctypes
from functools import lru_cache
from math import isqrt, prod
from operator import mul

import numpy as np

from .errors import NotDivisibleError, OreKexError
from .fields import tables_for

# Largest dense array either kernel allocates, counted after transform
# padding: (d1^2047 + 1) * (d2^2047 + 1) is exactly this size.  Division
# allocates nothing longer than its Kronecker line, about sigma_n times the
# cells of the dividend's exponent box.  A three-pass at the paper's largest
# tuple (50, 5, 50) needs 1.04M cells (a product) and a 0.99M-cell line; the
# tests build at most 1.13M (a product of 600,000 x 524,288 cells in F_4),
# the benchmark 64,000 (a product) and a 61,000-cell line.
MAX_GRID_CELLS = 1 << 22

# Bits a packed output cell of the convolution core may use (see _packing).
# Within MAX_GRID_CELLS an exact digit sum needs at most 31 bits (F_169), and
# s digits packed into one cell stay below 2^40.  That leaves 13 of float64's
# 53 bits for the transforms' rounding error, which grows with the magnitude
# of the result (C. Percival, Math. Comp. 72, 2003) and must stay below 1/4.
# The largest residue measured was 7.3e-4, on all-maximal-digit operands of
# 2,000,000 x 20,000 cells in F_125 (B = 2^20, 2 digits a cell) and of
# 4,000,000 x 3,640 in F_169; a kex session's largest was 3.8e-6.
PACKED_BITS = 40

# Operand-cell pairs |f|*|g| up to which a product is summed directly
# (_direct), above which it goes through transforms (_product).  Swept in
# F_125 on a 2-CPU machine, two sweeps of medians of 7 timings: the direct
# route took 0.04-0.15 ms up to 20,736 pairs against 0.22-0.38 ms, and was
# ahead at 2^15 pairs on every shape (0.15-0.19 against 0.18-0.21 ms for a
# Newton level of 256 x 128 cells).  The routes tied between 50,000 and
# 65,000 pairs; from 90,000 the transforms were 2-18 times faster.
DIRECT_PAIRS = 1 << 15

# Freed transform memory stays mapped.  glibc gives a freed block above its
# mmap threshold back to the kernel at once, and trims the top of the heap
# when more than its trim threshold lies free there; both start small and
# adapt to the blocks it sees.  A product frees several MB of transform
# buffers, and at the defaults the next product faulted the same pages back
# in: a 171x201 by 41x51 product in F_125 took 952 minor faults, and with the
# settings below 0.  Over 10 in-process ops after a warm-up, the median
# minor faults per op fell from 4,476 to 0 on the benchmark's kex op, 2,264
# to 1 on three-pass, 3,025 to 27 on cli-files and 586 to 1 on weyl, and
# the peak resident size rose by 0.4-1.2 MB.  So the mmap threshold is fixed
# at 32 MiB, the most glibc accepts on a 64-bit system, and the trim
# threshold at 64 MiB.  Where the C library has no mallopt, nothing is set.
try:
    _mallopt = ctypes.CDLL(None).mallopt
except (AttributeError, OSError, TypeError):
    _mallopt = None
if _mallopt is not None:
    _mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    _mallopt.restype = ctypes.c_int
    _mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    _mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _check_cells(shape) -> None:
    if prod(shape) > MAX_GRID_CELLS:
        dims = "x".join(map(str, shape))
        raise OreKexError(f"a {dims} grid is over the {MAX_GRID_CELLS}-cell limit "
                          f"of the skew kernels")


# -- values as (lo, grid) pairs ----------------------------------------------

def coo_to_grid(exps: np.ndarray, coeffs: np.ndarray):
    """(lo, grid) of distinct exponent vectors (an int64 (n, terms) array)
    and their nonzero coefficients; the box must fit ``MAX_GRID_CELLS``."""
    low = exps.min(1)
    lo = low.tolist()
    shape = [h - l + 1 for h, l in zip(exps.max(1).tolist(), lo)]
    _check_cells(shape)
    grid = np.zeros(shape, dtype=coeffs.dtype)
    grid[tuple(exps - low[:, None])] = coeffs
    return tuple(lo), grid


def _trim(lo, grid: np.ndarray):
    """(lo, grid) cut to the box of its nonzero cells; (None, None) when it
    has none."""
    axes = range(grid.ndim)
    used = [np.flatnonzero(grid.any(axis=tuple(j for j in axes if j != i))) for i in axes]
    if not used[0].size:
        return None, None
    return (tuple(l + int(u[0]) for l, u in zip(lo, used)),
            grid[tuple(slice(u[0], u[-1] + 1) for u in used)])


def scaled_sum(tab, parts):
    """(lo, grid) of sum c*v over pairs of a scalar of F_p and a nonzero value,
    trimmed; (None, None) when zero.  The union box must fit the cell limit."""
    ends = [[a + s for a, s in zip(v.lo, v.grid.shape)] for _, v in parts]
    lo = [min(col) for col in zip(*(v.lo for _, v in parts))]
    shape = [max(col) - a for col, a in zip(zip(*ends), lo)]
    _check_cells(shape)
    out = np.zeros(shape, dtype=tab.dtype)
    for c, v in parts:
        cut = tuple(slice(a - b, a - b + s) for a, b, s in zip(v.lo, lo, v.grid.shape))
        out[cut] = tab.add[out[cut], tab.mul[c, v.grid]]
    return _trim(lo, out)


# -- the convolution core ----------------------------------------------------------

def _smooth(n: int) -> int:
    """Smallest 2/3/5-smooth integer >= n, a fast transform length."""
    while pow(30, n.bit_length(), n):  # n divides 30^e iff no prime above 5 does
        n += 1
    return n


def _packing(tab, cells: int):
    """How a product packs its output digits when its smaller operand has
    ``cells`` cells: (b, s, table).  Every exact digit sum of the product is
    at most k*(p-1)^2*cells < B = 2^b, so the s = min(k, PACKED_BITS // b)
    (at least 1) digits i0..i0+s-1 share one plane sum_j B^j * digit_(i0+j)
    without carries; table[c, t, j, l] is that plane's cell for
    ``twist_digits[c, t, i, l]``, i running over the digits of group j."""
    return _packed(tab, (tab.spec.k * (tab.spec.p - 1) ** 2 * cells).bit_length())


@lru_cache(maxsize=64)  # b <= 31 in every field (see PACKED_BITS)
def _packed(tab, b: int):
    kf = tab.spec.k
    s = min(kf, max(1, PACKED_BITS // b))
    i = np.arange(kf)
    weight = np.zeros((-(-kf // s), kf))
    weight[i // s, i] = 2.0 ** (b * (i % s))
    table = weight @ tab.twist_digits
    table.flags.writeable = False
    return b, s, table


def _product(tab, pack, left, g: np.ndarray, size, crop) -> np.ndarray:
    """The skew product f*g cut to ``crop``, from f's packed spectra at the
    transform ``size``: ``left(j, l)`` is that of f's grid filled with
    ``table[f, t, j, l]``, t = sigma.e mod k at cell e, for the (b, s, table)
    ``pack`` of :func:`_packing`.

    c1 * Frobenius^t(c2) is F_p-bilinear in the digits of c1 and c2, so
    output digit i is (sum_l H_il * G_l) mod p: G_l is g's digit-l grid, H_il
    the grid of ``twist_digits[f, t, i, l]`` and * an n-dimensional
    convolution, done by real FFTs in float64.  Every exact cell sum r_i is
    at most k*(p-1)^2*min(|f|, |g|) < B (48*min in F_125), so one inverse
    transform gives s digits at once as sum_j B^j r_(i0+j) < B^s <=
    2^PACKED_BITS, and k/s rounded up transforms give all k.  The bound
    holds cell by cell, also for a cyclic product whose wrapped cells sum
    two ranges of pairs, so no cell carries into another.  Above a packed
    cell's 40 bits float64 keeps 13 for the rounding error, whose largest
    measured residue is 7.3e-4 (see ``PACKED_BITS``); a residue of 1/4 or
    more raises OreKexError.
    """
    p, kf = tab.spec.p, tab.spec.k
    b, s, _ = pack
    base = 2.0 ** b
    axes = tuple(range(len(size)))
    g_hat = [np.fft.rfftn(g // p ** l % p, size, axes) for l in range(kf)]
    term = np.empty_like(g_hat[0])
    out = np.zeros(crop, dtype=tab.dtype)
    cut = tuple(slice(c) for c in crop)
    for j, i0 in enumerate(range(0, kf, s)):
        acc = left(j, 0) * g_hat[0]
        for l in range(1, kf):
            acc += np.multiply(left(j, l), g_hat[l], out=term)
        v = np.fft.irfftn(acc, size, axes)[cut]
        del acc
        r = np.rint(v)
        if np.abs(np.subtract(v, r, out=v), out=v).max() >= 0.25:
            raise OreKexError("skew product lost exactness in floating point")
        del v  # few transforms alive at once, none while the caller decodes
        last = min(i0 + s, kf) - 1
        for i in range(i0, last + 1):
            # r is an integer below 2^PACKED_BITS: r/B is exact, B being a
            # power of two, and r/p rounds to no integer above its floor
            d = r
            if i < last:
                r = np.floor(r / base)
                d -= base * r
            d -= p * np.floor(d / p)
            out += (d * p ** i).astype(tab.dtype)
    return out


def _twists(shape, sigma, t0: int, kf: int) -> np.ndarray:
    """Frobenius power t0 + sigma.e mod k of each cell e of a grid of
    ``shape``, as uint8 (t0 < k <= 8, at most 16 axes)."""
    twist = (sum(np.ix_(*[(np.arange(n) * s % kf).astype(np.uint8)
                          for n, s in zip(shape, sigma)])) + t0) % kf
    twist.flags.writeable = False
    return twist


@lru_cache(maxsize=256)
def _offsets(shape, inner) -> np.ndarray:
    """Flat index of each cell of a grid of ``shape``, cells in C order, in a
    box whose axes after the first are ``inner``; the pair (e, e') of a
    product lands at the sum of their offsets."""
    strides = [prod(inner[i:]) for i in range(len(shape))]
    off = sum(np.ix_(*[np.arange(n) * st for n, st in zip(shape, strides)])).ravel()
    off.flags.writeable = False
    return off


# Direct products read offsets and twists of operands of at most
# DIRECT_PAIRS cells from these caches; in every benchmark workload their
# 2 x 256 entries held under 1 MB, with about 70 new shapes an op in cli-files.
_direct_twists = lru_cache(maxsize=256)(_twists)


def _direct(tab, pack, rows: np.ndarray, g: np.ndarray, crop) -> np.ndarray:
    """The skew product f*g cut to ``crop``, summed pair by pair without
    transforms: ``rows[e, j, l]`` is ``table[f, t, j, l]`` at f's cell e and
    twist t, for the (b, s, table) ``pack`` of :func:`_packing`, so row
    (e, j) times g's digit matrix is the packed plane j of every pair (e, e'),
    and one bincount over the pairs' output cells sums them.

    Exact in float64: every packed cell, and so every partial sum of one, is
    an integer below B^s <= 2^PACKED_BITS < 2^53 (see :func:`_product`), and
    no digit sum carries into the next, so shifts and masks read the digits
    back."""
    p, kf = tab.spec.p, tab.spec.k
    b, s, _ = pack
    f_shape, groups = rows.shape[:-2], rows.shape[-2]
    box = tuple(max(a + c - 1, d) for a, c, d in zip(f_shape, g.shape, crop))
    cells = prod(box)
    g_digits = tab.digits.T[:, g.ravel()]
    pairs = np.add.outer(_offsets(f_shape, box[1:]), _offsets(g.shape, box[1:])).ravel()
    sums = np.array([np.bincount(pairs, (rows[..., j, :].reshape(-1, kf) @ g_digits).ravel(), cells)
                     for j in range(groups)], np.int64)
    i = np.arange(kf)
    digits = (sums[i // s] >> (b * (i % s))[:, None]) & ((1 << b) - 1)
    out = (p ** i @ (digits % p)).astype(tab.dtype).reshape(box)
    return out[tuple(slice(c) for c in crop)]


def _convolve(tab, sigma, f: np.ndarray, g: np.ndarray, crop=None, t0: int = 0) -> np.ndarray:
    """The skew product f*g of two coefficient-index grids, cut to ``crop``
    (default: the whole product); ``t0`` is the twist of f's cell 0, so cell
    e twists by t0 + sigma.e.  Up to ``DIRECT_PAIRS`` operand-cell pairs it
    is summed directly (:func:`_direct`), above by :func:`_product` with f's
    packed spectra made one at a time, whose padded transform must fit in
    ``MAX_GRID_CELLS``."""
    full = [a + b - 1 for a, b in zip(f.shape, g.shape)]
    crop = full if crop is None else crop
    if not f.size or not g.size:  # an empty half of a one-cell quotient
        return np.zeros(crop, dtype=tab.dtype)
    kf, axes = tab.spec.k, tuple(range(f.ndim))
    pack = _packing(tab, min(f.size, g.size))
    if f.size * g.size <= DIRECT_PAIRS:
        return _direct(tab, pack, pack[2][f, _direct_twists(f.shape, sigma, t0 % kf, kf)], g, crop)
    size = [max(a, c) for a, c in zip(full, crop)]
    _check_cells(size)  # before _smooth, which steps one integer at a time
    size = [_smooth(n) for n in size]
    _check_cells(size)
    twist = _twists(f.shape, sigma, t0 % kf, kf)
    return _product(tab, pack, lambda j, l: np.fft.rfftn(pack[2][f, twist, j, l], size, axes),
                    g, size, crop)


# -- multiplication ------------------------------------------------------------

def _twist(ring, lo) -> int:
    """Frobenius power that moving d^lo past a coefficient applies."""
    return sum(map(mul, ring.sigma_powers, lo)) % ring.field.k


def skew2_mul(ring, f, g):
    """Product f*g of two nonzero values of a skew ring with any number of
    Ore variables; moving d^e of f past a coefficient of g applies
    Frobenius^t, t = sigma_powers.e mod k.  One call of the convolution core
    on the operands' grids, whose offsets add; the output grid must fit in
    ``MAX_GRID_CELLS`` and its top exponents in int64.  Each axis's lowest
    and highest exponents add in a domain, so the product of two trimmed
    grids is trimmed."""
    lo = [a + b for a, b in zip(f.lo, g.lo)]
    if max(a + s + t - 2 for a, s, t in zip(lo, f.grid.shape, g.grid.shape)) >= 1 << 63:
        raise OreKexError("exponent too large for the int64 kernels")
    grid = _convolve(tables_for(ring.field), ring.sigma_powers, f.grid, g.grid,
                     t0=_twist(ring, f.lo))
    return type(f)._of(ring, grid=grid, lo=tuple(lo))


# Side of the low corner of f*g and g*f that commutation is decided on first.
CORNER = 8


def low_corner(ring, f, g) -> np.ndarray:
    """Cells below CORNER on every axis of the grid of f*g, for nonzero
    values f and g.  Cell e of a skew product reads only operand cells <= e,
    so the corner comes from the operands cut to it; f*g and g*f share
    their offset."""
    cut = (slice(CORNER),) * f.grid.ndim
    return _convolve(tables_for(ring.field), ring.sigma_powers, f.grid[cut], g.grid[cut],
                     (CORNER,) * f.grid.ndim, _twist(ring, f.lo))


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

def _spectra(tab, s: int, f: np.ndarray, size: int, pack):
    """``left`` of :func:`_product` for a line f of F_q[x; F^s], all packed
    spectra made at once, so that many products can share them."""
    twisted = pack[2][f, np.arange(len(f)) * s % tab.spec.k]
    F = np.fft.rfft(np.moveaxis(twisted, 0, -1), size)
    return lambda i, l: F[i, l]


def _series_inverse(tab, s: int, u: np.ndarray, n: int) -> np.ndarray:
    """u^-1 mod x^n in F_q[[x; F^s]] (u[0] != 0) by Newton's y <- y + y(1 - u y),
    which doubles the precision per step; a division needs it once.  A
    level whose u*y has at most DIRECT_PAIRS cell pairs, n <= 256 for a
    long u, sums both its products directly; a larger one makes u*y from
    u's spectra."""
    if n == 1:
        return tab.inv[u[:1]]
    y = _series_inverse(tab, s, u, (n + 1) // 2)
    # u*y = 1 + O(x^len(y)), and y*(1 - u*y) is y times the negated top of
    # u*y, shifted up.  A cyclic u*y of length >= n wraps its top below
    # len(y), where nothing reads it; a direct one is cut at n
    if len(u[:n]) * len(y) <= DIRECT_PAIRS:
        uy = _convolve(tab, (s,), u[:n], y, (n,))
    else:
        size, pack = _smooth(n), _packing(tab, len(y))
        uy = _product(tab, pack, _spectra(tab, s, u[:n], size, pack), y, (size,), (n,))
    top = tab.neg[uy[len(y):]]
    return np.concatenate([y, _convolve(tab, (s,), y[:n - len(y)], top, (n - len(y),))])


def _right_quotient(tab, s: int, D: np.ndarray, H: np.ndarray, n: int) -> np.ndarray:
    """Q of length n with D*Q = H in F_q[x; F^s] (D[0] != 0), else
    NotDivisibleError.  Q is found from the bottom in blocks of m cells: with
    y = D^-1 mod x^m and R = H - D*Q so far, the block at x^o is y times R's
    next m cells, cut to the block, and R drops D times the block shifted up
    by o.  Shifting a right factor leaves the twists alone, so y and D are
    transformed once for every block.  m >= sqrt(n) holds a short divisor to
    about sqrt(n) blocks.  R is exact: its being zero proves D*Q = H."""
    m = min(n, max(len(D), isqrt(n)))
    size = _smooth(max(len(D), m) + m - 1)  # D or y times a block, unwrapped
    _check_cells((size,))
    y = _series_inverse(tab, s, D, m)
    pack = _packing(tab, m)  # a block has at most m cells
    y_hat, d_hat = _spectra(tab, s, y, size, pack), _spectra(tab, s, D, size, pack)
    R, Q = H.copy(), np.zeros(n, dtype=tab.dtype)
    for o in range(0, n, m):
        b = min(m, n - o)
        if R[o:o + b].any():  # else the block of Q is zero
            Q[o:o + b] = _product(tab, pack, y_hat, R[o:o + b], (size,), (b,))
            cut = slice(o, o + len(D) + b - 1)
            R[cut] = tab.sub[R[cut], _product(tab, pack, d_hat, Q[o:o + b], (size,),
                                                    (cut.stop - o,))]
    if R.any():
        raise NotDivisibleError("the divisor does not divide exactly")
    return Q


def _line(grid: np.ndarray, w):
    """A grid's nonzero cells at x^(w.e), shifted down to start at x^0, and
    the shift."""
    idx = np.nonzero(grid)
    pos = np.array(w, dtype=np.int64) @ np.array(idx, dtype=np.int64)
    low = int(pos.min())
    line = np.zeros(int(pos.max()) - low + 1, dtype=grid.dtype)
    line[pos - low] = grid[idx]
    return line, low


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


def _divide(ring, h, d, right: bool):
    """(q_lo, grid) of the cofactor q with h = d*q (right) or h = q*d."""
    tab = tables_for(ring.field)
    kf = ring.field.k
    q_lo = [a - b for a, b in zip(h.lo, d.lo)]
    q_span = [a - b for a, b in zip(h.grid.shape, d.grid.shape)]
    if min(q_lo) < 0 or min(q_span) < 0:
        raise NotDivisibleError("no cofactor fits the operands' exponent ranges")
    h_span = [a - 1 for a in h.grid.shape]
    w = _weights(ring.sigma_powers, kf, h_span)
    # every array and transform below is at most one line long
    _check_cells((sum(map(mul, w, h_span)) + 1,))
    H, h_low = _line(h.grid, w)
    D, d_low = _line(d.grid, w)
    n = len(H) - len(D) + 1  # the cofactor's length on the line
    shift = h_low - d_low  # its lowest position, counted from q_lo
    if n < 1 or shift < 0:
        raise NotDivisibleError("no cofactor fits the operands' line positions")
    if right:
        # D * F^e(Q) = H, e the divisor's lowest line position
        e = (_twist(ring, d.lo) + d_low) % kf
        Q = tab.frob[-e % kf, _right_quotient(tab, 1, D, H, n)]
    else:
        # Q * F^e(D) = H, e the cofactor's lowest line position
        e = (_twist(ring, q_lo) + shift) % kf
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
        exps.append(a + lo)
    if rest.any():
        raise NotDivisibleError("the cofactor does not decode into its exponent box")
    return coo_to_grid(np.array(exps), Q[idx])


def skew2_right_cofactor(ring, h, p):
    """q with h = p * q, for nonzero values h and p; raises
    NotDivisibleError."""
    q_lo, grid = _divide(ring, h, p, right=True)
    return type(h)._of(ring, grid=grid, lo=q_lo)


def skew2_left_cofactor(ring, h, q):
    """p with h = p * q, for nonzero values h and q; raises
    NotDivisibleError."""
    p_lo, grid = _divide(ring, h, q, right=False)
    return type(h)._of(ring, grid=grid, lo=p_lo)
