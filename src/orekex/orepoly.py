"""Polynomials in an iterated Ore extension.

A term maps an exponent vector to a coefficient index:

* skew rings: vector of d-exponents (length n), coefficient an index into
  F_{p^k} (``a0 + a1*p + ...``);
* weyl rings: x-exponents followed by d-exponents (length 2n), coefficient
  a scalar in F_p.

Values are immutable once constructed; all operations are pure.  Products
respect the defining relations d*c = sigma(c)*d (skew) and d_i*x_i =
x_i*d_i + 1 (weyl).  Every skew product, whatever the number of variables,
is delegated to the FFT kernel in :mod:`orekex.backend`; every weyl product
is one numpy kernel over all pairs of terms (:func:`_weyl_mul`).

A weyl value holds a term dict.  A skew value is a pair (lo, grid): lo
its lowest exponent on each axis and grid the coefficient-index array the
product kernel convolves, cell e holding the coefficient of d^(lo + e),
trimmed so that every face of its box holds a nonzero cell.  Every way of
making a skew value makes this pair and refuses one whose box is over
``backend.MAX_GRID_CELLS``; values given as exponent and coefficient
arrays are made in one place, :meth:`OrePolynomial._of_coo`.  Leading
terms, degrees, text and hashes read those arrays, ordered by one
``np.lexsort`` (:func:`orekex.monomials.grevlex_descending`).  ``terms``
is a read-only view built on first use; the powers
:meth:`OrePolynomial.power_sum` makes are kept too.  Coefficients given as
numbers are ints of the prime subfield (:meth:`OreRing.constant`); any
other coefficient is a coefficient index in ``OreRing.poly``.
"""

from __future__ import annotations

from math import prod
from types import MappingProxyType

import numpy as np

from . import backend
from .errors import OreKexError, RingMismatchError
from .fields import tables_for
from .monomials import grevlex_descending
from .rings import OreRing


class OrePolynomial:
    __slots__ = ("ring", "_lo", "_grid", "_terms", "_powers")

    def __new__(cls, ring: OreRing, terms: dict):
        """The value with the given ``{exponents: coefficient}`` terms,
        each checked; a weyl scalar is taken mod p."""
        clean, limit = {}, ring.n_coeff_values
        for exps, c in terms.items():
            exps, c = tuple(int(e) for e in exps), int(c)
            if len(exps) != ring.exp_len:
                raise OreKexError("exponent vector has wrong length for this ring")
            if min(exps) < 0:
                raise OreKexError("negative exponent")
            if max(exps) > _INT64_MAX:
                raise OreKexError("exponent too large for the int64 kernels")
            if ring.is_skew and not 0 <= c < limit:
                raise OreKexError(f"coefficient index {c} out of range [0,{limit})")
            if c % limit:
                clean[exps] = c % limit
        if ring.is_weyl or not clean:
            return cls._of(ring, clean)
        return cls._of_coo(ring, *backend.terms_to_coo(clean, np.int64))

    @classmethod
    def _of(cls, ring: OreRing, terms=None, grid=None, lo=None) -> "OrePolynomial":
        # trusted: a weyl value takes over a canonical term dict, a skew value
        # a trimmed grid at offset lo (default the origin); none makes zero
        self = object.__new__(cls)
        if grid is not None:
            grid.flags.writeable = False
            lo, terms = lo or (0,) * grid.ndim, None  # the view is built on first read
        elif terms is None:
            terms = {}
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_lo", lo)
        object.__setattr__(self, "_grid", grid)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_powers", [])  # self^2, self^3, ... once made
        return self

    @classmethod
    def _of_coo(cls, ring: OreRing, exps: np.ndarray, coeffs: np.ndarray) -> "OrePolynomial":
        """Trusted inverse of :meth:`_coo`: the value whose terms are the
        distinct columns of the int64 (exp_len, terms) array ``exps`` with
        the nonzero coefficients ``coeffs``.  OreKexError for a skew value
        whose box is over ``backend.MAX_GRID_CELLS``."""
        if not len(coeffs):
            return cls._of(ring)
        if ring.is_weyl:
            return cls._of(ring, dict(zip(zip(*exps.tolist()), coeffs.tolist())))
        lo, grid = backend.coo_to_grid(exps, coeffs.astype(tables_for(ring.field).dtype))
        return cls._of(ring, grid=grid, lo=lo)

    def __setattr__(self, *a):  # immutable value
        raise AttributeError("OrePolynomial is immutable")

    # -- structure -----------------------------------------------------------

    @property
    def terms(self):
        """Read-only ``{exponents: coefficient}`` view, built from a skew
        value's grid on first use."""
        if self._terms is None:
            exps, coeffs = self._coo()
            object.__setattr__(self, "_terms", dict(zip(zip(*exps.tolist()), coeffs.tolist())))
        return MappingProxyType(self._terms)

    def _coo(self):
        """(exponents, coefficients) of a nonzero value: an int64
        (exp_len, terms) array and a vector."""
        if self.ring.is_weyl:
            return backend.terms_to_coo(self._terms, np.int64)
        idx = np.nonzero(self._grid)
        return np.array(idx, np.int64) + np.array(self._lo, np.int64)[:, None], self._grid[idx]

    @property
    def grid(self) -> np.ndarray:
        """Read-only coefficient-index grid of a nonzero skew value: cell e
        holds the coefficient of d^(lo + e) (see the module docstring)."""
        if self._grid is None:
            raise OreKexError("only nonzero skew polynomials have a grid")
        return self._grid

    @property
    def lo(self) -> tuple[int, ...]:
        """Lowest exponent on each axis of a nonzero skew value."""
        if self._grid is None:
            raise OreKexError("only nonzero skew polynomials have a grid")
        return self._lo

    def is_zero(self) -> bool:
        return not self

    def __bool__(self):
        # a grid is trimmed, so it has a nonzero cell
        return self._grid is not None if self.ring.is_skew else bool(self._terms)

    def __len__(self):
        if self.ring.is_weyl:
            return len(self._terms)
        return 0 if self._grid is None else int(np.count_nonzero(self._grid))

    def leading(self) -> tuple[tuple[int, ...], int]:
        """Greatest term in the global grevlex order: (exponents, coeff index)."""
        if not self:
            raise OreKexError("zero polynomial has no leading term")
        exps, coeffs = self._coo()
        top = grevlex_descending(exps)[0]
        return tuple(exps[:, top].tolist()), int(coeffs[top])

    def total_degree(self) -> int | None:
        """That of the leading term, the order being graded; None when zero."""
        return sum(self.leading()[0]) if self else None

    def tops(self) -> tuple[int, ...]:
        """Highest exponent on each axis of a nonzero value."""
        if self.ring.is_skew:
            return tuple(a + s - 1 for a, s in zip(self.lo, self._grid.shape))
        return tuple(self._coo()[0].max(1).tolist())

    def d_degree(self, i: int) -> int:
        """Degree in the Ore variable d_i (1-based); -1 for the zero polynomial."""
        if not 1 <= i <= self.ring.n:
            raise OreKexError(f"Ore variable index {i} out of range")
        return self.d_degrees()[i - 1]

    def d_degrees(self) -> tuple[int, ...]:
        if not self:
            return (-1,) * self.ring.n
        return self.tops()[-self.ring.n:]

    # -- ring operations -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, int):
            return self.ring.constant(other)
        return other

    def _check(self, other):
        if not isinstance(other, OrePolynomial):
            raise TypeError(f"cannot combine OrePolynomial with {type(other).__name__}")
        if other.ring != self.ring:
            raise RingMismatchError("polynomials from different Ore rings")

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        return self._sum([(1, self), (1, other)])

    def __sub__(self, other):
        other = self._coerce(other)
        self._check(other)
        return self._sum([(1, self), (self.ring.p - 1, other)])

    def __neg__(self):
        return self._sum([(self.ring.p - 1, self)])

    def _sum(self, parts) -> "OrePolynomial":
        """sum c*h over pairs (c, h) of a scalar of F_p and a value of the
        ring; a skew sum is made in one array (``backend.scaled_sum``)."""
        ring = self.ring
        parts = [(c, h) for c, h in parts if c and h]
        if not parts:
            return ring.zero()
        if ring.is_skew:
            lo, grid = backend.scaled_sum(tables_for(ring.field), parts)
            return OrePolynomial._of(ring, grid=grid, lo=lo)
        out = {}
        for c, h in parts:
            for e, v in h._terms.items():
                out[e] = (out.get(e, 0) + c * v) % ring.p
        return OrePolynomial._of(ring, {e: v for e, v in out.items() if v})

    def __mul__(self, other):
        other = self._coerce(other)
        self._check(other)
        ring = self.ring
        if not self or not other:
            return ring.zero()
        if ring.is_skew:
            return backend.skew2_mul(ring, self, other)
        return OrePolynomial._of(ring, _weyl_mul(ring, self._terms, other._terms))

    def __radd__(self, other):
        return self + other

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __rmul__(self, other):
        # an int is a constant of the prime subfield, which is central
        return self._coerce(other) * self

    def __pow__(self, n: int) -> "OrePolynomial":
        if n < 0:
            raise OreKexError("Ore variables are not invertible; negative powers undefined")
        acc = self.ring.one()
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def power_sum(self, coeffs) -> "OrePolynomial":
        """sum_i c_i * self^i for integers c_i, taken mod p, c_0 the constant
        term.  The powers are made once, one product each, and kept with the
        value, so every evaluation at it shares them."""
        ring, p = self.ring, self.ring.p
        c0, *coeffs = [c % p for c in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        if not self or not coeffs:
            return ring.constant(c0)
        powers = [self] + self._powers
        while len(powers) < len(coeffs):
            powers.append(powers[-1] * self)
            self._powers.append(powers[-1])
        return self._sum([(c0, ring.one())] + list(zip(coeffs, powers)))

    def commutes_with(self, other: "OrePolynomial") -> bool:
        other = self._coerce(other)
        self._check(other)
        ring = self.ring
        if ring.is_skew and self and other:
            # the low corners of f*g and g*f are exact: one that differs
            # settles the question without the full products
            if not np.array_equal(backend.low_corner(ring, self, other),
                                  backend.low_corner(ring, other, self)):
                return False
        return self * other == other * self

    def __eq__(self, other):
        if not isinstance(other, OrePolynomial):
            return NotImplemented
        if self.ring != other.ring:
            return False
        if self.ring.is_weyl:
            return self._terms == other._terms
        return self._lo == other._lo and (self._grid is None
                                          or np.array_equal(self._grid, other._grid))

    def __hash__(self):
        if self._grid is None:  # a weyl value or zero
            return hash((self.ring, frozenset(self._terms.items())))
        return hash((self.ring, self._lo, self._grid.shape, self._grid.tobytes()))

    # -- text form -------------------------------------------------------------

    def to_text(self) -> str:
        """The terms in descending grevlex order, each filled into the ring's
        :meth:`OreRing.term_format`, joined by `` + ``; ``0`` when zero.  The
        terms are ordered by one ``np.lexsort`` and filled by one
        ``str.format`` call."""
        if not self:
            return "0"
        ring = self.ring
        exps, coeffs = self._coo()
        # the template's coefficient fields: the digits of each index, or in
        # a weyl ring (no tables, p up to 2^31) the scalar itself
        fields = tables_for(ring.field).digits[coeffs] if ring.is_skew else coeffs[:, None]
        order = grevlex_descending(exps)
        table = np.concatenate([fields[order].astype(np.int64), exps.T[order]], axis=1)
        return " + ".join([ring.term_format()] * len(order)).format(*table.ravel().tolist())

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        text = self.to_text()
        if len(text) > 120:
            text = f"<{len(self)} terms, total degree {self.total_degree()}>"
        return f"OrePolynomial({self.ring.kind}: {text})"


# Leibniz steps one Weyl product may take, one per pair of terms and k-tuple
# of its sum in _weyl_mul; this bounds the kernel's arrays (at the limit about
# a second and 150 MB besides the product's terms).  d1^999*d2^999 *
# x1^999*x2^999 takes exactly this many; the largest product below it in the
# tests 77,378, in the benchmark 14,984.
MAX_WEYL_STEPS = 1_000_000
_INT64_MAX = np.iinfo(np.int64).max
_DICT_CHUNK = 1 << 16


def _weyl_mul(ring: OreRing, f: dict, g: dict) -> dict:
    """Weyl product of two nonzero term dicts (see :func:`_weyl_sums`), built
    in chunks: the Python lists of one chunk are all it holds besides the
    dict's own entries, and the expansion's arrays are gone by then."""
    key, coef, box, lo = _weyl_sums(ring, f, g)
    out = {}
    for at in range(0, len(key), _DICT_CHUNK):
        exps = np.unravel_index(key[at:at + _DICT_CHUNK], box)
        out.update(zip(zip(*((col + l).tolist() for col, l in zip(exps, lo))),
                       coef[at:at + _DICT_CHUNK].tolist()))
    return out


def _weyl_sums(ring: OreRing, f: dict, g: dict):
    """The Weyl product of two nonzero term dicts as (keys, coefficients, box,
    lo): its nonzero terms at flat indices of the output box, counted from
    lo.  All pairs of terms are taken at once on int64 arrays, by d^w x^e =
    sum_k C(w,k) C(e,k) k! x^(e-k) d^(w-k) in each variable.  Mod p that
    factor is w(w-1)..(w-k+1) e(e-1)..(e-k+1) / k!, zero once k passes w mod
    p or e mod p, so a pair expands into k = 0..min(w mod p, e mod p), all
    < p, with running products as factors.  OreKexError when the steps pass
    ``MAX_WEYL_STEPS``, or an exponent or key passes int64."""
    p, n = ring.p, ring.n
    (ef, cf), (eg, cg) = backend.terms_to_coo(f, np.int64), backend.terms_to_coo(g, np.int64)
    # pair (a, b) takes prod_i (min(w_i, e_i) + 1) >= 1 steps, so the pair
    # count goes first; float64 counts steps exactly far past the limit
    if (len(f) * len(g) > MAX_WEYL_STEPS or (np.minimum(ef[n:, :, None], eg[:n, None, :])
                                             + 1.0).prod(0).sum() > MAX_WEYL_STEPS):
        raise OreKexError(f"Weyl product needs over {MAX_WEYL_STEPS} Leibniz steps")
    # keys count from f's lowest x- and g's lowest d-exponents: no k takes an
    # output below them
    lo = ef[:n].min(1).tolist() + eg[n:].min(1).tolist()
    hi = [s + t for s, t in zip(ef.max(1).tolist(), eg.max(1).tolist())]
    box = [h - l + 1 for h, l in zip(hi, lo)]
    if max(hi) > _INT64_MAX or prod(box) > _INT64_MAX:
        raise OreKexError("exponent too large for the int64 kernels")
    strides = np.array([prod(box[j + 1:]) for j in range(2 * n)], np.int64)
    ef[:n] -= np.array(lo[:n])[:, None]
    eg[n:] -= np.array(lo[n:])[:, None]
    a, b = np.divmod(np.arange(len(f) * len(g)), len(g))  # pair a * len(g) + b
    key = (strides @ ef)[a] + (strides @ eg)[b]
    coef = cf[a] * cg[b] % p
    w, e = ef[n:] % p, eg[:n] % p
    cap = np.minimum(w[:, a], e[:, b])
    inv = [0, 1]  # 1/j mod p for j < p, by p = (p // j) j + p % j
    for j in range(2, int(cap.max()) + 1):
        inv.append(-(p // j) * inv[p % j] % p)
    inv = np.array(inv)
    pair = np.arange(len(coef))  # of each entry, as the pairs expand into k
    for i in np.flatnonzero(cap.any(1)):
        run = cap[i, pair] + 1
        src = np.repeat(np.arange(len(run)), run)
        k = np.arange(len(src)) - (np.cumsum(run) - run)[src]
        pair = pair[src]
        fac = (w[i, a[pair]] - k + 1) * (e[i, b[pair]] - k + 1) % p * inv[k] % p
        fac[k == 0] = 1
        s = 1  # running products along each run, by doubling
        while s <= cap[i].max():
            fac[s:] = np.where(k[s:] >= s, fac[s:] * fac[:-s] % p, fac[s:])
            s *= 2
        key = key[src] - k * (strides[i] + strides[n + i])
        coef = coef[src] * fac % p
    order = np.argsort(key)
    key, coef = key[order], coef[order]
    first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    sums = np.add.reduceat(coef, first) % p
    keep = sums != 0
    return key[first[keep]], sums[keep], box, lo


def _random_composition(total: int, slots: int, rng) -> tuple[int, ...]:
    if slots == 1:
        return (total,)
    if total == 0:
        return (0,) * slots
    if slots == 2:
        # the same draw as below: choice(n, size=1, replace=False) runs one
        # step of Floyd's loop, a bounded draw on [0, n - 1], and shuffling
        # one element draws nothing
        c = int(rng.integers(0, total + 1))
        return (c, total - c)
    cuts = sorted(int(c) for c in rng.choice(total + slots - 1, size=slots - 1, replace=False))
    exps = []
    prev = -1
    for c in cuts:
        exps.append(c - prev - 1)
        prev = c
    exps.append(total + slots - 2 - prev)
    return tuple(exps)


def random_polynomial(ring: OreRing, total_degree: int, n_terms: int, rng) -> OrePolynomial:
    """Sample a polynomial with at most ``n_terms`` terms and total degree
    exactly ``total_degree`` (one term of full degree is always forced).

    Coefficients are uniform over the nonzero coefficient domain; the
    generator is caller-owned, so equal seeds reproduce equal polynomials.
    """
    if total_degree < 0 or n_terms < 1:
        raise OreKexError("impossible sparsity/degree combination")
    s = ring.exp_len
    hi = ring.n_coeff_values
    terms: dict[tuple[int, ...], int] = {}
    terms[_random_composition(total_degree, s, rng)] = int(rng.integers(1, hi))
    for _ in range(n_terms - 1):
        d = int(rng.integers(0, total_degree + 1))
        terms[_random_composition(d, s, rng)] = int(rng.integers(1, hi))
    return OrePolynomial._of_coo(ring, *backend.terms_to_coo(terms, np.int64))
