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
is one numpy kernel over all pairs of terms (:func:`_weyl_mul`), whose pair
arrays are outer operations on the operands' columns and whose Leibniz
entries are summed by one ``np.bincount`` over the output box when the box
is small beside their step count (``WEYL_BOX_PER_STEP``), else as exponent
columns, like every weyl sum, by :meth:`OrePolynomial._of_coo`.
:meth:`OrePolynomial.commutes_with` makes both full products only when a
necessary condition holds: equal exact low corners in a skew ring, a
vanishing Poisson bracket of the top-degree parts in a weyl ring.

A nonzero skew value is a pair (lo, grid): lo its lowest exponent on each
axis and grid the coefficient-index array the product kernel convolves,
cell e holding the coefficient of d^(lo + e), trimmed so that every face
of its box holds a nonzero cell; every way of making one refuses a box
over ``backend.MAX_GRID_CELLS``.  A nonzero weyl value is a pair (exps,
coeffs): a read-only int64 (2n, terms) array of distinct exponent columns
in lexicographic order, the order ``np.nonzero`` gives a grid's cells,
and their coefficients in [1, p).  Values given as exponent and
coefficient arrays are made in one place, :meth:`OrePolynomial._of_coo`.
Leading terms, degrees, text, equality and hashes read those arrays,
ordered by one ``np.lexsort`` (:func:`orekex.monomials.grevlex_descending`).
``terms`` is a read-only view built on first use; the powers
:meth:`OrePolynomial.power_sum` makes are kept too.  Coefficients given as
numbers are ints of the prime subfield (:meth:`OreRing.constant`); any
other coefficient is a coefficient index in ``OreRing.poly``.

:func:`random_polynomial` keeps one stream contract: equal seeds give equal
values and leave the generator in equal states, as they did when every
term was drawn by scalar ``Generator.integers`` and ``Generator.choice``
calls.  In every ring the draws are made on one array of numpy's 32-bit
words: each bounded draw is Lemire's method with its rejection, which is
what ``integers`` runs for a bound up to 2^32, and a term's exponents are
the draws of ``choice(d + k, k, replace=False)``, k = slots - 1, which
numpy 2.4.6 makes as k of Floyd's draws and k - 1 of a shuffle.  The
contract thus rests on numpy's algorithms, which numpy does not promise
across versions; the golden CLI digests, recorded under numpy 2.4.6,
check it.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from types import MappingProxyType

import numpy as np

from . import backend
from .errors import OreKexError, RingMismatchError
from .fields import tables_for
from .monomials import grevlex_descending, top_degree
from .rings import OreRing


class OrePolynomial:
    __slots__ = ("ring", "_lo", "_grid", "_exps", "_coeffs", "_terms", "_powers")

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
        exps = np.array(list(clean), np.int64).reshape(-1, ring.exp_len).T
        return cls._of_coo(ring, exps, np.array(list(clean.values()), np.int64))

    @classmethod
    def _of(cls, ring: OreRing, exps=None, coeffs=None, grid=None, lo=None) -> "OrePolynomial":
        # trusted: weyl arrays as _coo() returns them, or a trimmed skew grid
        # at offset lo (default the origin); no columns and no grid is zero
        self = object.__new__(cls)
        if coeffs is not None and not len(coeffs):
            exps = coeffs = None
        for a in (grid, exps, coeffs):
            if a is not None:
                a.flags.writeable = False
        if grid is not None:
            lo = lo or (0,) * grid.ndim
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_lo", lo)
        object.__setattr__(self, "_grid", grid)
        object.__setattr__(self, "_exps", exps)
        object.__setattr__(self, "_coeffs", coeffs)
        object.__setattr__(self, "_terms", None if self else {})  # the view, once read
        object.__setattr__(self, "_powers", [])  # self^2, self^3, ... once made
        return self

    @classmethod
    def _of_coo(cls, ring: OreRing, exps: np.ndarray, coeffs: np.ndarray) -> "OrePolynomial":
        """Trusted: the value whose terms are the columns, in any order, of
        the int64 (exp_len, terms) array ``exps`` with coefficients
        ``coeffs``: distinct and nonzero in a skew ring, adding mod p in a
        weyl ring.  OreKexError for a skew box over the cell limit."""
        if not len(coeffs):
            return cls._of(ring)
        if ring.is_weyl:
            # no flat index: far terms' box can pass int64; keys of the least
            # type that holds them sort by radix
            order = np.lexsort(exps[::-1].astype(np.min_scalar_type(exps.max())))
            exps = exps.take(order, 1)
            # one sum mod p per run of equal columns, runs that sum to zero
            # dropped; the sorted columns stand when each is a nonzero run
            first = np.flatnonzero(np.append(True, (exps[:, 1:] != exps[:, :-1]).any(0)))
            sums = np.add.reduceat(coeffs[order], first) % ring.p
            first = first[sums != 0]
            if len(first) < len(order):
                exps = exps.take(first, 1)
            return cls._of(ring, exps=exps, coeffs=sums[sums != 0])
        lo, grid = backend.coo_to_grid(exps, coeffs.astype(tables_for(ring.field).dtype))
        return cls._of(ring, grid=grid, lo=lo)

    def __setattr__(self, *a):  # immutable value
        raise AttributeError("OrePolynomial is immutable")

    # -- structure -----------------------------------------------------------

    @property
    def terms(self):
        """Read-only ``{exponents: coefficient}`` view, built on first use."""
        if self._terms is None:
            exps, coeffs = self._coo()
            object.__setattr__(self, "_terms", dict(zip(zip(*exps.tolist()), coeffs.tolist())))
        return MappingProxyType(self._terms)

    def _coo(self):
        """(exponents, coefficients) of a nonzero value: an int64 (exp_len,
        terms) array, columns in lexicographic order, and a vector."""
        if self.ring.is_weyl:
            return self._exps, self._coeffs
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
        return self._grid is not None or self._exps is not None

    def __len__(self):
        if not self:
            return 0
        return len(self._coeffs) if self.ring.is_weyl else int(np.count_nonzero(self._grid))

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
        return tuple(self._exps.max(1).tolist())

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
        ring, made in one array (``backend.scaled_sum``, :meth:`_of_coo`)."""
        ring = self.ring
        parts = [(c, h) for c, h in parts if c and h]
        if not parts:
            return ring.zero()
        if ring.is_skew:
            lo, grid = backend.scaled_sum(tables_for(ring.field), parts)
            return OrePolynomial._of(ring, grid=grid, lo=lo)
        return OrePolynomial._of_coo(ring, np.concatenate([h._exps for _, h in parts], axis=1),
                                     np.concatenate([c * h._coeffs % ring.p for c, h in parts]))

    def __mul__(self, other):
        other = self._coerce(other)
        self._check(other)
        ring = self.ring
        if not self or not other:
            return ring.zero()
        if ring.is_skew:
            return backend.skew2_mul(ring, self, other)
        return _weyl_mul(ring, self, other)

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
            n >>= 1
            if n:  # no square after the last bit
                base = base * base
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
        """Whether self*other == other*self.  A necessary condition is
        checked first and the two full products made only when it holds: in
        a skew ring the exact 8x8 low corners of both products agree, in a
        weyl ring the Poisson bracket of the top-degree parts vanishes at
        the all-ones point (:func:`_top_bracket`)."""
        other = self._coerce(other)
        self._check(other)
        ring = self.ring
        if ring.is_skew and self and other:
            # the low corners of f*g and g*f are exact: one that differs
            # settles the question without the full products
            if not np.array_equal(backend.low_corner(ring, self, other),
                                  backend.low_corner(ring, other, self)):
                return False
        if ring.is_weyl and self and other and _top_bracket(self, other):
            return False
        return self * other == other * self

    def __eq__(self, other):
        if not isinstance(other, OrePolynomial):
            return NotImplemented
        return self.ring == other.ring and self._key() == other._key()

    def __hash__(self):
        return hash((self.ring, self._key()))

    def _key(self) -> tuple:
        """What fixes a value in its ring: the bytes of its pair of arrays."""
        if not self:
            return ()
        if self.ring.is_skew:
            return self._lo, self._grid.shape, self._grid.tobytes()
        return self._exps.tobytes(), self._coeffs.tobytes()

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
# of its sum in _weyl_mul.  d1^999*d2^999 * x1^999*x2^999 takes exactly this
# many, about 0.3 s with a 100 MB traced peak at p = 2^31 - 1, as does
# (d1^N + d2^N) * (x1^N + x2^N) at N = 499,998, about 0.6 s with 138 MB; the
# largest product below it in the tests, d1^999998 * x1^999998, about 0.35 s
# with 100 MB (0.7 s and 108 MB while its table of inverses is first built);
# in the benchmark 14,984 steps.
MAX_WEYL_STEPS = 1_000_000
# _weyl_mul sums its entries by one np.bincount over the output box when the
# box has at most WEYL_BOX_PER_STEP cells per Leibniz step, else as exponent
# columns by OrePolynomial._of_coo.  MAX_WEYL_STEPS thus bounds the box at 4M
# cells, a 32 MB float64 array.  Swept on a 2-CPU machine over random
# two-variable products of 600 steps or more at p = 71 and 2^31 - 1 (whole
# products, medians of 5 timings), against the column route: the bincount
# route led on 14 of 14 products up to 5.2 cells a step, on 14 of 27 from 5.2
# to 9 and on 2 of 201 from 9 to 40, hence 4.
WEYL_BOX_PER_STEP = 4
_INT64_MAX = np.iinfo(np.int64).max


def _weyl_mul(ring: OreRing, f: OrePolynomial, g: OrePolynomial) -> OrePolynomial:
    """The Weyl product of two nonzero weyl values, all pairs of terms at
    once on int64 arrays, by d^w x^e = sum_k C(w,k) C(e,k) k! x^(e-k)
    d^(w-k) in each variable.  Mod p that factor is w(w-1)..(w-k+1)
    e(e-1)..(e-k+1) / k!, zero once k passes w mod p or e mod p, so a pair
    expands, variable by variable, into k = 0..min(w mod p, e mod p), all
    < p, with running products by doubling as factors.  A pair's entry and
    coefficient are an outer sum and product of f's and g's columns, and
    per variable the min and max of w mod p and e mod p an outer minimum
    and maximum.  The route is picked before the expansion, by the step
    count of the limit check, which is the entry count when every exponent
    is below p and above it otherwise: when the output box has at most
    ``WEYL_BOX_PER_STEP`` cells per step, an entry is its flat index in the
    box and the entries are summed by one ``np.bincount`` over it, read in
    C order, the columns' lexicographic order; otherwise an entry is its
    exponent column and :meth:`OrePolynomial._of_coo` sorts and sums them.
    OreKexError when the steps pass ``MAX_WEYL_STEPS``, or an output
    exponent passes 2^63 - 1."""
    p, n = ring.p, ring.n
    (ef, cf), (eg, cg) = f._coo(), g._coo()
    # pair (a, b) takes prod_i (min(w_i, e_i) + 1) >= 1 steps, so the pair
    # count goes first; float64 counts steps exactly far past the limit
    steps = len(f) * len(g)
    if steps <= MAX_WEYL_STEPS:
        steps = (np.minimum(ef[n:, :, None], eg[:n, None, :]) + 1.0).prod(0).sum()
    if steps > MAX_WEYL_STEPS:
        raise OreKexError(f"Weyl product needs over {MAX_WEYL_STEPS} Leibniz steps")
    # the box runs from f's lowest x- and g's lowest d-exponents, which no k
    # goes below, to the sums of the highest
    lo = ef[:n].min(1).tolist() + eg[n:].min(1).tolist()
    hi = [s + t for s, t in zip(ef.max(1).tolist(), eg.max(1).tolist())]
    if max(hi) > _INT64_MAX:
        raise OreKexError("exponent too large for the int64 kernels")
    box = [h - l + 1 for h, l in zip(hi, lo)]
    cells = prod(box)
    dense = cells <= WEYL_BOX_PER_STEP * int(steps)
    w, e = ef[n:] % p, eg[:n] % p
    # pair a * len(g) + b; the pair arrays are outer sums and products
    if dense:
        # flat indices of the operands' columns shifted into the box
        strides = np.array([prod(box[j + 1:]) for j in range(2 * n)], np.int64)
        key = np.add.outer(strides @ (ef - np.array(lo[:n] + [0] * n)[:, None]),
                           strides @ (eg - np.array([0] * n + lo[n:])[:, None])).ravel()
    else:
        key = (ef[:, :, None] + eg[:, None, :]).reshape(2 * n, -1)
    coef = np.multiply.outer(cf, cg).ravel() % p
    tops = np.minimum(w.max(1), e.max(1))  # each variable's largest cap
    live = np.flatnonzero(tops)  # variables with a k > 0
    inv = _inverses(1 << int(tops.max()).bit_length(), p)
    pair = None  # of each entry, once the pairs have expanded
    for i in live:
        # a step multiplies by (w - k + 1)(e - k + 1)/k, symmetric in w and e
        cap, big = np.minimum.outer(w[i], e[i]).ravel(), np.maximum.outer(w[i], e[i]).ravel()
        if pair is not None:
            cap, big = cap[pair], big[pair]
        step = strides[i] + strides[n + i] if dense else [i, n + i]
        key, coef = _leibniz_step(key, coef, cap, big, step, inv, p)
        if i != live[-1]:
            pair = (np.arange(len(cap)) if pair is None else pair).repeat(cap + 1)
    if not dense:
        return OrePolynomial._of_coo(ring, key, coef)
    # float64 sums are exact: at most MAX_WEYL_STEPS = 10^6 entries, each
    # below p <= 2^31, stay below 2^51
    sums = np.bincount(key, coef, cells)
    key = sums.nonzero()[0]  # C order: the columns' lexicographic order
    sums = sums[key].astype(np.int64) % p
    key, sums = key[sums != 0], sums[sums != 0]
    exps = np.array(np.unravel_index(key, box), np.int64)
    exps += np.array(lo)[:, None]
    return OrePolynomial._of(ring, exps=exps, coeffs=sums)


@lru_cache(maxsize=4)
def _inverses(size: int, p: int) -> np.ndarray:
    """Read-only 1/j mod p for j < size (j = 0 giving 0 or 1, never read), by
    Fermat's j^(p - 2) with square-and-multiply on one int64 array: about
    2 log2(p) passes, every product of two residues below 2^62.  Products
    ask for a power of two, so a few tables serve them all."""
    base = np.arange(size, dtype=np.int64)
    inv = np.ones(size, np.int64)
    e = p - 2
    while e:
        if e & 1:
            inv = inv * base % p
        e >>= 1
        if e:
            base = base * base % p
    inv.flags.writeable = False
    return inv


def _leibniz_step(key, coef, cap, big, step, inv: np.ndarray, p: int):
    """Entries (key, coef) of a Weyl product expanded by one variable's
    Leibniz sums: entry j into k = 0..cap[j], each with its coefficient
    times the product over t = 1..k of (cap[j] - t + 1)(big[j] - t + 1)/t
    mod p, ``inv[t]`` being 1/t mod p, and its key lowered: a flat index by
    k * step, an exponent column in its rows ``step`` (x_i and d_i) by k.
    A run's entries stay together."""
    run = cap + 1
    start = run.cumsum() - run
    k = np.arange(start[-1] + run[-1]) - start.repeat(run)
    at = k.nonzero()[0]  # the entries with k >= 1; the others keep their coefficient
    ka = k[at]
    fac = (run.repeat(cap) - ka) * ((big + 1).repeat(cap) - ka) % p * inv[ka] % p
    # running products along each run, by doubling: the pass of step s
    # multiplies every entry with k > s by the entry s before it
    later, s = (ka > 1).nonzero()[0], 1
    while len(later):
        fac[later] = fac[later] * fac[later - s] % p
        s *= 2
        later = later[ka[later] > s]
    coef = coef.repeat(run)
    coef[at] = coef[at] * fac % p
    key = key.repeat(run, -1)
    if key.ndim == 1:
        key -= k * step
    else:
        key[step] -= k
    return key, coef


def _top_part(value: OrePolynomial):
    """(exps, coeffs), in lex order, of a nonzero weyl value's terms of top
    degree."""
    exps, coeffs = value._coo()
    top = top_degree(exps)
    return exps.compress(top, 1), coeffs[top]


def _top_bracket(f: OrePolynomial, g: OrePolynomial) -> int:
    """The Poisson bracket of the top-degree parts of two nonzero weyl
    values at the all-ones point, mod p: sum_i (a_{d_i} b_{x_i} - b_{d_i}
    a_{x_i}), with a_s the sum over f's terms of greatest total degree of
    (the term's exponent of s, mod p) times its coefficient, and b_s the
    same for g.  With x_i and d_i of degree 1, d_i x_i - x_i d_i = 1 drops two
    degrees, so the part of f*g - g*f of degree deg f + deg g - 2 is that
    bracket of the top parts (the k = 1 Leibniz terms; the k >= 2 terms,
    and lower parts, lie lower); a nonzero value proves f*g != g*f.  Zero
    says nothing: it holds for every commuting pair and about 1 in p
    others."""
    p, n = f.ring.p, f.ring.n
    grads = []
    for exps, coeffs in (_top_part(f), _top_part(g)):
        # each (e mod p) c < 2^62 is reduced before the sum
        grads.append((exps % p * coeffs % p).sum(1).tolist())
    a, b = grads
    return sum(a[n + i] * b[i] - b[n + i] * a[i] for i in range(n)) % p


# Every draw random_polynomial makes is numpy's bounded draw on a 32-bit word:
# a term of degree d in s slots draws its exponents on [0, d + s - 2] at most,
# so a draw is refused unless total degree + s - 1 <= _WORD.
_WORD = 1 << 32
# Terms one pass of _draws reads in two slots; a ring of s slots reads (2/s)^2
# as many, at least one, as a term's words and the rows drawn on them both
# grow with s.  A pass then holds a few MB of int64 arrays.
_DRAW_PASS = 1 << 16


def _lemire(words: np.ndarray, bound):
    """(values, accepted) of numpy's bounded draws on [0, bound), 1 <= bound
    <= 2^32, one per 32-bit word x: the value is (x*bound) >> 32, and the
    word is rejected, the draw moving on to the next word, when (x*bound) mod
    2^32 < 2^32 mod bound (D. Lemire, ACM TOMACS 29(1), 2019).  ``bound`` is
    an int or one per word."""
    b = np.asarray(bound, np.uint64)
    m = words * b
    ok = (m & (_WORD - 1)) >= _WORD % b
    m >>= 32
    return m.view(np.int64), ok


def _accepted_draws(pad: np.ndarray, bounds):
    """(values, words), one row per bound b of ``bounds``: the value of the
    draw on [0, b) from each word of ``pad``, and the position of the word
    that the draw starting there accepts (the last word of ``pad`` accepts
    every bound).  A bound of 1 reads no word: position start - 1."""
    b = np.array(bounds, np.uint64)[:, None]
    pos = np.arange(len(pad))
    val, ok = _lemire(pad, b)
    at = np.minimum.accumulate(np.where(ok, pos, pos[-1])[:, ::-1], axis=1)[:, ::-1]
    at[b[:, 0] == 1] = pos - 1
    return val, at


def _exponent_draws(pad: np.ndarray, at: np.ndarray, d: np.ndarray, shuffles):
    """(values, after) of the exponent draws of terms of degrees ``d`` that
    start at positions ``at`` of ``pad``: ``choice(d + k, k, replace=False)``,
    k = slots - 1, is k of Floyd's draws, stage t on [0, d + t] (values: a
    (k, len(at)) array), then k - 1 draws on [0, k - 1] down to [0, 1] that
    shuffle the picks (``shuffles``: where each accepts a word, by start).
    A term of degree 0 draws nothing."""
    live = d > 0
    vals = np.empty((len(shuffles) + 1, len(at)), np.int64)
    for t in range(len(vals)):
        bound = d + t + 1
        vals[t], ok = _lemire(pad[at], bound)
        at = at + live
        redo = (~ok & live).nonzero()[0]
        while redo.size:  # a rejected word moves the draw on to the next
            vals[t, redo], ok = _lemire(pad[at[redo]], bound[redo])
            at[redo] += 1
            redo = redo[~ok]
    for word in shuffles:
        at = np.where(live, word[at] + 1, at)
    return vals, at


def _parse_words(words: np.ndarray, total: int, hi: int, slots: int, want: int, first: bool):
    """(exps, coeffs, read): the first ``want`` terms that random_polynomial's
    draws take from ``words``, the forced term first when ``first``, fewer
    when the words run out, and the words they read.  Python evaluates
    ``terms[key] = value`` value first, so the forced term draws its
    coefficient, then its exponents; every other term its degree d, its
    coefficient, then its exponents when d > 0.  Where a term starts thus
    depends on the terms before it: the draws are made for a term starting
    at every word, and the chain of starts is followed by pointer doubling,
    about log2(want) gathers.  The pad of 2^32 - 1, a word every bound
    accepts, holds the draws of a term that starts past the words."""
    end = len(words)
    pad = np.append(words, np.full(2 * slots + 1, _WORD - 1, np.uint32))
    val, (dat, cat, *shuffles) = _accepted_draws(
        pad, [total + 1, hi - 1, *range(slots - 1, 1, -1)])
    coef_at = dat[:end + 2] + 1  # where the coefficient draw of a term at i starts
    cat = cat[np.append(coef_at, 0)]  # of a term at every word, and last of the forced term
    degree = np.append(val[0, dat[:end + 2]], total)
    vals, nxt = _exponent_draws(pad, cat + 1, degree, shuffles)
    start = int(nxt[-1]) if first else 0
    if start > end:
        return np.empty((slots, 0), np.int64), np.empty(0, np.int64), 0
    nxt = np.minimum(nxt[:-1], end + 1)  # a term that runs past the words is cut
    starts, jump = np.array([start]), nxt
    while len(starts) < want - first:
        starts = np.concatenate([starts, jump[starts]])
        jump = jump[jump]
    starts = starts[:want - first]
    starts = starts[nxt[starts] <= end]  # the complete terms, a prefix of the chain
    read = int(nxt[starts[-1]]) if starts.size else start
    if first:
        starts = np.append(-1, starts)  # the forced term's column
    # Floyd's stage t picks d + t when its value is already picked (J. Bentley
    # and R. W. Floyd, CACM 30(9), 1987); the sorted picks, the shuffle undone,
    # cut d + k places into the exponents.  At d = 0 stage t picks t: all 0
    d = degree[starts]
    picks = vals.take(starts, 1) * (d > 0)
    for t in range(1, len(picks)):
        picks[t] = np.where((picks[:t] == picks[t]).any(0), d + t, picks[t])
    picks.sort(0)
    exps = np.empty((slots, len(d)), np.int64)
    exps[:-1], exps[-1] = picks, d + slots - 1
    exps[1:] -= picks + 1  # run j lies between cuts j - 1 and j
    return exps, val[1, cat[starts]] + 1, read


def _draws(total: int, n_terms: int, hi: int, slots: int, rng):
    """The exponents (a (slots, n_terms) int64 array) and coefficients of
    random_polynomial's terms, in draw order, read from numpy's 32-bit words
    (``integers(0, 2**32, dtype=uint32)`` returns the words scalar draws
    read) in passes, the words a pass leaves unread carried into the next.
    Then the generator's state is reset and exactly the words read are
    drawn again, so it ends where scalar draws leave it."""
    state = rng.bit_generator.state
    parts, read, left = [], 0, n_terms
    words = np.empty(0, np.uint32)
    while left:
        want = min(left, max(1, 4 * _DRAW_PASS // slots ** 2))
        words = np.append(words, rng.integers(0, _WORD, (2 * slots - 1) * want + 64,
                                              dtype=np.uint32))
        exps, coeffs, used = _parse_words(words, total, hi, slots, want, left == n_terms)
        parts.append((exps, coeffs))
        left -= len(coeffs)
        read += used
        words = words[used:]
    rng.bit_generator.state = state
    rng.integers(0, _WORD, read, dtype=np.uint32)
    return np.concatenate([e for e, _ in parts], axis=1), np.concatenate([c for _, c in parts])


def random_polynomial(ring: OreRing, total_degree: int, n_terms: int, rng) -> OrePolynomial:
    """Sample a polynomial with at most ``n_terms`` terms and total degree
    exactly ``total_degree`` (one term of full degree is always forced).

    Coefficients are uniform over the nonzero coefficient domain; the
    generator is caller-owned, so equal seeds reproduce equal polynomials.
    A term draws its degree d (``integers(0, total_degree + 1)``), its
    coefficient (``integers(1, n_coeff_values)``), then its exponents, the
    runs between the sorted ``choice(d + s - 1, s - 1, replace=False)`` in a
    ring of s slots; a later term on an earlier monomial replaces it.  The
    draws are made on arrays of numpy's words (:func:`_draws`), with the
    values and generator state of those scalar draws.  OreKexError, before
    any draw, when ``n_terms`` is over ``backend.MAX_GRID_CELLS`` or
    ``total_degree + s - 1`` over 2^32.
    """
    if total_degree < 0 or n_terms < 1:
        raise OreKexError("impossible sparsity/degree combination")
    if n_terms > backend.MAX_GRID_CELLS:
        raise OreKexError(f"{n_terms} terms are over the {backend.MAX_GRID_CELLS}-term "
                          f"limit of a draw")
    s = ring.exp_len
    if total_degree + s - 1 > _WORD:
        raise OreKexError(f"total degree {total_degree} is over {_WORD - s + 1}, the most "
                          f"a draw in {s} slots makes")
    exps, coeffs = _draws(total_degree, n_terms, ring.n_coeff_values, s, rng)
    # one stable sort keeps each monomial's draws in order, its last kept as
    # a dict keeps it; keys of the least type that holds the degree sort by
    # radix, and take() gives rows in C order, which compare fast
    order = np.lexsort(exps[::-1].astype(np.min_scalar_type(total_degree)))
    exps = exps.take(order, 1)
    last = np.append((exps[:, 1:] != exps[:, :-1]).any(0), True)
    return OrePolynomial._of_coo(ring, exps.compress(last, 1), coeffs[order[last]])
