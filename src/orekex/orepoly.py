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
is small beside them (``WEYL_BOX_PER_STEP``), else after one sort.
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
term was drawn by scalar ``Generator.integers`` calls.  In a ring of two
slots (every skew ring with n = 2) the draws are made on one array of
numpy's 32-bit words by Lemire's bounded-integer method with its
rejection, which is what ``integers`` runs for a bound up to 2^32.  The
contract thus rests on numpy's algorithm, which numpy does not promise
across versions; the golden CLI digests, recorded under numpy 2.4.6,
check it.  Rings of more slots draw term by term, their exponents by
``rng.choice``, whose draws only that route reproduces.
"""

from __future__ import annotations

from math import prod
from types import MappingProxyType

import numpy as np

from . import backend
from .errors import OreKexError, RingMismatchError
from .fields import tables_for
from .monomials import grevlex_descending, total_degrees
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
        return cls._of_coo(ring, *backend.terms_to_coo(clean, ring.exp_len))

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
            order = np.lexsort(exps[::-1])  # no flat index: far terms' box can pass int64
            exps = exps[:, order]
            first, sums = _run_sums((exps[:, 1:] != exps[:, :-1]).any(0), coeffs[order], ring.p)
            return cls._of(ring, exps=exps[:, first], coeffs=sums)
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
# many, about 0.25 s with a 99 MB traced peak at p = 2^31 - 1; the largest
# product below it in the tests, d1^999998 * x1^999998, about 1.2 s with
# 99 MB; in the benchmark 14,984 steps.
MAX_WEYL_STEPS = 1_000_000
# _weyl_mul sums its entries by one np.bincount over the output box when the
# box has at most WEYL_BOX_PER_STEP cells per entry (Leibniz step), else after
# one argsort of the entries' flat indices.  MAX_WEYL_STEPS thus bounds the
# box at 4M cells, a 32 MB float64 array.  Swept on a 2-CPU machine over
# random two-variable products at p = 71 and 2^31 - 1 (whole products,
# medians of 5-7 timings): the bincount route led on 31 of 34 products of 600
# steps or more up to 3 cells a step (trailing by at most 9%), on 11 of 13
# from 3 to 5.2 and on 1 of 32 above (by up to 2x behind at 9-40), hence 4;
# at 3.4M-4M cells it was about level.
WEYL_BOX_PER_STEP = 4
_INT64_MAX = np.iinfo(np.int64).max


def _run_sums(new, coef: np.ndarray, p: int):
    """(first entry, sum mod p) of each run of sorted entries, ``new[j]``
    marking that entry j + 1 starts one; runs that sum to zero dropped."""
    first = np.flatnonzero(np.concatenate(([True], new)))
    sums = np.add.reduceat(coef, first) % p
    keep = sums != 0
    return first[keep], sums[keep]


def _weyl_mul(ring: OreRing, f: OrePolynomial, g: OrePolynomial) -> OrePolynomial:
    """The Weyl product of two nonzero weyl values, all pairs of terms at
    once on int64 arrays, by d^w x^e = sum_k C(w,k) C(e,k) k! x^(e-k)
    d^(w-k) in each variable.  Mod p that factor is w(w-1)..(w-k+1)
    e(e-1)..(e-k+1) / k!, zero once k passes w mod p or e mod p, so a pair
    expands, variable by variable, into k = 0..min(w mod p, e mod p), all
    < p, with running products by doubling as factors.  A pair's flat index
    in the output box and its coefficient are an outer sum and product of
    f's and g's columns, and per variable the min and max of w mod p and e
    mod p an outer minimum and maximum.  The entries are summed per index
    on one of two routes: when the box has at most ``WEYL_BOX_PER_STEP``
    cells per entry, by one ``np.bincount`` over the box, read in C order;
    otherwise after one argsort of the indices.  Both give the columns in
    lexicographic order.
    OreKexError when the steps pass ``MAX_WEYL_STEPS``, or an exponent or
    index passes int64."""
    p, n = ring.p, ring.n
    (ef, cf), (eg, cg) = f._coo(), g._coo()
    # pair (a, b) takes prod_i (min(w_i, e_i) + 1) >= 1 steps, so the pair
    # count goes first; float64 counts steps exactly far past the limit
    if (len(f) * len(g) > MAX_WEYL_STEPS or (np.minimum(ef[n:, :, None], eg[:n, None, :])
                                             + 1.0).prod(0).sum() > MAX_WEYL_STEPS):
        raise OreKexError(f"Weyl product needs over {MAX_WEYL_STEPS} Leibniz steps")
    # indices count from f's lowest x- and g's lowest d-exponents: no k takes
    # an output below them
    lo = ef[:n].min(1).tolist() + eg[n:].min(1).tolist()
    hi = [s + t for s, t in zip(ef.max(1).tolist(), eg.max(1).tolist())]
    box = [h - l + 1 for h, l in zip(hi, lo)]
    cells = prod(box)
    if max(hi) > _INT64_MAX or cells > _INT64_MAX:
        raise OreKexError("exponent too large for the int64 kernels")
    strides = np.array([prod(box[j + 1:]) for j in range(2 * n)], np.int64)
    # copies shifted into the box; the rows the Leibniz factors read stay put
    ef = ef - np.array(lo[:n] + [0] * n)[:, None]
    eg = eg - np.array([0] * n + lo[n:])[:, None]
    # pair a * len(g) + b; the pair arrays are outer sums and products
    key = np.add.outer(strides @ ef, strides @ eg).ravel()
    coef = np.multiply.outer(cf, cg).ravel() % p
    w, e = ef[n:] % p, eg[:n] % p
    tops = np.minimum(w.max(1), e.max(1))  # each variable's largest cap
    live = np.flatnonzero(tops)  # variables with a k > 0
    inv = [0, 1]  # 1/j mod p for j < p, by p = (p // j) j + p % j
    for j in range(2, int(tops.max()) + 1):
        inv.append(-(p // j) * inv[p % j] % p)
    inv = np.array(inv)
    pair = None  # of each entry, once the pairs have expanded
    for i in live:
        # a step multiplies by (w - k + 1)(e - k + 1)/k, symmetric in w and e
        cap, big = np.minimum.outer(w[i], e[i]).ravel(), np.maximum.outer(w[i], e[i]).ravel()
        if pair is not None:
            cap, big = cap[pair], big[pair]
        key, coef = _leibniz_step(key, coef, cap, big, strides[i] + strides[n + i], inv, p)
        if i != live[-1]:
            pair = (np.arange(len(cap)) if pair is None else pair).repeat(cap + 1)
    if cells <= WEYL_BOX_PER_STEP * len(key):
        # float64 sums are exact: at most MAX_WEYL_STEPS = 10^6 entries, each
        # below p <= 2^31, stay below 2^51
        sums = np.bincount(key, coef, cells)
        key = sums.nonzero()[0]  # C order: the columns' lexicographic order
        sums = sums[key].astype(np.int64) % p
        key, sums = key[sums != 0], sums[sums != 0]
    else:
        order = key.argsort()
        key, coef = key[order], coef[order]
        first, sums = _run_sums(key[1:] != key[:-1], coef, p)
        key = key[first]
    exps = np.array(np.unravel_index(key, box), np.int64)
    exps += np.array(lo)[:, None]
    return OrePolynomial._of(ring, exps=exps, coeffs=sums)


def _leibniz_step(key, coef, cap, big, step: int, inv: np.ndarray, p: int):
    """Entries (key, coef) of a Weyl product expanded by one variable's
    Leibniz sums: entry j into k = 0..cap[j], each with its key lowered by
    k * step and its coefficient times the product over t = 1..k of
    (cap[j] - t + 1)(big[j] - t + 1)/t mod p, ``inv[t]`` being 1/t mod p; a
    run's entries stay together."""
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
    return key.repeat(run) - k * step, coef


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
    for exps, coeffs in (f._coo(), g._coo()):
        high, low = total_degrees(exps)
        top = high == high.max()
        top &= low == low[top].max()
        # each (e mod p) c < 2^62 is reduced before the sum
        grads.append((exps[:, top] % p * coeffs[top] % p).sum(1).tolist())
    a, b = grads
    return sum(a[n + i] * b[i] - b[n + i] * a[i] for i in range(n)) % p


# Most total degree random_polynomial draws.  Every degree and composition
# draw is then a bounded draw on at most 2^32 values, which numpy's
# Generator.integers makes from 32-bit words, the words _two_slot_draws reads.
MAX_DRAW_DEGREE = (1 << 32) - 1
_WORD = 1 << 32
# Terms one pass of _two_slot_draws reads: about 3 words a term, held in a few
# int64 arrays, so a draw of MAX_GRID_CELLS terms works in passes of a few MB.
_DRAW_PASS = 1 << 16


def _random_composition(total: int, slots: int, rng) -> tuple[int, ...]:
    if total == 0:
        return (0,) * slots
    cuts = sorted(int(c) for c in rng.choice(total + slots - 1, size=slots - 1, replace=False))
    exps = []
    prev = -1
    for c in cuts:
        exps.append(c - prev - 1)
        prev = c
    exps.append(total + slots - 2 - prev)
    return tuple(exps)


def _lemire(words: np.ndarray, bound):
    """(values, accepted) of numpy's bounded draws on [0, bound), 1 < bound
    <= 2^32, one per 32-bit word x: the value is (x*bound) >> 32, and the
    word is rejected, the draw moving on to the next word, when (x*bound) mod
    2^32 < 2^32 mod bound (D. Lemire, ACM TOMACS 29(1), 2019).  ``bound`` is
    an int or one per word."""
    b = np.asarray(bound, np.uint64)
    m = words * b
    ok = (m & (_WORD - 1)) >= _WORD % b
    m >>= 32
    return m.view(np.int64), ok


def _accepted_draws(pad: np.ndarray, bound: int):
    """(value, word) of the draw on [0, bound) that starts at each position
    of ``pad``: its value and the position of the word it accepts, the last
    two positions standing past the drawn words.  A bound of 1 reads no word
    (position start - 1)."""
    pos = np.arange(len(pad))
    if bound == 1:
        return np.zeros(len(pad), np.int64), pos - 1
    val, ok = _lemire(pad, bound)
    ok[-2:] = True
    at = np.minimum.accumulate(np.where(ok, pos, pos[-1])[::-1])[::-1]
    return val[at], at


def _parse_words(words: np.ndarray, total: int, hi: int, want: int, first: bool):
    """(exps, coeffs, read): the first ``want`` terms that random_polynomial's
    draws in a two-slot ring take from ``words``, the forced term first when
    ``first``, fewer when the words run out, and the words they read.

    Python evaluates ``terms[key] = value`` value first, so the forced term
    draws its coefficient, then its composition; every other term draws its
    degree d, its coefficient, then its composition (c, d - c), only when d
    > 0.  Where a term starts thus depends on the terms before it: the draws
    are made for a term starting at every word, and the chain of starts is
    followed by pointer doubling, about log2(want) gathers."""
    end = len(words)
    top = end + 1  # end and top stand past the words; a term reaching them is cut
    pad = np.append(words, np.zeros(2, np.uint32))
    dval, dat = _accepted_draws(pad, total + 1)
    cval, cat = _accepted_draws(pad, hi - 1)
    coef_at = np.minimum(dat + 1, top)  # where the coefficient draw of a term at i starts
    after = np.minimum(cat[coef_at] + 1, top)
    # composition draws, each with its own bound d + 1; a bound of 1 reads
    # no word and draws 0, and a rejected word moves its draw on to the next
    comp, ok = _lemire(pad[after], dval + 1)
    after += dval > 0
    redo = np.flatnonzero(~ok & (dval > 0))
    while redo.size:
        at = np.minimum(after[redo], top)
        comp[redo], ok = _lemire(pad[at], dval[redo] + 1)
        after[redo] = at + 1
        redo = redo[~ok & (at < end)]
    nxt = np.where(after <= end, after, top)
    start = 0
    if first:
        c = min(cat[0] + 1, top)  # the forced term's composition draw
        start = dat[c] + 1
        if start > end:
            return np.empty((2, 0), np.int64), np.empty(0, np.int64), 0
    starts, jump = np.array([start]), nxt
    while len(starts) < want - first:
        starts = np.concatenate([starts, jump[starts]])
        jump = jump[jump]
    starts = starts[:want - first]
    starts = starts[nxt[starts] <= end]  # the complete terms, a prefix of the chain
    read = int(nxt[starts[-1]]) if starts.size else start
    exps = np.array([comp[starts], dval[starts] - comp[starts]])
    coeffs = cval[coef_at[starts]] + 1
    if first:
        exps = np.concatenate([[[dval[c]], [total - dval[c]]], exps], axis=1)
        coeffs = np.concatenate([[cval[0] + 1], coeffs])
    return exps, coeffs, read


def _two_slot_draws(total: int, n_terms: int, hi: int, rng):
    """The exponents (a (2, n_terms) int64 array) and coefficients of the
    terms random_polynomial's draws make in a two-slot ring, in draw order,
    read from numpy's 32-bit words (``integers(0, 2**32, dtype=uint32)``
    returns exactly the words scalar draws read).  The words come in passes
    of at most ``_DRAW_PASS`` terms, the words a pass leaves unread carried
    into the next; then the generator's state is reset and exactly the words
    read are drawn again, so it ends where scalar draws leave it."""
    state = rng.bit_generator.state
    parts, read, left = [], 0, n_terms
    words = np.empty(0, np.uint32)
    while left:
        want = min(left, _DRAW_PASS)
        words = np.append(words, rng.integers(0, _WORD, 3 * want + 64, dtype=np.uint32))
        exps, coeffs, used = _parse_words(words, total, hi, want, left == n_terms)
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
    A term draws its degree (``integers(0, total_degree + 1)``), its
    coefficient, then its exponents, and a later term on an earlier
    monomial replaces it.  In a two-slot ring (every skew ring with n = 2)
    the draws are made on arrays of numpy's 32-bit words
    (:func:`_two_slot_draws`), with the values and the generator state that
    scalar draws give; a ring with more slots draws term by term, its
    exponents by ``rng.choice``.  OreKexError, before any draw, when
    ``n_terms`` is over ``backend.MAX_GRID_CELLS`` or ``total_degree`` over
    ``MAX_DRAW_DEGREE``.
    """
    if total_degree < 0 or n_terms < 1:
        raise OreKexError("impossible sparsity/degree combination")
    if n_terms > backend.MAX_GRID_CELLS:
        raise OreKexError(f"{n_terms} terms are over the {backend.MAX_GRID_CELLS}-term "
                          f"limit of a draw")
    if total_degree > MAX_DRAW_DEGREE:
        raise OreKexError(f"total degree {total_degree} is over {MAX_DRAW_DEGREE}")
    s = ring.exp_len
    hi = ring.n_coeff_values
    if s == 2:
        exps, coeffs = _two_slot_draws(total_degree, n_terms, hi, rng)
        lo = exps.min(1, keepdims=True)
        box = (exps.max(1) - lo[:, 0] + 1).tolist()
        if prod(box) <= backend.MAX_GRID_CELLS:  # over it, _of_coo refuses the box
            # the last draw of each monomial, as a dict keeps it
            last = np.full(prod(box), -1)
            np.maximum.at(last, np.ravel_multi_index(exps - lo, box), np.arange(n_terms))
            last = last[last >= 0]
            exps, coeffs = exps[:, last], coeffs[last]
        return OrePolynomial._of_coo(ring, exps, coeffs)
    terms: dict[tuple[int, ...], int] = {}
    terms[_random_composition(total_degree, s, rng)] = int(rng.integers(1, hi))
    for _ in range(n_terms - 1):
        d = int(rng.integers(0, total_degree + 1))
        terms[_random_composition(d, s, rng)] = int(rng.integers(1, hi))
    return OrePolynomial._of_coo(ring, *backend.terms_to_coo(terms, s))
