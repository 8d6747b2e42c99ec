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

A weyl value holds a term dict.  A skew value holds a term dict, a grid
or both.  The grid is the dense coefficient-index array the product
kernel convolves: cell e holds the coefficient of d^e, it starts at d^0
and every axis ends at the value's highest exponent on it, so it is
trimmed.  Products and sums of skew values hold grids only; a value made
from a dict (the parser, :func:`random_polynomial`, constants) builds its
grid when a product first needs it, and a grid-held value builds its
``terms`` when a caller first reads them.  Both are cached, and so are the
powers that :meth:`OrePolynomial.power_sum` makes.
"""

from __future__ import annotations

from math import prod
from types import MappingProxyType

import numpy as np

from . import backend
from .errors import OreKexError, RingMismatchError
from .fields import FieldElement, tables_for
from .monomials import grevlex_key, sorted_descending
from .rings import OreRing


class OrePolynomial:
    __slots__ = ("ring", "_terms", "_grid", "_powers")

    def __init__(self, ring: OreRing, terms: dict):
        clean = {}
        limit = ring.n_coeff_values
        for exps, c in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != ring.exp_len:
                raise OreKexError("exponent vector has wrong length for this ring")
            if any(e < 0 for e in exps):
                raise OreKexError("negative exponent")
            c = int(c)
            if ring.is_skew:
                if not 0 <= c < limit:
                    raise OreKexError(f"coefficient index {c} out of range [0,{limit})")
            else:
                c %= limit
            if c:
                clean[exps] = c
        self._set(ring, clean, None)

    def _set(self, ring, terms, grid):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_grid", grid)
        object.__setattr__(self, "_powers", None)

    @classmethod
    def _raw(cls, ring: OreRing, terms: dict) -> "OrePolynomial":
        # trusted path for internally produced, already-canonical term dicts
        self = object.__new__(cls)
        self._set(ring, terms, None)
        return self

    @classmethod
    def _of_grid(cls, ring: OreRing, grid) -> "OrePolynomial":
        # trusted path for a kernel's trimmed grid, which the value takes
        # over; None is the zero value
        self = object.__new__(cls)
        if grid is None:
            self._set(ring, {}, None)
        else:
            grid.flags.writeable = False
            self._set(ring, None, grid)
        return self

    def __setattr__(self, *a):  # immutable value
        raise AttributeError("OrePolynomial is immutable")

    # -- structure -----------------------------------------------------------

    @property
    def terms(self):
        """Read-only ``{exponents: coefficient}`` view, built from the grid on
        first use."""
        if self._terms is None:
            object.__setattr__(self, "_terms", backend.grid_to_terms(self._grid))
        return MappingProxyType(self._terms)

    @property
    def grid(self) -> np.ndarray:
        """Read-only coefficient-index grid of a nonzero skew value (see the
        module docstring), built from the terms on first use; OreKexError
        when its box is over ``backend.MAX_GRID_CELLS``."""
        if self._grid is None:
            if not self.ring.is_skew or not self._terms:
                raise OreKexError("only nonzero skew polynomials have a grid")
            grid = backend.terms_to_grid(self._terms, tables_for(self.ring.field).dtype)
            grid.flags.writeable = False
            object.__setattr__(self, "_grid", grid)
        return self._grid

    def _tops(self) -> list[int]:
        """Highest exponent on each axis of a nonzero value."""
        if self._grid is not None:
            return [a - 1 for a in self._grid.shape]
        return [max(col) for col in zip(*self._terms)]

    def is_zero(self) -> bool:
        return not self

    def __bool__(self):
        # a held grid is trimmed, so it has a nonzero cell
        return self._grid is not None or bool(self._terms)

    def __len__(self):
        if self._terms is None:
            return int(np.count_nonzero(self._grid))
        return len(self._terms)

    def leading(self) -> tuple[tuple[int, ...], int]:
        """Greatest term in the global grevlex order: (exponents, coeff index)."""
        if not self.terms:
            raise OreKexError("zero polynomial has no leading term")
        lead = max(self.terms, key=grevlex_key)
        return lead, self.terms[lead]

    def total_degree(self) -> int | None:
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def d_degree(self, i: int) -> int:
        """Degree in the Ore variable d_i (1-based); -1 for the zero polynomial."""
        if not 1 <= i <= self.ring.n:
            raise OreKexError(f"Ore variable index {i} out of range")
        if not self:
            return -1
        off = 0 if self.ring.is_skew else self.ring.n
        return self._tops()[off + i - 1]

    def d_degrees(self) -> tuple[int, ...]:
        return tuple(self.d_degree(i) for i in range(1, self.ring.n + 1))

    def coefficient(self, exps) -> int:
        return self.terms.get(tuple(exps), 0)

    # -- ring operations -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, (int, FieldElement)):
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
        ring = self.ring
        if not other:
            return self
        if not self:
            return other
        if ring.is_weyl:
            p = ring.p
            out = dict(self._terms)
            for e, c in other._terms.items():
                v = (out.get(e, 0) + c) % p
                if v:
                    out[e] = v
                elif e in out:
                    del out[e]
            return OrePolynomial._raw(ring, out)
        tab = tables_for(ring.field)
        # on grids unless the union box is over the kernels' limit, as
        # f + d1^3000*d2^3000 is: that sum stays a dict
        if prod(max(a, b) + 1 for a, b in zip(self._tops(), other._tops())) \
                <= backend.MAX_GRID_CELLS:
            return OrePolynomial._of_grid(ring, backend.grid_sum(tab, self.grid, other.grid))
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = int(tab.add[out.get(e, 0), c])
            if v:
                out[e] = v
            elif e in out:
                del out[e]
        return OrePolynomial._raw(ring, out)

    def __sub__(self, other):
        other = self._coerce(other)
        return self + (-other)

    def __neg__(self):
        if self.ring.is_weyl:
            p = self.ring.p
            return OrePolynomial._raw(self.ring, {e: (-c) % p for e, c in self._terms.items()})
        tab = tables_for(self.ring.field)
        if self._grid is not None:
            return OrePolynomial._of_grid(self.ring, tab.neg[self._grid])
        return OrePolynomial._raw(self.ring, {e: int(tab.neg[c]) for e, c in self._terms.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        self._check(other)
        ring = self.ring
        if not self or not other:
            return ring.zero()
        if ring.is_skew:
            return backend.skew2_mul(ring, self, other)
        return OrePolynomial._raw(ring, _weyl_mul(ring, self._terms, other._terms))

    def __radd__(self, other):
        return self + other

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __rmul__(self, other):
        # ints and FieldElements are central or left factors; order matters
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
        value, so every evaluation at it shares them.  In a skew ring each
        power's grid is scaled into the box of the highest: the boxes are
        nested, and the highest power's top slices pass into the sum times
        its nonzero coefficient, so the sum is trimmed."""
        ring, p = self.ring, self.ring.p
        c0, *coeffs = [c % p for c in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        if not self or not coeffs:
            return ring.constant(c0)
        if self._powers is None:
            object.__setattr__(self, "_powers", [])  # self^2, self^3, ...
        powers = [self] + self._powers
        while len(powers) < len(coeffs):
            powers.append(powers[-1] * self)
            self._powers.append(powers[-1])
        pairs = [(c, h) for c, h in zip(coeffs, powers) if c]
        if ring.is_weyl:
            out = {(0,) * ring.exp_len: c0}
            for c, h in pairs:
                for e, v in h._terms.items():
                    out[e] = (out.get(e, 0) + c * v) % p
            return OrePolynomial._raw(ring, {e: v for e, v in out.items() if v})
        tab = tables_for(ring.field)
        out = np.zeros(pairs[-1][1].grid.shape, dtype=tab.dtype)
        out.flat[0] = c0  # a scalar of F_p is its own coefficient index
        for c, h in pairs:
            box = tuple(map(slice, h.grid.shape))
            out[box] = tab.add[out[box], tab.mul[c, h.grid]]
        return OrePolynomial._of_grid(ring, out if out.any() else None)

    def commutes_with(self, other: "OrePolynomial") -> bool:
        other = self._coerce(other)
        self._check(other)
        ring = self.ring
        if ring.is_skew and self and other:
            # the low corners of f*g and g*f are exact: one that differs
            # settles the question without the full products
            f, g = self.grid, other.grid
            if not np.array_equal(backend.low_corner(ring, f, g), backend.low_corner(ring, g, f)):
                return False
        return self * other == other * self

    def __eq__(self, other):
        if not isinstance(other, OrePolynomial):
            return NotImplemented
        if self.ring != other.ring:
            return False
        if self._grid is not None and other._grid is not None:
            return np.array_equal(self._grid, other._grid)
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    # -- text form -------------------------------------------------------------

    def to_text(self) -> str:
        """The terms in descending grevlex order, each filled into the ring's
        :meth:`OreRing.term_format`, joined by `` + ``; ``0`` when zero."""
        if not self:
            return "0"
        ring, terms = self.ring, self.terms
        fmt = ring.term_format().format
        # the template's coefficient fields of each index: its digits, or
        # in a weyl ring (no tables, p up to 2^31) the scalar itself
        digits = (tables_for(ring.field).digits.tolist() if ring.is_skew
                  else {c: (c,) for c in terms.values()})
        return " + ".join(fmt(*digits[terms[e]], *e) for e in sorted_descending(terms))

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
    return OrePolynomial(ring, terms)
