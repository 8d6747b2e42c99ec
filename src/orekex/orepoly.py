"""Polynomials in an iterated Ore extension.

A term maps an exponent vector to a coefficient index:

* skew rings: vector of d-exponents (length n), coefficient an index into
  F_{p^k} (``a0 + a1*p + ...``);
* weyl rings: x-exponents followed by d-exponents (length 2n), coefficient
  a scalar in F_p.

Values are immutable once constructed; all operations are pure.  Products
respect the defining relations d*c = sigma(c)*d (skew) and d_i*x_i =
x_i*d_i + 1 (weyl).  Every skew product, whatever the number of variables,
is delegated to the FFT kernel in :mod:`orekex.backend`.

A weyl value holds a term dict.  A skew value holds a term dict, a grid
or both.  The grid is the dense coefficient-index array the product
kernel convolves: cell e holds the coefficient of d^e, it starts at d^0
and every axis ends at the value's highest exponent on it, so it is
trimmed.  Products and sums of skew values hold grids only; a value made
from a dict (the parser, :func:`random_polynomial`, constants) builds its
grid when a product first needs it, and a grid-held value builds its
``terms`` when a caller first reads them.  Both are cached.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import comb, factorial, prod
from types import MappingProxyType

import numpy as np

from . import backend
from .errors import OreKexError, RingMismatchError
from .fields import FieldElement, tables_for
from .monomials import grevlex_key, sorted_descending
from .rings import OreRing


@lru_cache(maxsize=4096)
def _leibniz_coef(w: int, e: int, k: int, p: int) -> int:
    return comb(w, k) * comb(e, k) * factorial(k) % p


class OrePolynomial:
    __slots__ = ("ring", "_terms", "_grid")

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


# Leibniz steps (one per k-tuple of the sum below) one Weyl product may take:
# about a second of work.  d1^999*d2^999 * x1^999*x2^999 is exactly this
# many; the largest product of the tests takes 62,937, of the benchmark 10,152.
MAX_WEYL_STEPS = 1_000_000


def _weyl_mul(ring: OreRing, f: dict, g: dict) -> dict:
    """Weyl product via d^a x^b = sum_k C(a,k) C(b,k) k! x^(b-k) d^(a-k).

    Raises OreKexError before the product would pass ``MAX_WEYL_STEPS``."""
    p, n = ring.p, ring.n
    out: dict[tuple[int, ...], int] = {}
    steps = 0
    for key1, c1 in f.items():
        e1, w1 = key1[:n], key1[n:]
        for key2, c2 in g.items():
            e2, w2 = key2[:n], key2[n:]
            base = c1 * c2 % p
            # the sum below has one step per k-tuple, 0 <= k_i < sizes[i]
            sizes = [min(a, b) + 1 for a, b in zip(w1, e2)]
            pair_steps = prod(sizes)
            if pair_steps == 1:
                # the d-block of the left term never meets the x-block of
                # the right one; plain exponent addition
                key = tuple(a + b for a, b in zip(key1, key2))
                out[key] = (out.get(key, 0) + base) % p
                continue
            steps += pair_steps
            if steps > MAX_WEYL_STEPS:
                raise OreKexError(f"Weyl product needs over {MAX_WEYL_STEPS} Leibniz steps")
            for ks in product(*map(range, sizes)):
                c = base
                for i, k in enumerate(ks):
                    if k:
                        c = c * _leibniz_coef(w1[i], e2[i], k, p) % p
                if c == 0:
                    continue
                key = tuple(e1[i] + e2[i] - ks[i] for i in range(n)) + tuple(
                    w1[i] + w2[i] - ks[i] for i in range(n)
                )
                out[key] = (out.get(key, 0) + c) % p
    return {k: v for k, v in out.items() if v}


def _random_composition(total: int, slots: int, rng) -> tuple[int, ...]:
    if slots == 1:
        return (total,)
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
