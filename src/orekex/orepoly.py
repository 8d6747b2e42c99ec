"""Sparse polynomials in an iterated Ore extension.

A term maps an exponent vector to a coefficient index:

* skew rings: vector of d-exponents (length n), coefficient an index into
  F_{p^k} (``a0 + a1*p + ...``);
* weyl rings: x-exponents followed by d-exponents (length 2n), coefficient
  a scalar in F_p.

Values are immutable once constructed; all operations are pure.  Products
respect the defining relations d*c = sigma(c)*d (skew) and d_i*x_i =
x_i*d_i + 1 (weyl).  Every skew product, whatever the number of variables,
is delegated to the FFT kernel in :mod:`orekex.backend`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import comb, factorial, prod

from . import backend
from .errors import OreKexError, RingMismatchError
from .fields import FieldElement, tables_for
from .monomials import grevlex_key, sorted_descending
from .rings import OreRing


@dataclass(frozen=True)
class DegreeProfile:
    """Per-Ore-variable d-degrees plus the total degree over all exponents."""

    d_degrees: tuple[int, ...]
    total: int
    is_zero: bool = False

    def __add__(self, other: "DegreeProfile") -> "DegreeProfile":
        if self.is_zero or other.is_zero:
            raise OreKexError("zero polynomial has no degree profile to add")
        return DegreeProfile(
            tuple(a + b for a, b in zip(self.d_degrees, other.d_degrees)),
            self.total + other.total,
        )


@lru_cache(maxsize=4096)
def _leibniz_coef(w: int, e: int, k: int, p: int) -> int:
    return comb(w, k) * comb(e, k) * factorial(k) % p


class OrePolynomial:
    __slots__ = ("ring", "terms")

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
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _raw(cls, ring: OreRing, terms: dict) -> "OrePolynomial":
        # trusted path for internally produced, already-canonical term dicts
        self = object.__new__(cls)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", terms)
        return self

    def __setattr__(self, *a):  # immutable value
        raise AttributeError("OrePolynomial is immutable")

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

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
        if not self.terms:
            return -1
        off = 0 if self.ring.is_skew else self.ring.n
        return max(e[off + i - 1] for e in self.terms)

    def d_degrees(self) -> tuple[int, ...]:
        return tuple(self.d_degree(i) for i in range(1, self.ring.n + 1))

    def degree_profile(self) -> DegreeProfile:
        if not self.terms:
            return DegreeProfile((0,) * self.ring.n, 0, is_zero=True)
        return DegreeProfile(self.d_degrees(), self.total_degree())

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
        if self.ring.is_skew:
            tab = tables_for(self.ring.field)
            out = dict(self.terms)
            for e, c in other.terms.items():
                v = int(tab.add[out.get(e, 0), c])
                if v:
                    out[e] = v
                elif e in out:
                    del out[e]
        else:
            p = self.ring.p
            out = dict(self.terms)
            for e, c in other.terms.items():
                v = (out.get(e, 0) + c) % p
                if v:
                    out[e] = v
                elif e in out:
                    del out[e]
        return OrePolynomial._raw(self.ring, out)

    def __sub__(self, other):
        other = self._coerce(other)
        return self + (-other)

    def __neg__(self):
        if self.ring.is_skew:
            tab = tables_for(self.ring.field)
            return OrePolynomial._raw(
                self.ring, {e: int(tab.neg[c]) for e, c in self.terms.items()}
            )
        p = self.ring.p
        return OrePolynomial._raw(
            self.ring, {e: (-c) % p for e, c in self.terms.items()}
        )

    def __mul__(self, other):
        other = self._coerce(other)
        self._check(other)
        ring = self.ring
        if not self.terms or not other.terms:
            return ring.zero()
        if ring.is_skew:
            return OrePolynomial._raw(ring, backend.skew2_mul(ring, self.terms, other.terms))
        return OrePolynomial._raw(ring, _weyl_mul(ring, self.terms, other.terms))

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
        return self * other == other * self

    def __eq__(self, other):
        if not isinstance(other, OrePolynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    # -- text form -------------------------------------------------------------

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        ring = self.ring
        parts = []
        for exps in sorted_descending(self.terms):
            c = self.terms[exps]
            if ring.is_skew:
                coeff = ring.field.from_index(c).to_text()
                mono = "*".join(f"d{i+1}^{e}" for i, e in enumerate(exps))
            else:
                coeff = str(c)
                xs = "*".join(f"x{i+1}^{e}" for i, e in enumerate(exps[: ring.n]))
                ds = "*".join(f"d{i+1}^{e}" for i, e in enumerate(exps[ring.n:]))
                mono = f"{xs}*{ds}"
            parts.append(f"{coeff}*{mono}")
        return " + ".join(parts)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        text = self.to_text()
        if len(text) > 120:
            text = f"<{len(self.terms)} terms, total degree {self.total_degree()}>"
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
