"""Arithmetic in F_p and in the extension F_{p^k} = F_p[x]/<m(x)>.

Elements are dense coefficient vectors over F_p (coefficient of alpha^i at
index i).  The fields used here are tiny (q up to a few hundred), so every
operation is also mirrored into lookup tables (:class:`FieldTables`) that the
fast polynomial kernels index into; the tables encode an element as the
integer ``a0 + a1*p + ... + a_{k-1}*p^{k-1}``.

Automorphisms are restricted to powers of the Frobenius map ``a -> a^(p^j)``,
which form the full automorphism group of F_{p^k}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import OreKexError, RingMismatchError, ZeroInverseError


# Largest field order q = p^k whose lookup tables are built.  The q x q
# tables take Python-level products: 0.14 s at q = 13^2, 0.68 s at 2^8,
# 2.8 s at 2^9.  F_125, the largest field of the aliases and tests, is
# inside.
MAX_FIELD_ORDER = 256
# Largest characteristic a ring line may name: is_prime takes sqrt(p)
# trial divisions, 46,341 at this bound.
MAX_CHARACTERISTIC = 1 << 31


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# -- dense F_p[x] helpers (coefficient lists, lowest degree first) -----------

def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _poly_mod(a: list[int], m: list[int], p: int) -> list[int]:
    # m is monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i, mi in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * mi) % p
        _trim(a)
    return a


def _poly_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = pow(b[-1], -1, p)
    while a and len(a) >= len(b):
        c = (a[-1] * inv_lead) % p
        shift = len(a) - len(b)
        q[shift] = c
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - c * bi) % p
        _trim(a)
    return _trim(q), a


def _poly_xgcd(a: list[int], b: list[int], p: int):
    """Extended Euclid over F_p[x]: returns (g, s, t) with s*a + t*b = g."""
    r0, r1 = _trim(list(a)), _trim(list(b))
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _poly_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _trim([(x - y) % p for x, y in _zip_pad(s0, _poly_mul(q, s1, p))])
        t0, t1 = t1, _trim([(x - y) % p for x, y in _zip_pad(t0, _poly_mul(q, t1, p))])
    return r0, s0, t0


def _zip_pad(a: list[int], b: list[int]):
    n = max(len(a), len(b))
    return zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))


@dataclass(frozen=True)
class FieldSpec:
    """F_{p^k} presented as F_p[x] modulo a monic irreducible of degree k.

    ``modulus`` lists k+1 coefficients, lowest degree first.  Irreducibility
    is verified at construction by root search plus quadratic-factor trial,
    which suffices for k <= 4; larger k must pass ``assume_irreducible=True``.
    """

    p: int
    k: int
    modulus: tuple[int, ...]
    assume_irreducible: bool = False

    def __post_init__(self):
        if not is_prime(self.p):
            raise OreKexError(f"characteristic {self.p} is not prime")
        if self.k < 1:
            raise OreKexError("extension degree must be >= 1")
        object.__setattr__(self, "modulus", tuple(c % self.p for c in self.modulus))
        if len(self.modulus) != self.k + 1:
            raise OreKexError("modulus must have k+1 coefficients")
        if self.modulus[-1] != 1:
            raise OreKexError("modulus must be monic")
        if not self.assume_irreducible:
            self._check_irreducible()

    def _check_irreducible(self):
        if self.k == 1:
            return
        if self.k > 4:
            raise OreKexError(
                "irreducibility check supports k <= 4; pass assume_irreducible=True"
            )
        m = list(self.modulus)
        for a in range(self.p):
            acc = 0
            for c in reversed(m):
                acc = (acc * a + c) % self.p
            if acc == 0:
                raise OreKexError(f"modulus has root {a} mod {self.p}: not irreducible")
        if self.k == 4:
            # no roots rules out linear factors; also exclude quadratic ones
            for b in range(self.p):
                for c in range(self.p):
                    quad = [c, b, 1]
                    if any(
                        (r * r + b * r + c) % self.p == 0 for r in range(self.p)
                    ):
                        continue  # reducible quadratic, cannot be a factor of m
                    _, rem = _poly_divmod(m, quad, self.p)
                    if not rem:
                        raise OreKexError("modulus has an irreducible quadratic factor")

    @property
    def q(self) -> int:
        return self.p ** self.k

    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.k)

    def one(self) -> "FieldElement":
        return FieldElement(self, (1,) + (0,) * (self.k - 1))

    def alpha(self) -> "FieldElement":
        """The residue class of x, a generator of the extension over F_p."""
        if self.k < 2:
            raise OreKexError("prime field has no extension generator")
        return FieldElement(self, (0, 1) + (0,) * (self.k - 2))

    def element(self, coeffs) -> "FieldElement":
        if isinstance(coeffs, int):
            return FieldElement(self, (coeffs % self.p,) + (0,) * (self.k - 1))
        return FieldElement(self, tuple(int(c) % self.p for c in coeffs))

    def from_index(self, idx: int) -> "FieldElement":
        if not 0 <= idx < self.q:
            raise OreKexError(f"element index {idx} out of range for q={self.q}")
        coeffs = []
        for _ in range(self.k):
            coeffs.append(idx % self.p)
            idx //= self.p
        return FieldElement(self, tuple(coeffs))

    def elements(self):
        """Iterate over all q elements (index order)."""
        for idx in range(self.q):
            yield self.from_index(idx)

    def frobenius(self, power: int) -> "Automorphism":
        return Automorphism(self, power % self.k)

    def to_text(self) -> str:
        m = ",".join(str(c) for c in self.modulus)
        return f"field p={self.p} k={self.k} m=[{m}]"


@dataclass(frozen=True)
class FieldElement:
    spec: FieldSpec
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.spec.k:
            raise OreKexError("coefficient vector has wrong length")
        object.__setattr__(
            self, "coeffs", tuple(c % self.spec.p for c in self.coeffs)
        )

    def _check(self, other: "FieldElement"):
        if other.spec != self.spec:
            raise RingMismatchError("field elements from different FieldSpecs")

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        return FieldElement(
            self.spec, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        return FieldElement(
            self.spec, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self):
        return FieldElement(self.spec, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        prod = _poly_mul(list(self.coeffs), list(other.coeffs), self.spec.p)
        red = _poly_mod(prod, list(self.spec.modulus), self.spec.p)
        red += [0] * (self.spec.k - len(red))
        return FieldElement(self.spec, tuple(red))

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroInverseError("zero has no multiplicative inverse")
        g, s, _ = _poly_xgcd(list(self.coeffs), list(self.spec.modulus), self.spec.p)
        # g is a nonzero constant; scale s by its inverse
        c_inv = pow(g[0], -1, self.spec.p)
        s = _poly_mod([x * c_inv % self.spec.p for x in s], list(self.spec.modulus), self.spec.p)
        s += [0] * (self.spec.k - len(s))
        return FieldElement(self.spec, tuple(s))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n: int) -> "FieldElement":
        if n < 0:
            return self.inverse() ** (-n)
        acc = self.spec.one()
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def _coerce(self, other):
        if isinstance(other, int):
            return self.spec.element(other)
        if isinstance(other, FieldElement):
            return other
        return NotImplemented

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    @property
    def index(self) -> int:
        """Integer encoding a0 + a1*p + ... used by the lookup tables."""
        return reduce(lambda acc, c: acc * self.spec.p + c, reversed(self.coeffs), 0)

    def to_text(self) -> str:
        return "[" + ",".join(str(c) for c in self.coeffs) + "]"

    def __str__(self):
        return self.to_text()


@dataclass(frozen=True)
class Automorphism:
    """Frobenius power j: the map a -> a^(p^j).  j = 0 is the identity."""

    spec: FieldSpec
    power: int

    def __post_init__(self):
        if not 0 <= self.power < self.spec.k:
            raise OreKexError("Frobenius power must lie in [0, k)")

    def __call__(self, a: FieldElement) -> FieldElement:
        if a.spec != self.spec:
            raise RingMismatchError("element does not belong to this field")
        return a ** (self.spec.p ** self.power)

    def inverse(self) -> "Automorphism":
        return Automorphism(self.spec, (-self.power) % self.spec.k)


class FieldTables:
    """Dense lookup tables over the index encoding, consumed by the kernels.

    Attributes
    ----------
    add, sub, mul : (q, q)
    neg, inv : (q,)  (inv[0] is a 0 sentinel, never dereferenced)
    frob : (k, q), frob[j][i] = index of element_i ** (p**j)
    twist_digits : (q, k, k, k), [c, t, i, l] = digit i of c * frob^t(alpha^l)

    The dtype is the narrowest unsigned type that holds an index, so the
    whole table set stays cache-resident for the small fields used here.
    """

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        p, k, q = spec.p, spec.k, spec.q
        dtype = np.uint8 if q <= 0xFF else (np.uint16 if q <= 0xFFFF else np.int64)
        self.dtype = dtype
        digits = np.empty((q, k), dtype=np.int64)
        idx = np.arange(q)
        for j in range(k):
            digits[:, j] = (idx // p ** j) % p
        weights = p ** np.arange(k)

        def encode(d):
            return (d % p) @ weights

        self.add = encode(digits[:, None, :] + digits[None, :, :]).astype(dtype)
        self.neg = encode(-digits).astype(dtype)
        self.sub = self.add[:, self.neg].astype(dtype)

        mul = np.empty((q, q), dtype=dtype)
        elems = [spec.from_index(i) for i in range(q)]
        for i in range(q):
            ei = elems[i]
            for j in range(i, q):
                v = (ei * elems[j]).index
                mul[i, j] = v
                mul[j, i] = v
        self.mul = mul

        inv = np.zeros(q, dtype=dtype)
        for i in range(1, q):
            inv[i] = elems[i].inverse().index
        self.inv = inv

        frob = np.empty((k, q), dtype=dtype)
        frob[0] = np.arange(q)
        if k > 1:
            step = np.array([(e ** p).index for e in elems], dtype=dtype)
            for j in range(1, k):
                frob[j] = step[frob[j - 1]]
        self.frob = frob

        # c * frob^t(x) is F_p-linear in the digits of x; see backend.skew2_mul
        prod = mul[:, frob[:, p ** np.arange(k)]]  # [c, t, l]
        self.twist_digits = digits[prod].transpose(0, 1, 3, 2).astype(dtype)


_TABLE_CACHE: dict[FieldSpec, FieldTables] = {}


def tables_for(spec: FieldSpec) -> FieldTables:
    tab = _TABLE_CACHE.get(spec)
    if tab is None:
        if spec.q > MAX_FIELD_ORDER:
            raise OreKexError(f"a field of order {spec.q} is over the "
                              f"{MAX_FIELD_ORDER}-element limit of the lookup tables")
        tab = FieldTables(spec)
        _TABLE_CACHE[spec] = tab
    return tab
