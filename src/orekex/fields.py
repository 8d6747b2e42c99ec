"""Arithmetic in F_p and in the extension F_{p^k} = F_p[x]/<m(x)>.

An element is a coefficient vector over F_p (coefficient of alpha^i at
index i), encoded as the integer ``a0 + a1*p + ... + a_{k-1}*p^{k-1}``.
The fields are tiny (q at most ``MAX_FIELD_ORDER`` = 256), so every
kernel reads lookup tables over this encoding (:class:`FieldTables`),
built by array arithmetic on the digits; the irreducibility test of
:class:`FieldSpec` runs on arrays too.

The powers of the Frobenius map ``a -> a^(p^j)`` form the full
automorphism group of F_{p^k}; the tables hold each of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OreKexError


# Largest field order q = p^k whose lookup tables are built.  The q x q
# tables come from one (q, q, 2k-1) int64 digit product: 3 ms at q = 125,
# 169 or 251, 0.05 s at 2^8 and 0.3 s at 2^9 (2 CPUs, numpy 2.4).
MAX_FIELD_ORDER = 256
# Largest characteristic of a weyl ring: is_prime takes sqrt(p) trial
# divisions, 46,341 at this bound.
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


@dataclass(frozen=True)
class FieldSpec:
    """F_{p^k} presented as F_p[x] modulo a monic irreducible of degree k.

    ``modulus`` lists k+1 coefficients, lowest degree first.  Construction
    refuses an order p^k over ``MAX_FIELD_ORDER``, whose tables are never
    built, before any other work on p.  Inside that limit m is irreducible
    iff no monic polynomial of degree d <= k/2 divides it; the p^d <= 16
    divisors of each degree are divided into m at once on arrays.
    """

    p: int
    k: int
    modulus: tuple[int, ...]

    def __post_init__(self):
        p, k = self.p, self.k
        if k < 1:
            raise OreKexError("extension degree must be >= 1")
        # p >= 2 in a field, so a k past the limit's bit length is over it too
        if k > MAX_FIELD_ORDER.bit_length() or p ** k > MAX_FIELD_ORDER:
            raise OreKexError(f"a field of order {p}^{k} is over the "
                              f"{MAX_FIELD_ORDER}-element limit of the lookup tables")
        if not is_prime(p):
            raise OreKexError(f"characteristic {p} is not prime")
        object.__setattr__(self, "modulus", tuple(c % p for c in self.modulus))
        if len(self.modulus) != k + 1:
            raise OreKexError("modulus must have k+1 coefficients")
        if self.modulus[-1] != 1:
            raise OreKexError("modulus must be monic")
        for d in range(1, k // 2 + 1):
            # every monic divisor of degree d, one row each; m is reduced by
            # all of them from its top degree down
            div = np.ones((p ** d, d + 1), np.int64)
            div[:, :d] = np.arange(p ** d)[:, None] // p ** np.arange(d) % p
            rem = np.tile(np.array(self.modulus, np.int64), (p ** d, 1))
            for top in range(k, d - 1, -1):
                rem[:, top - d:top + 1] = (rem[:, top - d:top + 1] - rem[:, top, None] * div) % p
            if not rem.any(1).all():
                raise OreKexError(f"modulus has a factor of degree {d}: not irreducible")

    @property
    def q(self) -> int:
        return self.p ** self.k


class FieldTables:
    """Dense lookup tables over the index encoding, consumed by the kernels.

    Attributes
    ----------
    add, sub, mul : (q, q)
    digits : (q, k), digits[c] = the base-p digits of index c, lowest first
    neg, inv : (q,)  (inv[0] is a 0 sentinel, never dereferenced)
    frob : (k, q), frob[j][i] = index of element_i ** (p**j)
    twist_digits : (q, k, k, k), [c, t, i, l] = digit i of c * frob^t(alpha^l)

    Every table is built by numpy array arithmetic on the digit vectors.
    The dtype is the narrowest
    unsigned type that holds an index, so the whole table set stays
    cache-resident for the small fields used here.
    """

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        p, k, q = spec.p, spec.k, spec.q
        dtype = np.min_scalar_type(q - 1)
        self.dtype = dtype
        idx = np.arange(q)
        self.digits = digits = idx[:, None] // p ** np.arange(k) % p
        weights = p ** np.arange(k)

        def encode(d):
            return (d % p) @ weights

        self.add = encode(digits[:, None, :] + digits[None, :, :]).astype(dtype)
        self.neg = encode(-digits).astype(dtype)
        self.sub = self.add[:, self.neg].astype(dtype)

        # product of the digit polynomials of every index pair, then reduced
        # from the top degree down by x^k = -(m_0 + ... + m_{k-1} x^{k-1})
        prod = np.zeros((q, q, 2 * k - 1), dtype=np.int64)
        for i in range(k):
            prod[:, :, i:i + k] += digits[:, None, i, None] * digits[None, :, :]
        low = np.array(spec.modulus[:k], dtype=np.int64)
        for d in range(2 * k - 2, k - 1, -1):
            prod[:, :, d - k:d] -= (prod[:, :, d] % p)[:, :, None] * low
        self.mul = mul = encode(prod[:, :, :k]).astype(dtype)

        inv = np.zeros(q, dtype=dtype)
        inv[1:] = np.argmax(mul[1:] == 1, axis=1)
        self.inv = inv

        power = idx  # i -> i^p by p - 1 products with i
        for _ in range(p - 1):
            power = mul[power, idx]
        frob = np.empty((k, q), dtype=dtype)
        frob[0] = idx
        for j in range(1, k):
            frob[j] = power[frob[j - 1]]
        self.frob = frob

        # c * frob^t(x) is F_p-linear in the digits of x; see backend.skew2_mul
        prod = mul[:, frob[:, p ** np.arange(k)]]  # [c, t, l]
        self.twist_digits = digits[prod].transpose(0, 1, 3, 2).astype(dtype)


_TABLE_CACHE: dict[FieldSpec, FieldTables] = {}


def tables_for(spec: FieldSpec) -> FieldTables:
    tab = _TABLE_CACHE.get(spec)
    if tab is None:
        tab = FieldTables(spec)
        _TABLE_CACHE[spec] = tab
    return tab
