"""Arithmetic in F_p and in the extension F_{p^k} = F_p[x]/<m(x)>.

An element is a coefficient vector over F_p (coefficient of alpha^i at
index i), encoded as the integer ``a0 + a1*p + ... + a_{k-1}*p^{k-1}``.
The fields used here are tiny (q up to a few hundred), so every kernel
reads lookup tables over this encoding (:class:`FieldTables`), built by
array arithmetic on the digits.  Only the irreducibility test works on
coefficient lists, in characteristics up to 2^31.

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


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd over F_p[x] by Euclid, each divisor scaled monic for _poly_mod."""
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        lead_inv = pow(b[-1], -1, p)
        b = [c * lead_inv % p for c in b]
        a, b = b, _poly_mod(a, b, p)
    return a


def _x_power(e: int, m: list[int], p: int) -> list[int]:
    """x^e mod the monic m of degree >= 2, by square-and-multiply."""
    acc, base = [1], [0, 1]
    while e:
        if e & 1:
            acc = _poly_mod(_poly_mul(acc, base, p), m, p)
        base = _poly_mod(_poly_mul(base, base, p), m, p)
        e >>= 1
    return acc


@dataclass(frozen=True)
class FieldSpec:
    """F_{p^k} presented as F_p[x] modulo a monic irreducible of degree k.

    ``modulus`` lists k+1 coefficients, lowest degree first.  Construction
    runs Rabin's irreducibility test for any k: m is irreducible iff
    x^(p^k) = x (mod m) and gcd(x^(p^(k/r)) - x, m) = 1 for every prime
    r | k (M. O. Rabin, SIAM J. Comput. 9(2), 1980).  That takes O(k log p)
    products mod m.
    """

    p: int
    k: int
    modulus: tuple[int, ...]

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
        if self.k == 1:
            return  # every monic linear polynomial is irreducible
        p, m = self.p, list(self.modulus)
        if _x_power(p ** self.k, m, p) != [0, 1]:
            raise OreKexError("modulus does not divide x^(p^k) - x: not irreducible")
        for r in range(2, self.k + 1):
            if self.k % r == 0 and is_prime(r):
                h = _x_power(p ** (self.k // r), m, p) + [0, 0]
                h[1] = (h[1] - 1) % p
                if _poly_gcd(h, m, p) != [1]:
                    raise OreKexError(f"modulus has a factor of degree dividing "
                                      f"{self.k // r}: not irreducible")

    @property
    def q(self) -> int:
        return self.p ** self.k

    def to_text(self) -> str:
        m = ",".join(str(c) for c in self.modulus)
        return f"field p={self.p} k={self.k} m=[{m}]"


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
        if spec.q > MAX_FIELD_ORDER:
            raise OreKexError(f"a field of order {spec.q} is over the "
                              f"{MAX_FIELD_ORDER}-element limit of the lookup tables")
        tab = FieldTables(spec)
        _TABLE_CACHE[spec] = tab
    return tab
