"""Test-local oracles, kept independent of the library code paths they check."""

import re
from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations, product
from operator import mul

from orekex import OreKexError, OrePolynomial, RingMismatchError
from orekex.encoding import _digits_per_byte, capacity_bytes
from orekex.errors import EncodingError, ParseError
from orekex.fields import _poly_gcd, _poly_mod, _poly_mul, is_prime, tables_for
from orekex.serial import INT, _quote


# -- the monomial order by sort keys and enumeration ---------------------------
#
# The Python route the library took before one np.lexsort ordered terms.

def grevlex_key(exps: tuple[int, ...]):
    """Sort key: ascending order of keys is ascending grevlex."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


def sorted_descending(exponents):
    return sorted(exponents, key=grevlex_key, reverse=True)


def compositions(total: int, slots: int):
    """All exponent tuples of the given total degree, grevlex-ascending."""
    if slots == 1:
        yield (total,)
        return
    out = []
    for cuts in combinations(range(total + slots - 1), slots - 1):
        prev = -1
        exps = []
        for c in cuts:
            exps.append(c - prev - 1)
            prev = c
        exps.append(total + slots - 2 - prev)
        out.append(tuple(exps))
    out.sort(key=grevlex_key)
    yield from out


def ascending(slots: int, count: int) -> list[tuple[int, ...]]:
    """The first ``count`` exponent tuples in ascending grevlex order."""
    out: list[tuple[int, ...]] = []
    degree = 0
    while len(out) < count:
        for exps in compositions(degree, slots):
            out.append(exps)
            if len(out) == count:
                return out
        degree += 1
    return out


def encode_bytes_oracle(ring, data: bytes, degree_bound: int | None = None) -> OrePolynomial:
    """The per-position encoder the library used before array arithmetic."""
    if not data:
        raise EncodingError("cannot encode an empty message")
    base = ring.n_coeff_values - 1
    w = _digits_per_byte(base)
    if degree_bound is not None and capacity_bytes(ring, degree_bound) < len(data):
        raise EncodingError(
            f"message of {len(data)} bytes exceeds capacity at degree {degree_bound}"
        )
    digits: list[int] = []
    for byte in data:
        group = []
        for _ in range(w):
            group.append(byte % base)
            byte //= base
        digits.extend(reversed(group))
    positions = ascending(ring.exp_len, len(digits))
    return OrePolynomial(ring, {pos: d + 1 for pos, d in zip(positions, digits)})


def decode_bytes_oracle(poly: OrePolynomial) -> bytes:
    """The per-position decoder the library used before one sort of the terms."""
    if poly.is_zero():
        raise EncodingError("empty polynomial decodes to nothing")
    ring = poly.ring
    base = ring.n_coeff_values - 1
    w = _digits_per_byte(base)
    count = len(poly.terms)
    if count % w != 0:
        raise EncodingError("term count is not a whole number of digit groups")
    positions = ascending(ring.exp_len, count)
    digits = []
    for pos in positions:
        c = poly.terms.get(pos)
        if c is None:
            raise EncodingError("gap in the occupied-position prefix")
        digits.append(c - 1)
    out = bytearray()
    for i in range(0, len(digits), w):
        val = 0
        for d in digits[i : i + w]:
            val = val * base + d
        if val > 255:
            raise EncodingError("digit group out of byte range")
        out.append(val)
    return bytes(out)


def poly_from_text_oracle(ring, text: str) -> OrePolynomial:
    """The term-by-term parser the library used before it decoded lines with
    numpy: one regular-expression match and one dict entry per term."""
    text = text.strip()
    if text == "0":
        return ring.zero()
    term = re.compile(re.escape(ring.term_format()).replace(r"\{\}", INT))
    n, p = ring.exp_len, ring.p
    weights = [p ** j for j in range(term.groups - n)]
    terms = {}
    for chunk in text.split(" + "):
        m = term.fullmatch(chunk)
        if m is None:
            raise ParseError(f"bad term {_quote(chunk)}")
        try:
            fields = list(map(int, m.groups()))
        except ValueError:  # past the interpreter's limit on digits per int
            raise ParseError(f"integer too long in term {_quote(chunk)}") from None
        digits, exps = fields[:-n], tuple(fields[-n:])
        if max(digits) >= p:
            raise ParseError(f"coefficient digit not below p={p} in {_quote(chunk)}")
        if exps in terms:
            raise ParseError(f"duplicate monomial {_quote(chunk)}")
        terms[exps] = sum(map(mul, digits, weights))
    return OrePolynomial(ring, {e: c for e, c in terms.items() if c})


def to_text_oracle(poly: OrePolynomial) -> str:
    """The renderer the library used before it ordered terms with numpy: a
    ``sorted`` by grevlex key and one ``str.format`` per term."""
    if not poly:
        return "0"
    ring, terms = poly.ring, poly.terms
    fmt = ring.term_format().format
    digits = (tables_for(ring.field).digits.tolist() if ring.is_skew
              else {c: (c,) for c in terms.values()})
    return " + ".join(fmt(*digits[terms[e]], *e) for e in sorted_descending(terms))


def naive_remainder(a, modulus, p):
    """Long division by a monic modulus over F_p[x]; k remainder digits."""
    res = [c % p for c in a]
    k = len(modulus) - 1
    for i in range(len(res) - 1, k - 1, -1):
        c = res[i]
        if c:
            for j in range(k + 1):
                res[i - k + j] = (res[i - k + j] - c * modulus[j]) % p
    res = res[:k]
    return tuple(res + [0] * (k - len(res)))


def naive_mulmod(a, b, modulus, p):
    """Schoolbook multiply-and-reduce over F_p[x]; lists lowest degree first."""
    res = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            res[i + j] += x * y
    return naive_remainder(res, modulus, p)


def naive_is_irreducible(modulus, p):
    """Trial division of a monic modulus of degree k by every monic
    polynomial of degree 1..k//2."""
    k = len(modulus) - 1
    for d in range(1, k // 2 + 1):
        for low in product(range(p), repeat=d):
            if not any(naive_remainder(modulus, list(low) + [1], p)):
                return False
    return True


def naive_pow(a, n, modulus, p):
    k = len(modulus) - 1
    acc = tuple([1] + [0] * (k - 1))
    for _ in range(n):
        acc = naive_mulmod(list(acc), list(a), modulus, p)
    return acc


# -- field elements by coefficient-vector arithmetic ---------------------------
#
# The element route the library kept beside its lookup tables until every
# kernel read the tables.  ``spec`` is a FieldSpec, or a Presentation whose
# modulus is not known to be irreducible.

class ZeroInverseError(OreKexError):
    """Multiplicative inverse of zero was requested."""


@dataclass(frozen=True)
class Presentation:
    """F_p[x]/<m> for any monic m of degree k, unchecked."""

    p: int
    k: int
    modulus: tuple[int, ...]

    @property
    def q(self) -> int:
        return self.p ** self.k


def field_zero(spec) -> "FieldElement":
    return FieldElement(spec, (0,) * spec.k)


def field_one(spec) -> "FieldElement":
    return FieldElement(spec, (1,) + (0,) * (spec.k - 1))


def alpha(spec) -> "FieldElement":
    """The residue class of x, a generator of the extension over F_p."""
    if spec.k < 2:
        raise OreKexError("prime field has no extension generator")
    return FieldElement(spec, (0, 1) + (0,) * (spec.k - 2))


def element(spec, coeffs) -> "FieldElement":
    if isinstance(coeffs, int):
        return FieldElement(spec, (coeffs % spec.p,) + (0,) * (spec.k - 1))
    return FieldElement(spec, tuple(int(c) % spec.p for c in coeffs))


def from_index(spec, idx: int) -> "FieldElement":
    if not 0 <= idx < spec.q:
        raise OreKexError(f"element index {idx} out of range for q={spec.q}")
    coeffs = []
    for _ in range(spec.k):
        coeffs.append(idx % spec.p)
        idx //= spec.p
    return FieldElement(spec, tuple(coeffs))


def elements(spec):
    """Iterate over all q elements (index order)."""
    for idx in range(spec.q):
        yield from_index(spec, idx)


def frobenius(spec, power: int) -> "Automorphism":
    return Automorphism(spec, power % spec.k)


@dataclass(frozen=True)
class FieldElement:
    spec: object
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
        """a^(q-2), which is a^-1 for a != 0 because a^(q-1) = 1."""
        if self.is_zero():
            raise ZeroInverseError("zero has no multiplicative inverse")
        return self ** (self.spec.q - 2)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n: int) -> "FieldElement":
        if n < 0:
            return self.inverse() ** (-n)
        acc = field_one(self.spec)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def _coerce(self, other):
        if isinstance(other, int):
            return element(self.spec, other)
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

    spec: object
    power: int

    def __post_init__(self):
        if not 0 <= self.power < self.spec.k:
            raise OreKexError("Frobenius power must lie in [0, k)")

    def __call__(self, a: FieldElement) -> FieldElement:
        if a.spec != self.spec:
            raise RingMismatchError("element does not belong to this field")
        return a ** (self.spec.p ** self.power)


def rabin_is_irreducible(p: int, k: int, modulus) -> bool:
    """Rabin's test by FieldElement powers of x, the route FieldSpec took
    before it worked on coefficient lists."""
    if k == 1:
        return True
    x = alpha(Presentation(p, k, tuple(c % p for c in modulus)))
    if (x ** p ** k).coeffs != x.coeffs:
        return False
    for r in range(2, k + 1):
        if k % r == 0 and is_prime(r):
            h = x ** p ** (k // r) - x
            if _poly_gcd(list(h.coeffs), list(x.spec.modulus), p) != [1]:
                return False
    return True


def field_constant(ring, c: FieldElement) -> OrePolynomial:
    """The constant c of a skew ring, whose coefficient index it has."""
    if ring.kind != "skew":
        raise OreKexError("field-element constants only exist in skew rings")
    if c.spec != ring.field:
        raise OreKexError("constant from a different field")
    return ring.poly({(0,) * ring.exp_len: c.index})


@dataclass(frozen=True)
class CommPolynomial:
    """Commutative polynomial over F_p: the coefficient ring of the Weyl
    algebra, with the formal partial derivatives the Ore variables apply.
    In characteristic p, d/dx_i of x_i^p vanishes, so keep degrees below p."""

    p: int
    n_vars: int
    terms: dict[tuple[int, ...], int] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for exps, c in self.terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.n_vars:
                raise OreKexError("exponent vector has wrong length")
            if any(e < 0 for e in exps):
                raise OreKexError("negative exponent")
            c = int(c) % self.p
            if c:
                clean[exps] = c
        object.__setattr__(self, "terms", clean)

    @classmethod
    def zero(cls, p: int, n_vars: int) -> "CommPolynomial":
        return cls(p, n_vars, {})

    @classmethod
    def constant(cls, p: int, n_vars: int, c: int) -> "CommPolynomial":
        return cls(p, n_vars, {(0,) * n_vars: c})

    @classmethod
    def variable(cls, p: int, n_vars: int, i: int) -> "CommPolynomial":
        """x_i for 1 <= i <= n_vars."""
        if not 1 <= i <= n_vars:
            raise OreKexError(f"variable index {i} out of range")
        exps = [0] * n_vars
        exps[i - 1] = 1
        return cls(p, n_vars, {tuple(exps): 1})

    def _check(self, other: "CommPolynomial"):
        if not isinstance(other, CommPolynomial):
            raise TypeError("expected CommPolynomial")
        if (other.p, other.n_vars) != (self.p, self.n_vars):
            raise RingMismatchError("mismatched coefficient-ring parameters")

    def _coerce(self, other):
        if isinstance(other, int):
            return CommPolynomial.constant(self.p, self.n_vars, other)
        return other

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = out.get(exps, 0) + c
        return CommPolynomial(self.p, self.n_vars, out)

    def __sub__(self, other):
        other = self._coerce(other)
        self._check(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = out.get(exps, 0) - c
        return CommPolynomial(self.p, self.n_vars, out)

    def __neg__(self):
        return CommPolynomial(self.p, self.n_vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        self._check(other)
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                out[exps] = out.get(exps, 0) + c1 * c2
        return CommPolynomial(self.p, self.n_vars, out)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __pow__(self, n: int):
        if n < 0:
            raise OreKexError("negative power")
        acc = CommPolynomial.constant(self.p, self.n_vars, 1)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def partial(self, i: int) -> "CommPolynomial":
        """Formal partial derivative with respect to x_i (1-based index)."""
        if not 1 <= i <= self.n_vars:
            raise OreKexError(f"variable index {i} out of range")
        out: dict[tuple[int, ...], int] = {}
        for exps, c in self.terms.items():
            e = exps[i - 1]
            if e == 0:
                continue
            lowered = list(exps)
            lowered[i - 1] = e - 1
            key = tuple(lowered)
            out[key] = out.get(key, 0) + c * e
        return CommPolynomial(self.p, self.n_vars, out)

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self):
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def __hash__(self):
        return hash((self.p, self.n_vars, frozenset(self.terms.items())))

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted_descending(self.terms):
            mono = "*".join(f"x{i+1}^{e}" for i, e in enumerate(exps))
            parts.append(f"{self.terms[exps]}*{mono}")
        return " + ".join(parts)

    def __str__(self):
        return self.to_text()


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


def degree_profile(h: OrePolynomial) -> DegreeProfile:
    if h.is_zero():
        return DegreeProfile((0,) * h.ring.n, 0, is_zero=True)
    return DegreeProfile(h.d_degrees(), h.total_degree())


def skew_mul_oracle(f: OrePolynomial, g: OrePolynomial) -> OrePolynomial:
    """Skew product via FieldElement arithmetic and one-automorphism-at-a-time
    twisting; a separate route from the table kernels.  Frobenius^k is the
    identity on F_{p^k}, so d_i^e twists by e mod k steps of sigma_i."""
    ring = f.ring
    spec = ring.field
    out = {}
    for e1, c1 in f.terms.items():
        fe1 = from_index(spec, c1)
        for e2, c2 in g.terms.items():
            val = from_index(spec, c2)
            for i, times in enumerate(e1):
                phi = frobenius(spec, ring.sigma_powers[i])
                for _ in range(times % spec.k):
                    val = phi(val)
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, field_zero(spec)) + fe1 * val
    return OrePolynomial(ring, {k: v.index for k, v in out.items() if not v.is_zero()})


def skew_add_oracle(f: OrePolynomial, g: OrePolynomial) -> OrePolynomial:
    """Skew sum by FieldElement addition over the union of the term dicts."""
    spec = f.ring.field
    out = {e: from_index(spec, f.terms.get(e, 0)) + from_index(spec, g.terms.get(e, 0))
           for e in set(f.terms) | set(g.terms)}
    return OrePolynomial(f.ring, {e: v.index for e, v in out.items() if not v.is_zero()})


def weyl_add_oracle(parts) -> OrePolynomial:
    """sum c*h over pairs (c, h) of a scalar of F_p and a weyl value, term
    by term on dicts (the library's sum before weyl values held arrays)."""
    ring = parts[0][1].ring
    out = {}
    for c, h in parts:
        for e, v in h.terms.items():
            out[e] = (out.get(e, 0) + c * v) % ring.p
    return OrePolynomial(ring, {e: v for e, v in out.items() if v})


def _operator_of(h: OrePolynomial):
    """Weyl polynomial as {d-exponents: CommPolynomial coefficient}."""
    n, p = h.ring.n, h.ring.p
    out = {}
    for exps, c in h.terms.items():
        xkey, dkey = exps[:n], exps[n:]
        cur = out.get(dkey, CommPolynomial.zero(p, n))
        out[dkey] = cur + CommPolynomial(p, n, {xkey: c})
    return out


def weyl_mul_oracle(f: OrePolynomial, g: OrePolynomial) -> OrePolynomial:
    """Weyl product by moving one d_i at a time across coefficients with
    d_i * c = c * d_i + dc/dx_i; independent of the closed-form expansion."""
    ring = f.ring
    n, p = ring.n, ring.p
    zero = CommPolynomial.zero(p, n)
    out = {}
    for wkey, a_coef in _operator_of(f).items():
        for vkey, b_coef in _operator_of(g).items():
            parts = {(0,) * n: b_coef}
            for i in range(n):
                for _ in range(wkey[i]):
                    moved = {}
                    for extra, cp in parts.items():
                        raised = list(extra)
                        raised[i] += 1
                        raised = tuple(raised)
                        moved[raised] = moved.get(raised, zero) + cp
                        der = cp.partial(i + 1)
                        if not der.is_zero():
                            moved[extra] = moved.get(extra, zero) + der
                    parts = moved
            for extra, cp in parts.items():
                dkey = tuple(extra[j] + vkey[j] for j in range(n))
                contribution = a_coef * cp
                out[dkey] = out.get(dkey, zero) + contribution
    terms = {}
    for dkey, cp in out.items():
        for xkey, c in cp.terms.items():
            terms[xkey + dkey] = c
    return OrePolynomial(ring, terms)


def all_polynomials(ring, max_total_degree, coeff_values):
    """Every polynomial with total degree <= bound; tiny rings only."""
    monos = [
        e
        for e in product(range(max_total_degree + 1), repeat=ring.exp_len)
        if sum(e) <= max_total_degree
    ]
    for assignment in product(range(coeff_values), repeat=len(monos)):
        terms = {m: c for m, c in zip(monos, assignment) if c}
        yield OrePolynomial(ring, terms)


# -- random draws term by term ----------------------------------------------------
#
# The scalar loop random_polynomial ran before it drew on arrays of words.

def random_composition_oracle(total: int, slots: int, rng) -> tuple[int, ...]:
    """The exponents of one term of degree ``total``: the sorted cuts of
    ``choice(total + slots - 1, size=slots - 1, replace=False)`` split
    total + slots - 1 places into slot runs; degree 0 draws nothing."""
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


def random_polynomial_oracle(ring, total_degree: int, n_terms: int, rng) -> OrePolynomial:
    """random_polynomial by one scalar draw at a time: the forced term's
    coefficient, then its exponents; then for every other term its degree,
    its coefficient and its exponents, drawn only when the degree is
    positive, a repeated monomial overwriting."""
    s, hi = ring.exp_len, ring.n_coeff_values
    terms = {}
    terms[random_composition_oracle(total_degree, s, rng)] = int(rng.integers(1, hi))
    for _ in range(n_terms - 1):
        d = int(rng.integers(0, total_degree + 1))
        terms[random_composition_oracle(d, s, rng)] = int(rng.integers(1, hi))
    return ring.poly(terms)
