"""Test-local oracles, kept independent of the library code paths they check."""

import re
from dataclasses import dataclass, field
from itertools import product
from operator import mul

from orekex import OreKexError, OrePolynomial, RingMismatchError
from orekex.errors import ParseError
from orekex.fields import tables_for
from orekex.monomials import grevlex_key
from orekex.serial import INT, _quote


def sorted_descending(exponents):
    return sorted(exponents, key=grevlex_key, reverse=True)


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
        fe1 = spec.from_index(c1)
        for e2, c2 in g.terms.items():
            val = spec.from_index(c2)
            for i, times in enumerate(e1):
                phi = spec.frobenius(ring.sigma_powers[i])
                for _ in range(times % spec.k):
                    val = phi(val)
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, spec.zero()) + fe1 * val
    return OrePolynomial(ring, {k: v.index for k, v in out.items() if not v.is_zero()})


def skew_add_oracle(f: OrePolynomial, g: OrePolynomial) -> OrePolynomial:
    """Skew sum by FieldElement addition over the union of the term dicts."""
    spec = f.ring.field
    out = {e: spec.from_index(f.terms.get(e, 0)) + spec.from_index(g.terms.get(e, 0))
           for e in set(f.terms) | set(g.terms)}
    return OrePolynomial(f.ring, {e: v.index for e, v in out.items() if not v.is_zero()})


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
