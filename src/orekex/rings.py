"""Descriptors for the two supported families of iterated Ore extensions.

A ring here is R[d1; s1, q1]...[dn; sn, qn] with n >= 2 and, per variable,
exactly one of "s_i is the identity" / "q_i is the zero map":

* ``skew``  -- R = F_{p^k}, s_i a nontrivial Frobenius power, q_i = 0.
* ``weyl``  -- R = F_p[x1..xn], s_i = id, q_i = d/dx_i (polynomial Weyl
  algebra; the scalar part of each coefficient lives in F_p and the x-part
  is folded into the monomial key).

The prime subfield F_p is the subring of constants in both cases: it is
fixed by every Frobenius power (c^p = c by Fermat's little theorem) and
annihilated by every derivative, hence central.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OreKexError
from .fields import MAX_CHARACTERISTIC, FieldSpec, is_prime

SKEW = "skew"
WEYL = "weyl"
# Most Ore variables a ring may have: a ring line costs time in n before any
# value is read (the parser's term pattern has 2n fields); built-in rings have at most 3.
MAX_VARIABLES = 16


@dataclass(frozen=True)
class OreRing:
    kind: str
    n: int
    p: int
    field: FieldSpec | None = None
    sigma_powers: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in (SKEW, WEYL):
            raise OreKexError(f"unknown ring kind {self.kind!r}")
        if not 2 <= self.n <= MAX_VARIABLES:
            raise OreKexError(f"a ring has 2 to {MAX_VARIABLES} Ore variables, not {self.n}")
        if self.kind == SKEW:
            if self.field is None or self.sigma_powers is None:
                raise OreKexError("skew ring needs a field and automorphism powers")
            if self.field.p != self.p:
                raise OreKexError("characteristic mismatch")
            if len(self.sigma_powers) != self.n:
                raise OreKexError("need one automorphism per Ore variable")
            object.__setattr__(
                self, "sigma_powers", tuple(j % self.field.k for j in self.sigma_powers)
            )
            if any(j == 0 for j in self.sigma_powers):
                raise OreKexError(
                    "identity twist on a skew variable: per variable exactly one "
                    "of {sigma = id, delta = 0} may hold"
                )
        else:
            if self.p > MAX_CHARACTERISTIC:
                raise OreKexError(f"characteristic {self.p} is over the limit {MAX_CHARACTERISTIC}")
            if not is_prime(self.p):
                raise OreKexError(f"characteristic {self.p} is not prime")
            if self.field is not None or self.sigma_powers is not None:
                raise OreKexError("weyl ring takes only a prime and variable count")

    # -- structural facts ---------------------------------------------------

    @property
    def exp_len(self) -> int:
        """Length of a term's exponent vector (x-block first for weyl)."""
        return self.n if self.kind == SKEW else 2 * self.n

    @property
    def n_coeff_values(self) -> int:
        """Size of the coefficient domain (q for skew, p for weyl)."""
        return self.field.q if self.kind == SKEW else self.p

    @property
    def is_skew(self) -> bool:
        return self.kind == SKEW

    @property
    def is_weyl(self) -> bool:
        return self.kind == WEYL

    # -- element builders (thin wrappers around OrePolynomial) ---------------

    def poly(self, terms: dict):
        from .orepoly import OrePolynomial

        return OrePolynomial(self, terms)

    def zero(self):
        return self.poly({})

    def one(self):
        return self.constant(1)

    def constant(self, c: int):
        """The integer c mod p, an element of the prime subfield; any other
        coefficient is ``poly({(0,) * exp_len: index})``."""
        return self.poly({(0,) * self.exp_len: c % self.p})

    def d(self, i: int):
        """The Ore variable d_i, 1-based."""
        if not 1 <= i <= self.n:
            raise OreKexError(f"Ore variable index {i} out of range")
        return self._unit(i - 1 + (0 if self.kind == SKEW else self.n))

    def x(self, i: int):
        """The commutative variable x_i of a weyl ring, 1-based."""
        if self.kind != WEYL:
            raise OreKexError("x variables only exist in weyl rings")
        if not 1 <= i <= self.n:
            raise OreKexError(f"variable index {i} out of range")
        return self._unit(i - 1)

    def _unit(self, axis: int):
        return self.poly({tuple(int(j == axis) for j in range(self.exp_len)): 1})

    def term_format(self) -> str:
        """One term's text as a ``str.format`` template: a ``{}`` per coefficient
        digit (k in a skew ring, one in a weyl ring), then one per exponent:
        ``[{},{},{}]*d1^{}*d2^{}`` in f125-skew2.  ``OrePolynomial.to_text``
        fills it and ``serial.poly_from_text`` compiles it."""
        if self.kind == SKEW:
            coeff, names = "[" + ",".join(["{}"] * self.field.k) + "]", ["d"]
        else:
            coeff, names = "{}", ["x", "d"]
        return "*".join([coeff] + [f"{v}{i}^{{}}" for v in names
                                   for i in range(1, self.n + 1)])

    def to_text(self) -> str:
        if self.kind == SKEW:
            m = ",".join(str(c) for c in self.field.modulus)
            s = ",".join(str(j) for j in self.sigma_powers)
            return f"ring skew p={self.p} k={self.field.k} m=[{m}] sigma=[{s}]"
        return f"ring weyl p={self.p} n={self.n}"

    def __str__(self):
        return self.to_text()


def skew_ring(field: FieldSpec, sigma_powers) -> OreRing:
    return OreRing(SKEW, len(tuple(sigma_powers)), field.p, field, tuple(sigma_powers))

def weyl_ring(p: int, n: int) -> OreRing:
    return OreRing(WEYL, n, p)


def f125_spec() -> FieldSpec:
    """F_5[x]/<x^3 + 3x + 3>, the built-in 125-element field."""
    return FieldSpec(5, 3, (3, 3, 0, 1))


def _f125_skew2() -> OreRing:
    # sigma_1 = Frobenius^2, sigma_2 = Frobenius^1: the only two nontrivial
    # automorphisms of F_125
    return skew_ring(f125_spec(), (2, 1))


RING_ALIASES = {
    "f125-skew2": _f125_skew2,
    "weyl3-f71": lambda: weyl_ring(71, 3),
    "weyl2-f71": lambda: weyl_ring(71, 2),
    "weyl2-f101": lambda: weyl_ring(101, 2),
}


def ring_by_name(name: str) -> OreRing:
    try:
        return RING_ALIASES[name]()
    except KeyError:
        raise OreKexError(
            f"unknown ring alias {name!r}; known: {', '.join(sorted(RING_ALIASES))}"
        ) from None
