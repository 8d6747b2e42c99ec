"""Commuting private-key pools.

Both pools are built the same way: fix a public element (P on the left
side, Q on the right side) and take {f(P)} for univariate f over the
prime subfield with nonzero constant term.  Polynomials in the same
element commute with each other, which is all the exchange protocols
need.  The nonzero constant term blocks an eavesdropper from peeling
factors of P (or Q) off a product one degree at a time, and degree zero
is rejected because a constant f(P) is central and therefore useless as
a key.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OreKexError, ProtocolError, ResampleExhaustedError
from .orepoly import OrePolynomial

# Draws a sampler makes before it gives up with ResampleExhaustedError.  A
# sampler stops at its first acceptable draw, so the cap matters only when
# every draw fails.
MAX_ATTEMPTS = 100


@dataclass(frozen=True)
class ConstantPolynomial:
    """f = f0 + f1 X + ... + fm X^m over F_p with f0 != 0 and m >= 1."""

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(int(c) % self.p for c in self.coeffs))
        if len(self.coeffs) < 2:
            raise OreKexError("degree must be at least 1: a constant key is central")
        if self.coeffs[0] == 0:
            raise OreKexError("constant term must be nonzero")
        if self.coeffs[-1] == 0:
            raise OreKexError("leading coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate_at(self, point: OrePolynomial) -> OrePolynomial:
        """f(point) as sum_i f_i * point^i, from the powers that ``point``
        keeps (:meth:`OrePolynomial.power_sum`): every key drawn from one
        pool shares them.  Constants are central, so the side of each
        scaling does not matter."""
        if point.ring.p != self.p:
            raise OreKexError("coefficients do not embed in the ring's constants")
        return point.power_sum(self.coeffs)

    __call__ = evaluate_at

    def to_text(self) -> str:
        return "[" + ",".join(str(c) for c in self.coeffs) + "]"

    def __str__(self):
        return self.to_text()


def random_constant_polynomial(p: int, degree: int, rng) -> ConstantPolynomial:
    if degree < 1:
        raise OreKexError("degree must be at least 1")
    coeffs = [int(rng.integers(1, p))]
    coeffs += [int(rng.integers(0, p)) for _ in range(degree - 1)]
    coeffs.append(int(rng.integers(1, p)))
    return ConstantPolynomial(p, tuple(coeffs))


def sample_private(point: OrePolynomial, public_l: OrePolynomial, degree: int,
                   rng) -> tuple[ConstantPolynomial, OrePolynomial]:
    """Draw f of the given degree until f(point) does not commute with the
    public element; returns (f, f(point)).

    Requires that ``point`` itself does not commute with ``public_l``; a
    commuting f(point) is then rare, so exhausting the retry cap signals a
    degenerate choice of public parameters.
    """
    if point.commutes_with(public_l):
        raise ProtocolError("the pool generator must not commute with the public element")
    for _ in range(MAX_ATTEMPTS):
        f = random_constant_polynomial(point.ring.p, degree, rng)
        value = f(point)
        if not value.commutes_with(public_l):
            return f, value
    raise ResampleExhaustedError(
        f"no usable key after {MAX_ATTEMPTS} draws; public parameters look degenerate"
    )
