"""Screening of insecure key choices in polynomial Weyl rings.

A Weyl-ring element is graded when every term shares the same per-variable
difference (d-exponent minus x-exponent).  Products of graded elements are
recoverable by commutative factoring, so graded private keys are rejected.
The test is one array comparison over the terms.

A key that commutes with the public element is rejected too
(:meth:`OrePolynomial.commutes_with`).  Most keys are accepted without a
product, the Poisson bracket of the two top-degree parts being nonzero at
the all-ones point; a key whose bracket vanishes is settled by the two full
products, which raise OreKexError past the Weyl step limit.

The test is specific to the Weyl relations and is not applied to skew
rings.  In characteristic p the Weyl ring also has a large center (p-th
powers of every variable); whether that induces further weak classes is
an open question, and no screen for it is attempted here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OreKexError
from .orepoly import OrePolynomial


@dataclass(frozen=True)
class GradingVector:
    """The shared difference z_i = (d_i exponent) - (x_i exponent)."""

    z: tuple[int, ...]


def grading_vector(h: OrePolynomial) -> GradingVector | None:
    """Return the grading vector of h, or None when h is not graded."""
    if not h.ring.is_weyl:
        raise OreKexError("grading is defined on weyl rings only")
    if h.is_zero():
        raise OreKexError("the zero polynomial has no grading vector")
    n = h.ring.n
    exps = h._coo()[0]
    diff = exps[n:] - exps[:n]  # exact: both rows lie in [0, 2^63)
    if (diff != diff[:, :1]).any():
        return None
    return GradingVector(tuple(diff[:, 0].tolist()))


REASON_GRADED = "graded"
REASON_COMMUTES = "commutes"


@dataclass(frozen=True)
class ScreenReport:
    accepted: bool
    reason: str | None = None

    def __str__(self):
        return "accept" if self.accepted else f"reject {self.reason}"


def screen_private_key(h: OrePolynomial, public_l: OrePolynomial) -> ScreenReport:
    """Reject h when it is graded or when it commutes with the public element."""
    if not h.ring.is_weyl:
        raise OreKexError("weak-key screening applies to weyl rings only")
    if grading_vector(h) is not None:
        return ScreenReport(False, REASON_GRADED)
    if h.commutes_with(public_l):
        return ScreenReport(False, REASON_COMMUTES)
    return ScreenReport(True)
