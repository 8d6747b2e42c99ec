"""Exact one-sided division (cofactor recovery).

These rings have no Euclidean structure and no one-sided gcds, so only
exact division is meaningful: given h and a known left factor p (resp.
right factor q) with h = p*q, recover the other factor by leading-term
peeling under the graded order.  A graded order makes leading monomials
multiplicative, so each step is forced:

  candidate monomial   mu = lm(h) - lm(divisor)   (componentwise)
  candidate coefficient  solves the twisted leading-coefficient equation

A reduction step that produces a lead not componentwise >= lm(divisor),
or a nonzero final remainder, raises :class:`NotDivisibleError`.

Two-variable skew rings peel on a dense grid in :mod:`orekex.backend`,
bounded by its ``MAX_GRID_CELLS``; every other ring peels one term at a
time here.  A skew divisor times a one-term factor is a shift and a twist
of its terms; a Weyl divisor goes through the ring product.
"""

from __future__ import annotations

from . import backend
from .errors import NotDivisibleError, OreKexError, RingMismatchError
from .fields import tables_for
from .monomials import grevlex_key
from .orepoly import OrePolynomial


def _common_checks(h: OrePolynomial, divisor: OrePolynomial):
    if not isinstance(h, OrePolynomial) or not isinstance(divisor, OrePolynomial):
        raise TypeError("expected OrePolynomial operands")
    if h.ring != divisor.ring:
        raise RingMismatchError("dividend and divisor from different rings")
    if divisor.is_zero():
        raise OreKexError("division by the zero polynomial")


def right_cofactor(h: OrePolynomial, p: OrePolynomial) -> OrePolynomial:
    """Return q with p * q = h, the left factor p being known."""
    _common_checks(h, p)
    ring = h.ring
    if h.is_zero():
        return ring.zero()
    if ring.is_skew and ring.n == 2:
        return OrePolynomial._raw(ring, backend.skew2_right_cofactor(ring, h.terms, p.terms))
    return _peel(h, p, side="right")


def left_cofactor(h: OrePolynomial, q: OrePolynomial) -> OrePolynomial:
    """Return p with p * q = h, the right factor q being known."""
    _common_checks(h, q)
    ring = h.ring
    if h.is_zero():
        return ring.zero()
    if ring.is_skew and ring.n == 2:
        return OrePolynomial._raw(ring, backend.skew2_left_cofactor(ring, h.terms, q.terms))
    return _peel(h, q, side="left")


def _solve_coeff(ring, side, lm_div, lc_div, lc_head, mu):
    if ring.is_weyl:
        return lc_head * pow(lc_div, -1, ring.p) % ring.p
    tab = tables_for(ring.field)
    k = ring.field.k
    if side == "right":
        # lc_div * sigma^(lm_div)(c) = lc_head
        s = ring.twist_power(lm_div)
        return int(tab.frob[(-s) % k, tab.mul[tab.inv[lc_div], lc_head]])
    # c * sigma^mu(lc_div) = lc_head
    t = ring.twist_power(mu)
    return int(tab.mul[lc_head, tab.inv[tab.frob[t, lc_div]]])


def _peel(h: OrePolynomial, divisor: OrePolynomial, side: str) -> OrePolynomial:
    ring = h.ring
    lm_div, lc_div = divisor.leading()
    remainder = h
    cofactor = ring.zero()
    prev_key = None
    while not remainder.is_zero():
        lm_head, lc_head = remainder.leading()
        key = grevlex_key(lm_head)
        assert prev_key is None or key < prev_key, "reduction failed to make progress"
        prev_key = key
        mu = tuple(a - b for a, b in zip(lm_head, lm_div))
        if any(e < 0 for e in mu):
            raise NotDivisibleError("leading monomial is not a multiple of the divisor's")
        c = _solve_coeff(ring, side, lm_div, lc_div, lc_head, mu)
        term = OrePolynomial(ring, {mu: c})
        cofactor = cofactor + term
        remainder = remainder - _times_term(divisor, term, side)
    return cofactor


def _times_term(divisor: OrePolynomial, term: OrePolynomial, side: str) -> OrePolynomial:
    """divisor * term (side "right") or term * divisor (side "left").

    In a skew ring the one-term factor c*d^mu only shifts the divisor's
    exponents by mu and twists one side: a*d^e * c*d^mu = a*sigma^t(e)(c)*d^(e+mu)
    and c*d^mu * a*d^e = c*sigma^t(mu)(a)*d^(mu+e).  That is |divisor| table
    lookups, where the product kernel would transform the whole bounding box.
    """
    ring = divisor.ring
    if ring.is_weyl:
        return divisor * term if side == "right" else term * divisor
    tab = tables_for(ring.field)
    ((mu, c),) = term.terms.items()
    t_mu = ring.twist_power(mu)
    out = {}
    for e, a in divisor.terms.items():
        if side == "right":
            coeff = tab.mul[a, tab.frob[ring.twist_power(e), c]]
        else:
            coeff = tab.mul[c, tab.frob[t_mu, a]]
        out[tuple(x + y for x, y in zip(e, mu))] = int(coeff)
    # a field product of nonzero elements is nonzero and the shift is injective
    return OrePolynomial._raw(ring, out)
