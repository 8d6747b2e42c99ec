"""Exact one-sided division (cofactor recovery).

These rings have no Euclidean structure and no one-sided gcds, so only
exact division is meaningful: given h and a known left factor p (resp.
right factor q) with h = p*q, recover the other factor.  Two-variable skew
rings divide in :mod:`orekex.backend` (a Kronecker map and a Newton
inverse on the FFT product).  Every other ring peels leading terms here;
a graded order makes leading monomials multiplicative, so each step is
forced:

  candidate monomial   mu = lm(h) - lm(divisor)   (componentwise)
  candidate coefficient  solves the twisted leading-coefficient equation

A lead not componentwise >= lm(divisor) raises :class:`NotDivisibleError`.
The remainder is one mutable dict whose leads come off a heap of grevlex
keys, so a step costs |divisor| updates, not a scan of the remainder.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from . import backend
from .errors import NotDivisibleError, OreKexError, RingMismatchError
from .fields import tables_for
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
        return OrePolynomial._raw(ring, backend.skew2_right_cofactor(ring, h, p))
    return _peel(h, p, side="right")


def left_cofactor(h: OrePolynomial, q: OrePolynomial) -> OrePolynomial:
    """Return p with p * q = h, the right factor q being known."""
    _common_checks(h, q)
    ring = h.ring
    if h.is_zero():
        return ring.zero()
    if ring.is_skew and ring.n == 2:
        return OrePolynomial._raw(ring, backend.skew2_left_cofactor(ring, h, q))
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
    tab = tables_for(ring.field) if ring.is_skew else None
    lm_div, lc_div = divisor.leading()
    remainder = dict(h.terms)
    # (-sum(e), reversed e) ascends as monomials.grevlex_key descends; an
    # entry whose term has since cancelled is skipped
    heap = [(-sum(e), e[::-1]) for e in remainder]
    heapify(heap)
    cofactor = {}
    while remainder:
        lm_head = heappop(heap)[1][::-1]
        if lm_head not in remainder:
            continue
        mu = tuple(a - b for a, b in zip(lm_head, lm_div))
        if min(mu) < 0:
            raise NotDivisibleError("leading monomial is not a multiple of the divisor's")
        c = cofactor[mu] = _solve_coeff(ring, side, lm_div, lc_div, remainder[lm_head], mu)
        for e, v in _times_term(divisor, mu, c, side).items():
            if e not in remainder:
                heappush(heap, (-sum(e), e[::-1]))
            old = remainder.pop(e, 0)
            if old != v:
                remainder[e] = int(tab.sub[old, v]) if tab is not None else (old - v) % ring.p
        if lm_head in remainder:
            raise OreKexError("a reduction step failed to cancel the leading term")
    return OrePolynomial._raw(ring, cofactor)


def _times_term(divisor: OrePolynomial, mu, c, side: str) -> dict:
    """Terms of divisor * c*d^mu (side "right") or c*d^mu * divisor (side "left").

    In a skew ring the one-term factor only shifts the divisor's exponents
    by mu and twists one side: a*d^e * c*d^mu = a*sigma^t(e)(c)*d^(e+mu) and
    c*d^mu * a*d^e = c*sigma^t(mu)(a)*d^(mu+e).  That is |divisor| table
    lookups, where the product kernel would transform the whole bounding box.
    """
    ring = divisor.ring
    if ring.is_weyl:
        term = OrePolynomial._raw(ring, {mu: c})
        return (divisor * term if side == "right" else term * divisor).terms
    tab = tables_for(ring.field)
    t_mu = ring.twist_power(mu)
    out = {}
    for e, a in divisor.terms.items():
        if side == "right":
            coeff = tab.mul[a, tab.frob[ring.twist_power(e), c]]
        else:
            coeff = tab.mul[c, tab.frob[t_mu, a]]
        out[tuple(x + y for x, y in zip(e, mu))] = int(coeff)
    # a field product of nonzero elements is nonzero and the shift is injective
    return out
