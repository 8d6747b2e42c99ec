"""Exact one-sided division (cofactor recovery).

These rings have no Euclidean structure and no one-sided gcds, so only
exact division is meaningful: given h and a known left factor p (resp.
right factor q) with h = p*q, recover the other factor.  Skew rings, in
any number of variables, divide in :mod:`orekex.backend` (a Kronecker map
and a Newton inverse on the FFT product).  Weyl rings peel leading terms
here; a graded order makes leading monomials multiplicative and leading
coefficients multiply as in F_p, so each step is forced:

  candidate monomial     mu = lm(h) - lm(divisor)   (componentwise)
  candidate coefficient  lc(h) / lc(divisor)

A lead not componentwise >= lm(divisor) raises :class:`NotDivisibleError`.
The remainder is one mutable dict whose leads come off a heap of grevlex
keys, so a step costs |divisor| updates, not a scan of the remainder.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from . import backend
from .errors import NotDivisibleError, OreKexError, RingMismatchError
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
    if ring.is_skew:
        return backend.skew2_right_cofactor(ring, h, p)
    return _peel(h, p, side="right")


def left_cofactor(h: OrePolynomial, q: OrePolynomial) -> OrePolynomial:
    """Return p with p * q = h, the right factor q being known."""
    _common_checks(h, q)
    ring = h.ring
    if h.is_zero():
        return ring.zero()
    if ring.is_skew:
        return backend.skew2_left_cofactor(ring, h, q)
    return _peel(h, q, side="left")


def _peel(h: OrePolynomial, divisor: OrePolynomial, side: str) -> OrePolynomial:
    ring = h.ring
    p = ring.p
    lm_div, lc_div = divisor.leading()
    inv_lc = pow(lc_div, -1, p)
    remainder = dict(h.terms)
    # (-sum(e), reversed e) ascends as the grevlex order descends; an
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
        c = cofactor[mu] = remainder[lm_head] * inv_lc % p
        term = OrePolynomial._of(ring, *backend.terms_to_coo({mu: c}, ring.exp_len))
        step = divisor * term if side == "right" else term * divisor
        for e, v in step.terms.items():
            if e not in remainder:
                heappush(heap, (-sum(e), e[::-1]))
            old = remainder.pop(e, 0)
            if old != v:
                remainder[e] = (old - v) % p
        if lm_head in remainder:
            raise OreKexError("a reduction step failed to cancel the leading term")
    return OrePolynomial._of_coo(ring, *backend.terms_to_coo(cofactor, ring.exp_len))
