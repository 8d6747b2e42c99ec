"""Exact one-sided division (cofactor recovery).

These rings have no Euclidean structure and no one-sided gcds, so only
exact division is meaningful: given h = p*q and one of p and q, recover
the other.  Skew rings divide in :mod:`orekex.backend`.  Weyl rings divide
here, one total-degree layer at a time: with every x_i and d_i of degree 1
(the Bernstein filtration; S. C. Coutinho, *A Primer of Algebraic
D-Modules*, CUP 1995) a product's top-degree part is the commutative
product of the top parts.  A cofactor layer is the remainder's top part
divided by the divisor's in F_p[x, xi], by lex-leading terms from a few
sorted buckets (T. Yan, J. Symbolic Comput. 25(3), 1998); one Weyl
product takes it off the remainder.  One x_i or d_i weighted alone gives a
filtration whose graded ring is still a domain, so each axis's top
exponents add under products and a cofactor's exponents lie in [0,
tops(h) - tops(divisor)]: a step outside that box, or one that makes the
layer too long for its product's step limit, is refused at once.
"""

from __future__ import annotations

import numpy as np

from . import backend, orepoly
from .errors import NotDivisibleError, OreKexError, RingMismatchError
from .monomials import top_degree
from .orepoly import OrePolynomial


def right_cofactor(h: OrePolynomial, p: OrePolynomial) -> OrePolynomial:
    """Return q with p * q = h, the left factor p being known."""
    return _cofactor(h, p, right=True)


def left_cofactor(h: OrePolynomial, q: OrePolynomial) -> OrePolynomial:
    """Return p with p * q = h, the right factor q being known."""
    return _cofactor(h, q, right=False)


def _cofactor(h: OrePolynomial, divisor: OrePolynomial, right: bool) -> OrePolynomial:
    if not isinstance(h, OrePolynomial) or not isinstance(divisor, OrePolynomial):
        raise TypeError("expected OrePolynomial operands")
    if h.ring != divisor.ring:
        raise RingMismatchError("dividend and divisor from different rings")
    if divisor.is_zero():
        raise OreKexError("division by the zero polynomial")
    if h.is_zero():
        return h
    if h.ring.is_skew:
        skew = backend.skew2_right_cofactor if right else backend.skew2_left_cofactor
        return skew(h.ring, h, divisor)
    return _weyl_layers(h, divisor, right)


def _top_part(value: OrePolynomial):
    """(exps, coeffs), in lex order, of a weyl value's terms of top degree."""
    exps, coeffs = value._coo()
    top = top_degree(exps)
    return exps.compress(top, 1), coeffs[top]


def _weyl_layers(h: OrePolynomial, divisor: OrePolynomial, right: bool) -> OrePolynomial:
    ring, p = h.ring, h.ring.p
    room = np.subtract(h.tops(), divisor.tops())
    exps, coeffs = _top_part(divisor)
    lead, inv = exps[:, -1], pow(int(coeffs[-1]), -1, p)  # lex order: the last leads
    remainder, layers = h, []
    while remainder:
        # the layer's remainder is the sum of sorted buckets, sizes falling
        buckets, mus, cs = [_top_part(remainder)], [], []
        while buckets:
            fronts = [tuple(e[:, -1].tolist()) for e, _ in buckets]
            front = max(fronts)
            c = sum(int(k[-1]) for (_, k), f in zip(buckets, fronts) if f == front) * inv % p
            buckets = [(e[:, :-1], k[:-1]) if f == front else (e, k)
                       for (e, k), f in zip(buckets, fronts) if f != front or len(k) > 1]
            if not c:
                continue
            mu = np.array(front) - lead
            if mu.min() < 0 or (mu > room).any():
                raise NotDivisibleError("a cofactor exponent leaves the box the tops allow")
            if (len(mus) + 1) * len(divisor) > orepoly.MAX_WEYL_STEPS:
                raise OreKexError(f"a layer's product needs over {orepoly.MAX_WEYL_STEPS} steps")
            mus.append(mu)
            cs.append(c)
            # the divisor's other top terms times -c x^mu; the lead's product cancels
            step = OrePolynomial._of(ring, exps=exps[:, :-1] + mu[:, None],
                                     coeffs=(p - c) * coeffs[:-1] % p)
            while buckets and len(buckets[-1][1]) <= 2 * len(step):
                step = step._sum([(1, step), (1, OrePolynomial._of(ring, *buckets.pop()))])
            if step:
                buckets.append(step._coo())
        layers.append(OrePolynomial._of_coo(ring, np.array(mus).T, np.array(cs)))
        remainder -= divisor * layers[-1] if right else layers[-1] * divisor
    return h._sum([(1, layer) for layer in layers])
