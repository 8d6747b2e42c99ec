"""Byte-string <-> polynomial message map.

Each byte becomes a fixed number w of base-(B) digits, B being the count of
nonzero coefficient values (q-1 or p-1), and digit d is stored as the
coefficient d+1 on the next monomial in ascending grevlex order.  Every
used coefficient is therefore nonzero, so the occupied positions are the
first w*len monomials (:func:`orekex.monomials.first_monomials`) and the
length is recovered from the term count.  Both directions are array
arithmetic: the encoder makes the value from its exponent and digit arrays,
and the decoder sorts the value's terms once.  A term count that is not a
multiple of w, occupied positions other than that prefix, or a digit group
that exceeds 255 marks a corrupted polynomial.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .errors import EncodingError, OreKexError
from .monomials import first_monomials, grevlex_descending
from .orepoly import OrePolynomial
from .rings import OreRing


def _digits_per_byte(base: int) -> int:
    if base < 2:  # base-1 digits would never span a byte
        raise OreKexError("a ring with one nonzero coefficient value cannot carry bytes")
    w, span = 1, base
    while span < 256:
        w += 1
        span *= base
    return w


def capacity_bytes(ring: OreRing, degree_bound: int) -> int:
    """How many bytes fit into polynomials of the given total degree."""
    slots = ring.exp_len
    monomials = comb(degree_bound + slots, slots)
    return monomials // _digits_per_byte(ring.n_coeff_values - 1)


def min_degree_bound(ring: OreRing, n_bytes: int) -> int:
    needed = n_bytes * _digits_per_byte(ring.n_coeff_values - 1)
    slots = ring.exp_len
    d = 0
    while comb(d + slots, slots) < needed:
        d += 1
    return d


def _positions(ring: OreRing, n_bytes: int) -> np.ndarray:
    """Exponents of the monomials that n_bytes occupy, ascending."""
    count = n_bytes * _digits_per_byte(ring.n_coeff_values - 1)
    return first_monomials(ring.exp_len, min_degree_bound(ring, n_bytes), count)


def encode_bytes(ring: OreRing, data: bytes) -> OrePolynomial:
    """``data`` on the first monomials, dense up to the least degree that
    holds it (:func:`min_degree_bound`)."""
    if not data:
        raise EncodingError("cannot encode an empty message")
    base = ring.n_coeff_values - 1
    w = _digits_per_byte(base)
    # each byte's digits, most significant first
    digits = np.frombuffer(data, np.uint8)[:, None] // base ** np.arange(w - 1, -1, -1) % base
    return OrePolynomial._of_coo(ring, _positions(ring, len(data)), digits.ravel() + 1)


def decode_bytes(poly: OrePolynomial) -> bytes:
    if poly.is_zero():
        raise EncodingError("empty polynomial decodes to nothing")
    ring = poly.ring
    base = ring.n_coeff_values - 1
    w = _digits_per_byte(base)
    count = len(poly)
    if count % w != 0:
        raise EncodingError("term count is not a whole number of digit groups")
    exps, coeffs = poly._coo()
    order = grevlex_descending(exps)[::-1]
    if not np.array_equal(exps[:, order], _positions(ring, count // w)):
        raise EncodingError("gap in the occupied-position prefix")
    digits = coeffs[order].astype(np.int64).reshape(-1, w) - 1
    values = digits @ base ** np.arange(w - 1, -1, -1)
    if values.max() > 255:
        raise EncodingError("digit group out of byte range")
    return values.astype(np.uint8).tobytes()
