"""The message encoding against the per-position route it replaced."""

from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from orekex import (EncodingError, FieldSpec, OreKexError, OrePolynomial, decode_bytes,
                    encode_bytes, min_degree_bound, ring_by_name, skew_ring, weyl_ring)
from orekex.encoding import _digits_per_byte
from orekex.rings import RING_ALIASES

from helpers import ascending, decode_bytes_oracle, encode_bytes_oracle, to_text_oracle

RINGS = {**{name: ring_by_name(name) for name in sorted(RING_ALIASES)},
         # three variables, and six digits a byte (base 3)
         "f4-skew3": skew_ring(FieldSpec(2, 2, (1, 1, 1)), (1, 1, 1))}


def _full_lengths(ring, count=2):
    """(n, D) for byte lengths n whose digits fill every monomial of total
    degree <= D exactly: n * w = C(D + s, s)."""
    w, s = _digits_per_byte(ring.n_coeff_values - 1), ring.exp_len
    out, degree = [], 1
    while len(out) < count:
        if comb(degree + s, s) % w == 0:
            out.append((comb(degree + s, s) // w, degree))
        degree += 1
    return out


@pytest.mark.parametrize("name", RINGS)
@settings(max_examples=30, derandomize=True, deadline=None)
@given(data=st.data())
def test_encoding_matches_the_per_position_oracle(name, data):
    ring = RINGS[name]
    n, degree = data.draw(st.sampled_from(_full_lengths(ring)))
    assert min_degree_bound(ring, n) == degree
    # the prefix fills degree D exactly, one byte less, or one more at D + 1
    length = data.draw(st.sampled_from([n - 1, n, n + 1]))
    message = data.draw(st.binary(min_size=length, max_size=length))
    new, old = encode_bytes(ring, message), encode_bytes_oracle(ring, message)
    assert new == old
    assert new.to_text() == to_text_oracle(old)
    assert new.total_degree() == degree + (length > n)
    assert decode_bytes(new) == decode_bytes_oracle(old) == message


def _corrupted(ring, terms, degree):
    """Values near a valid encoding, each of which must fail to decode."""
    base, s = ring.n_coeff_values - 1, ring.exp_len
    w = _digits_per_byte(base)
    origin, past = (0,) * s, [(degree + 1 + j,) + (0,) * (s - 1) for j in range(w)]
    positions = ascending(s, len(terms))
    d1 = [0] * s
    d1[s - ring.n] = 1 << 62
    yield {**{e: c for e, c in terms.items() if e != origin}, past[0]: 1}  # a missing term
    yield {**terms, **{e: 1 for e in past}}  # terms past the prefix, whole groups
    # a first digit group of exactly 256, most significant digit first
    yield {**terms, **{e: 256 // base ** (w - 1 - j) % base + 1
                       for j, e in enumerate(positions[:w])}}
    yield {e: c for e, c in terms.items() if e != positions[-1]}  # a partial digit group
    yield {tuple(d1): 1}  # d1^(2^62)


@pytest.mark.parametrize("name", RINGS)
def test_both_routes_refuse_the_same_corrupted_values(name):
    ring = RINGS[name]
    n, degree = _full_lengths(ring, 1)[0]
    terms = dict(encode_bytes(ring, bytes(range(256))[-n:]).terms)
    for bad in _corrupted(ring, terms, degree):
        value = OrePolynomial(ring, bad)
        with pytest.raises(EncodingError):
            decode_bytes(value)
        with pytest.raises(EncodingError):
            decode_bytes_oracle(value)


def test_one_nonzero_coefficient_value_is_refused():
    """Over F_2 a digit has one value, so no digit count spans a byte: every
    entry point refuses the ring at once instead of looping."""
    ring = weyl_ring(2, 2)
    for call in (lambda: encode_bytes(ring, b"a"), lambda: decode_bytes(ring.x(1)),
                 lambda: min_degree_bound(ring, 1)):
        with pytest.raises(OreKexError, match="one nonzero coefficient value"):
            call()
