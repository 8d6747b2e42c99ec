"""The numpy text path against the term-by-term parser and the sorted()
renderer it replaced (tests/helpers.py), on every ring alias and a
three-variable skew ring."""

import tracemalloc

import numpy as np
import pytest

from helpers import poly_from_text_oracle, to_text_oracle
from orekex import OreKexError, ParseError, random_polynomial, ring_by_name
from orekex.orepoly import OrePolynomial
from orekex.rings import RING_ALIASES, skew_ring, f125_spec
from orekex.serial import _grammar, poly_from_text, ring_from_text
from test_serial_cli import GRAMMAR_CASES

TEXT_RINGS = [ring_by_name(name) for name in RING_ALIASES] + [skew_ring(f125_spec(), (1, 2, 1))]
TEXT_IDS = list(RING_ALIASES) + ["f125-skew3"]


def _values(ring, rng):
    """Random values, some of them zero or shifted far from the origin: past
    2^32 their degrees carry between the halves the order sums them in."""
    yield ring.zero()
    for _ in range(40):
        h = random_polynomial(ring, int(rng.integers(0, 9)), int(rng.integers(1, 30)), rng)
        yield h
        shift = [0] * ring.exp_len
        far = int(rng.choice([1, 1000, 2 ** 32 - 3, 2 ** 62]))
        shift[int(rng.integers(0, ring.exp_len))] = far
        yield ring.poly({tuple(a + b for a, b in zip(e, shift)): c for e, c in h.terms.items()})


def _verdict(parse, ring, text):
    try:
        return parse(ring, text)
    except ParseError:
        return ParseError


@pytest.mark.parametrize("ring", TEXT_RINGS, ids=TEXT_IDS)
def test_text_routes_agree(ring):
    rng = np.random.default_rng(71)
    for h in _values(ring, rng):
        text = h.to_text()
        assert text == to_text_oracle(h)
        assert poly_from_text(ring, text) == h == poly_from_text_oracle(ring, text)
        chunks = text.split(" + ")
        rng.shuffle(chunks)
        shuffled = " + ".join(chunks)
        assert poly_from_text(ring, shuffled) == h == poly_from_text_oracle(ring, shuffled)


def test_text_routes_agree_on_the_grammar_cases():
    for ring_line, bad, good in GRAMMAR_CASES:
        ring = ring_from_text(ring_line)
        for text in (bad, good, f"{good} + {good}", f"{good} + {bad}", f"{bad} + {good}"):
            assert _verdict(poly_from_text, ring, text) == _verdict(poly_from_text_oracle, ring,
                                                                    text)
        assert _verdict(poly_from_text, ring, bad) is ParseError
        assert isinstance(_verdict(poly_from_text, ring, good), OrePolynomial)


def test_zero_terms_drop_after_the_repeat_check():
    ring = ring_by_name("f125-skew2")
    assert poly_from_text(ring, "[0,0,0]*d1^5*d2^5") == ring.zero()
    # far zero terms widen no box
    assert poly_from_text(ring, "[1,0,0]*d1^1*d2^0 + [0,0,0]*d1^99999*d2^99999") == ring.d(1)
    for text in ("[0,0,0]*d1^1*d2^0 + [1,0,0]*d1^1*d2^0", "[0,0,0]*d1^1*d2^0 + [0,0,0]*d1^1*d2^0"):
        with pytest.raises(ParseError, match="duplicate monomial"):
            poly_from_text(ring, text)


def test_exponents_must_fit_int64():
    for ring in TEXT_RINGS:
        top = (1 << 63) - 1
        h = ring.poly({(top,) + (0,) * (ring.exp_len - 1): 1})
        assert poly_from_text(ring, h.to_text()) == h
        for big in (str(top + 1), "9" * 19, "1" * 20, "9" * 20, str(1 << 64)):
            with pytest.raises(ParseError, match="too large"):
                poly_from_text(ring, h.to_text().replace(str(top), big))
        with pytest.raises(OreKexError, match="too large"):
            ring.poly({(top + 1,) + (0,) * (ring.exp_len - 1): 1})
        if ring.is_skew:  # a product's top exponent must fit too
            d1 = ring.d(1)
            assert (ring.poly({(top - 1,) + (0,) * (ring.n - 1): 1}) * d1).lo[0] == top
            with pytest.raises(OreKexError, match="too large"):
                h * d1


def test_parse_memory_is_bounded_by_a_slab():
    # an 11,000-term value, about 250 kB of text: the check of the whole line
    # in one match keeps megabytes of backtracking state, a slab's does not
    ring = ring_by_name("f125-skew2")
    grid = np.random.default_rng(72).integers(1, ring.field.q, (110, 100)).astype(np.uint8)
    h = OrePolynomial._of(ring, grid=grid)
    text = h.to_text()
    assert 240_000 < len(text) < 260_000
    bound = 4 << 20

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    whole_line = _grammar(ring.term_format())[1]
    assert peak(lambda: whole_line.fullmatch(text)) > bound
    assert peak(lambda: poly_from_text(ring, text)) < bound
    assert poly_from_text(ring, text) == h
