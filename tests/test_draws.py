"""random_polynomial draws on arrays of numpy's 32-bit words, in rings of
every slot count; the term-by-term oracle in helpers draws one scalar at a
time, its exponents by ``rng.choice``.  The values, the generator's state
and its next draw must agree, on every numpy BitGenerator."""

import numpy as np
import pytest

from orekex import (FieldSpec, OreKexError, backend, f125_spec, orepoly, random_polynomial,
                    skew_ring, weyl_ring)
from orekex.orepoly import _lemire
from orekex.rings import RING_ALIASES, ring_by_name

from helpers import random_polynomial_oracle

# every alias; two-slot skew rings over F_4 and with other twists; three
# slots in a skew ring; 32 slots, the most, in a 16-variable weyl ring; a
# weyl ring over F_2, whose one coefficient value is drawn from no word
RINGS = {
    **{name: ring_by_name(name) for name in RING_ALIASES},
    "f4": skew_ring(FieldSpec(2, 2, (1, 1, 1)), (1, 1)),
    "f125-sigma12": skew_ring(f125_spec(), (1, 2)),
    "f125-skew3": skew_ring(f125_spec(), (1, 2, 1)),
    "weyl16-f71": weyl_ring(71, 16),
    "weyl2-f2": weyl_ring(2, 2),
}
WORD = 1 << 32
BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937, np.random.Philox,
                  np.random.SFC64]
# (total degree, terms): degree 0 and 1, one and two terms, and sizes whose
# draws repeat monomials
SIZES = [(0, 1), (0, 2), (0, 6), (1, 1), (1, 2), (1, 9), (2, 2), (3, 30), (7, 12), (12, 100)]


def _same_state(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def _pair(bit_generator, seed, skip):
    """Two generators at the same place; ``skip`` scalar draws first, so an
    odd count leaves half of a 64-bit word buffered."""
    out = []
    for _ in range(2):
        rng = np.random.Generator(bit_generator(seed))
        for _ in range(skip):
            rng.integers(0, 7)
        out.append(rng)
    return out


def _agree(ring, degree, terms, bit_generator, seed, skip=0):
    """The array route and the oracle give the same value, or both refuse,
    and leave equal generators; returns the value (None when refused)."""
    fast, slow = _pair(bit_generator, seed, skip)
    try:
        got = random_polynomial(ring, degree, terms, fast)
    except OreKexError as exc:
        with pytest.raises(OreKexError, match=str(exc).split(" grid")[0]):
            random_polynomial_oracle(ring, degree, terms, slow)
        got = None
    else:
        assert got == random_polynomial_oracle(ring, degree, terms, slow)
    assert _same_state(fast.bit_generator.state, slow.bit_generator.state)
    assert fast.integers(0, 1 << 40) == slow.integers(0, 1 << 40)
    return got


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda b: b.__name__)
@pytest.mark.parametrize("name", RINGS)
def test_array_draws_match_the_scalar_oracle(name, bit_generator):
    ring = RINGS[name]
    repeated = 0
    for seed in range(12):
        for degree, terms in SIZES:
            h = _agree(ring, degree, terms, bit_generator, seed, skip=seed % 3)
            assert h.total_degree() == degree
            repeated += len(h) < terms
    assert repeated > 0  # later draws of a monomial replaced earlier ones


def test_the_exchange_public_element_matches_the_oracle():
    # d_L = 50 draws 1,326 terms: the public L of every exchange session
    for seed in range(4):
        _agree(RINGS["f125-skew2"], 50, 1326, np.random.PCG64, seed, skip=seed)


def test_draws_across_passes_match_the_oracle(monkeypatch):
    """A pass reads at most _DRAW_PASS terms and carries its unread words
    into the next; with passes of 3 terms every boundary case is met, in two
    slots and in four."""
    monkeypatch.setattr(orepoly, "_DRAW_PASS", 3)
    for name in ("f4", "weyl2-f71"):
        for seed in range(30):
            for degree, terms in ((0, 7), (1, 3), (1, 4), (5, 20), (9, 31)):
                _agree(RINGS[name], degree, terms, np.random.PCG64, seed, skip=seed % 2)


@pytest.mark.parametrize("bound", [(1 << 31) + 1, 3 << 30, 5, 124, 1 << 32])
def test_bounded_draws_match_numpy_integers(bound):
    """Lemire's draw from a word, with its rejection, is numpy's: at 2^31 + 1
    about half of all words are rejected, at 3*2^30 a quarter."""
    for seed in range(3):
        scalar, words = _pair(np.random.PCG64, seed, seed)
        expected = [int(scalar.integers(0, bound)) for _ in range(300)]
        values, ok = _lemire(words.integers(0, 1 << 32, 1200, dtype=np.uint32), bound)
        assert values[ok][:300].tolist() == expected
        if bound in ((1 << 31) + 1, 3 << 30):
            assert 0.1 < 1 - ok.mean() < 0.6


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda b: b.__name__)
def test_draws_with_frequent_rejections_match_the_oracle(bit_generator):
    """Degrees near 2^32 make degree and exponent draws reject a quarter to
    a half of their words.  In two slots one term fits a grid; more terms
    spread over a box past the cell limit, which both routes refuse after
    the same draws.  A weyl value has no box, so there every size is made.
    A draw of 400 terms runs out of its first words."""
    skew, weyl = RINGS["f125-skew2"], RINGS["weyl2-f71"]
    for seed in range(6):
        for degree in (3 << 30, 1 << 31, WORD - 1):
            assert len(_agree(skew, degree, 1, bit_generator, seed, skip=seed % 2)) == 1
            for terms in (2, 5, 400):
                assert _agree(skew, degree, terms, bit_generator, seed) is None
        # WORD - 3 is the most in four slots
        for degree, terms in ((3 << 30, 5), ((1 << 31) + 1, 40), (WORD - 3, 3)):
            h = _agree(weyl, degree, terms, bit_generator, seed, skip=seed % 3)
            assert h.total_degree() == degree


@pytest.mark.parametrize("name", ["f125-skew2", "weyl2-f71", "weyl16-f71"])
def test_the_degree_bound_keeps_every_draw_on_one_word(name):
    """total degree + slots - 1 <= 2^32: at the bound a term's last
    exponent draw is on [0, 2^32 - 1], one word; one past it is refused."""
    ring = RINGS[name]
    most = WORD - ring.exp_len + 1
    for seed in range(3):
        for terms in (1, 3):
            h = _agree(ring, most, terms, np.random.PCG64, seed, skip=seed)
            assert h is None or h.total_degree() == most
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(OreKexError, match=f"over {most}"):
        random_polynomial(ring, most + 1, 1, rng)
    assert _same_state(rng.bit_generator.state, state)


def test_oversized_draws_are_refused_before_any_draw():
    for name, degree, terms in (("f125-skew2", 3, backend.MAX_GRID_CELLS + 1),
                                ("f125-skew2", WORD, 1), ("weyl3-f71", WORD - 4, 1)):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(OreKexError):
            random_polynomial(RINGS[name], degree, terms, rng)
        assert _same_state(rng.bit_generator.state, state)
