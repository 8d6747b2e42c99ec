import resource
import time
import tracemalloc
from itertools import product
from math import comb, factorial, prod

import numpy as np
import pytest

from orekex import (FieldSpec, OreKexError, OrePolynomial, RingMismatchError,
                    backend, orepoly, f125_spec, left_cofactor, random_polynomial, right_cofactor,
                    ring_by_name, skew_ring, weyl_ring)
from orekex.fields import tables_for
from orekex.monomials import grevlex_descending

from orekex.rings import RING_ALIASES
from orekex.serial import poly_from_text

from helpers import (alpha, degree_profile, field_constant, field_zero, frobenius, from_index,
                     grevlex_key, skew_add_oracle, skew_mul_oracle, to_text_oracle,
                     weyl_add_oracle, weyl_mul_oracle)

SKEW = ring_by_name("f125-skew2")
WEYL = ring_by_name("weyl2-f71")
SKEW4 = skew_ring(f125_spec(), (2, 1, 1, 2))


def _rand(ring, rng, degree=4, terms=5):
    return random_polynomial(ring, int(rng.integers(0, degree + 1)) , int(rng.integers(1, terms + 1)), rng)


def test_ring_descriptor_invariants():
    with pytest.raises(OreKexError):
        skew_ring(f125_spec(), (1,))  # n must exceed 1
    with pytest.raises(OreKexError):
        skew_ring(f125_spec(), (1, 0))  # identity twist rejected
    with pytest.raises(OreKexError):
        weyl_ring(10, 2)  # characteristic must be prime


def test_addition_examples():
    d1 = SKEW.d(1)
    a = random_polynomial(SKEW, 3, 4, np.random.default_rng(0))
    assert a + SKEW.zero() == a
    assert d1 + (-d1) == SKEW.zero()
    assert (d1 + 1) + (d1 + 4) == 2 * d1  # constants live in F_5


def test_skew_twist_exhaustive():
    # d_i * c = sigma_i(c) * d_i over every element of F_125
    spec = SKEW.field
    for i, power in enumerate(SKEW.sigma_powers, start=1):
        d = SKEW.d(i)
        phi = frobenius(spec, power)
        for idx in range(125):
            c = field_constant(SKEW, from_index(spec, idx))
            assert d * c == field_constant(SKEW, phi(from_index(spec, idx))) * d


def test_skew_monomial_twist_power():
    # (c d1^a)(e d1^b) = c sigma1^a(e) d1^(a+b)
    rng = np.random.default_rng(8)
    spec = SKEW.field
    d1 = SKEW.d(1)
    for _ in range(50):
        a, b = int(rng.integers(0, 11)), int(rng.integers(0, 11))
        c = from_index(spec, int(rng.integers(1, 125)))
        e = from_index(spec, int(rng.integers(1, 125)))
        twisted = e
        for _ in range(a * SKEW.sigma_powers[0] % 3):
            twisted = frobenius(spec, 1)(twisted)
        lhs = (field_constant(SKEW, c) * d1 ** a) * (field_constant(SKEW, e) * d1 ** b)
        rhs = field_constant(SKEW, c * twisted) * d1 ** (a + b)
        assert lhs == rhs
    # d1^2 c = sigma1^2(c) d1^2 spot case
    c = alpha(spec)
    assert SKEW.d(1) ** 2 * field_constant(SKEW, c) == \
        field_constant(SKEW, frobenius(spec, 2 * SKEW.sigma_powers[0] % 3)(c)) * SKEW.d(1) ** 2


def test_weyl_relations():
    x1, x2 = WEYL.x(1), WEYL.x(2)
    d1, d2 = WEYL.d(1), WEYL.d(2)
    assert d1 * x1 == x1 * d1 + 1
    assert d1.commutes_with(x2)
    assert d1.commutes_with(d2)
    assert x1.commutes_with(x2)
    assert not d1.commutes_with(x1)


def test_two_factorizations_of_one_operator():
    for p in (71, 101):
        ring = weyl_ring(p, 2)
        d1, d2, x1 = ring.d(1), ring.d(2), ring.x(1)
        lhs = (d1 + 1) ** 2 * (d1 + x1 * d2)
        rhs = (x1 * d1 * d2 + d1 ** 2 + x1 * d2 + d1 + 2 * d2) * (d1 + 1)
        assert lhs == rhs


def test_mul_against_independent_oracles():
    rng = np.random.default_rng(12)
    for _ in range(30):
        f = _rand(SKEW, rng)
        g = _rand(SKEW, rng)
        assert f * g == skew_mul_oracle(f, g)
    for _ in range(30):
        f = _rand(WEYL, rng)
        g = _rand(WEYL, rng)
        assert f * g == weyl_mul_oracle(f, g)


def test_skew_mul_matches_oracle_in_more_variables():
    # the FFT kernel convolves over as many axes as the ring has variables
    rng = np.random.default_rng(13)
    for ring in (skew_ring(f125_spec(), (1, 2, 1)), SKEW4,
                 skew_ring(FieldSpec(2, 2, (1, 1, 1)), (1, 1, 1))):
        cases = [(_rand(ring, rng), _rand(ring, rng)) for _ in range(20)]
        # single-axis monomials: grids of length 1 on every axis but one
        for i in range(1, ring.n + 1):
            mono = ring.d(i) ** 3 * 2
            cases += [(mono, _rand(ring, rng)), (_rand(ring, rng), ring.d(i) ** 5),
                      (mono, ring.d(i) ** 5)]
        for f, g in cases:
            assert f * g == skew_mul_oracle(f, g)


@pytest.mark.parametrize("spec", [f125_spec(), FieldSpec(13, 2, (11, 0, 1))], ids=["F125", "F169"])
def test_product_at_the_top_of_the_exactness_bound(spec):
    # every cell holds q - 1, whose digits are all p - 1, so output cells sum
    # about k(p-1)^2 * min(|f|, |g|) digit products (48 * 2000 in F_125, 288 *
    # 2000 in F_169, the largest k(p-1)^2 of any field with q <= 256 and k > 1)
    ring = skew_ring(spec, (1, 1))
    c, k, lf, lg = spec.q - 1, spec.k, 3000, 2000
    f = ring.poly({(e, 0): c for e in range(lf)})
    g = ring.poly({(e, 0): c for e in range(lg)})
    # cell t of f*g sums c * F^e(c) over e in [t - lg + 1, t] within [0, lf),
    # and F^e depends on e mod k only: the oracle gives the k distinct terms
    term = [from_index(spec, skew_mul_oracle(ring.poly({(r, 0): c}), ring.poly({(0, 0): c})).terms[(r, 0)])
            for r in range(k)]
    want = {}
    for t in range(lf + lg - 1):
        lo, hi = max(0, t - lg + 1), min(t, lf - 1)
        cell = field_zero(spec)
        for r in range(k):
            cell = cell + term[r] * len(range(lo + (r - lo) % k, hi + 1, k))
        if not cell.is_zero():
            want[(t, 0)] = cell.index
    assert f * g == ring.poly(want)


def _all_max_product(ring, f_shape, g_shape) -> np.ndarray:
    """The grid of f*g for f and g filling the boxes ``f_shape`` and
    ``g_shape`` with q - 1, whose digits are all p - 1.  Cell t sums
    c * F^(sigma.a)(c) over the cells a of f's box with t - a in g's, and
    F^(sigma.a) depends on sigma.a mod k only: cell t is sum_r N_r(t) *
    c F^r(c), N_r(t) counting those a with sigma.a = r (mod k).  The oracle
    gives the k values c F^r(c); the counts come per axis, in closed form."""
    spec, n = ring.field, ring.n
    p, k, c = spec.p, spec.k, spec.q - 1
    assert ring.sigma_powers[0] == 1  # d1^r twists by F^r
    mono = [ring.poly({(r,) + (0,) * (n - 1): c}) for r in range(k)]
    term = [skew_mul_oracle(mono[r], mono[0]).terms[(r,) + (0,) * (n - 1)] for r in range(k)]
    term_digits = np.array([[t // p ** i % p for i in range(k)] for t in term])  # [r, i]
    counts = np.eye(k, dtype=np.int64)[0]  # the empty sum: one way, residue 0
    m = np.arange(k)
    for a, b, s in zip(f_shape, g_shape, ring.sigma_powers):
        t = np.arange(a + b - 1)[:, None]
        lo, hi = np.maximum(0, t - b + 1), np.minimum(t, a - 1)
        per_axis = (hi - m) // k - (lo - 1 - m) // k  # [t, m]: a_i in [lo, hi], = m mod k
        shift = (m[None, :, None] + s * m[:, None, None]) % k == m  # [m, r, r']
        counts = np.einsum("...r,tm,mrs->...ts", counts, per_axis, shift)
    digits = (counts % p) @ term_digits % p
    return digits @ p ** np.arange(k)


def _full(ring, shape):
    # a grid-held value built directly: a 600,000-term dict takes seconds
    return OrePolynomial._of(
        ring, grid=np.full(shape, ring.field.q - 1, dtype=tables_for(ring.field).dtype))


_F125 = skew_ring(f125_spec(), (1, 1))
_F125_3 = skew_ring(f125_spec(), (1, 2, 1))
_F169 = skew_ring(FieldSpec(13, 2, (11, 0, 1)), (1, 1))
_F4 = skew_ring(FieldSpec(2, 2, (1, 1, 1)), (1, 1))


@pytest.mark.parametrize("ring, f_shape, g_shape, slots", [
    # s digits share a transform while B^s <= 2^40, B = 2^bitlen(k(p-1)^2 *
    # the smaller operand's cells): in F_125 48*170 < 2^13 <= 48*171 and
    # 48*21845 < 2^20 <= 48*21846
    pytest.param(_F125, (5000, 1), (170, 1), 3, id="F125-3"),
    pytest.param(_F125, (5000, 1), (171, 1), 2, id="F125-2-low"),
    pytest.param(_F125, (30000, 1), (21845, 1), 2, id="F125-2-high"),
    pytest.param(_F125, (30000, 1), (21846, 1), 1, id="F125-1"),
    # 288*3640 < 2^20 <= 288*3641
    pytest.param(_F169, (5000, 1), (3640, 1), 2, id="F169-2"),
    pytest.param(_F169, (5000, 1), (3641, 1), 1, id="F169-1"),
    # 2*524287 < 2^20 <= 2*524288
    pytest.param(_F4, (600000, 1), (524287, 1), 2, id="F4-2"),
    pytest.param(_F4, (600000, 1), (524288, 1), 1, id="F4-1"),
    pytest.param(_F125_3, (9, 10, 11), (2, 5, 17), 3, id="three-variable-3"),
    pytest.param(_F125_3, (9, 10, 11), (3, 3, 19), 2, id="three-variable-2-low"),
    pytest.param(_F125_3, (6, 18, 260), (5, 17, 257), 2, id="three-variable-2-high"),
    pytest.param(_F125_3, (6, 18, 260), (6, 11, 331), 1, id="three-variable-1"),
])
def test_packed_products_at_the_slot_thresholds(ring, f_shape, g_shape, slots):
    # maximal-digit operands on both sides of each threshold, both orders
    assert backend._packing(tables_for(ring.field), prod(g_shape))[1] == slots
    f, g = _full(ring, f_shape), _full(ring, g_shape)
    assert np.array_equal((f * g).grid, _all_max_product(ring, f_shape, g_shape))
    assert np.array_equal((g * f).grid, _all_max_product(ring, g_shape, f_shape))


@pytest.mark.parametrize("make", [
    # (d1^100 + d2^100)(d3^100 + d4^100) needs a 101^4-cell grid
    pytest.param(lambda: SKEW4.poly({(100, 0, 0, 0): 1, (0, 100, 0, 0): 2})
                 * SKEW4.poly({(0, 0, 100, 0): 3, (0, 0, 0, 100): 4}), id="mul4"),
    pytest.param(lambda: SKEW.poly({(2 ** 70, 0): 1}) * SKEW.d(1), id="mul-huge-exponent"),
    # exponents inside int64: a value spanning d^0..d1^(10^12) is refused
    # where it is made, before any padding to a transform length; one
    # product of far one-cell values whose exponent passes int64
    pytest.param(lambda: SKEW.poly({(10 ** 12, 0): 1, (0, 1): 1}) * SKEW.d(1),
                 id="mul-int64-exponent"),
    pytest.param(lambda: SKEW4.poly({(2 ** 62, 0, 0, 0): 1}) * SKEW4.poly({(2 ** 62, 0, 1, 0): 1}),
                 id="mul4-int64-exponent"),
    # d1^3000 + d2^3000 spans a 3001^2 box: refused where it is made, before
    # division by d1 + d2, whose exponent ranges it fits
    pytest.param(lambda: right_cofactor(SKEW.poly({(3000, 0): 1, (0, 3000): 1}),
                                        SKEW.d(1) + SKEW.d(2)), id="rdiv"),
    pytest.param(lambda: left_cofactor(SKEW.poly({(3000, 0): 1, (0, 3000): 1}),
                                       SKEW.d(1) + SKEW.d(2)), id="ldiv"),
])
def test_oversized_grids_are_refused_before_allocation(make):
    tracemalloc.start()
    try:
        with pytest.raises(OreKexError, match="limit|too large"):
            make()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < backend.MAX_GRID_CELLS  # far below one byte per refused cell


# -- the two product routes: direct up to DIRECT_PAIRS operand-cell pairs, then
# transforms; forcing each on the same operands must give the oracle's value

ROUTE_RINGS = [pytest.param(SKEW, id="f125-skew2"),
               pytest.param(skew_ring(f125_spec(), (1, 2)), id="sigma12"),
               pytest.param(_F4, id="f4"),
               pytest.param(_F125_3, id="three-variable"),
               pytest.param(SKEW4, id="four-variable")]


@pytest.fixture
def routes(monkeypatch):
    """Runs a call once by each route and once by the pair count, and
    returns the three results."""
    def each(call):
        out = []
        for limit in (1 << 62, 0, backend.DIRECT_PAIRS):  # all direct, none, the rule
            monkeypatch.setattr(backend, "DIRECT_PAIRS", limit)
            out.append(call())
        return out
    return each


def _shifted(f, offset):
    return f.ring.poly({tuple(a + b for a, b in zip(e, offset)): c for e, c in f.terms.items()})


def _spanning(ring, side, rng, terms=6):
    """A sparse value whose box is ``side`` cells on every axis."""
    n = ring.n
    exps = [tuple(side - 1 if j == i else 0 for j in range(n)) for i in range(n)]
    exps += [tuple(int(a) for a in rng.integers(0, side, n)) for _ in range(terms)]
    return ring.poly({e: int(rng.integers(1, ring.n_coeff_values)) for e in exps})


@pytest.mark.parametrize("ring", ROUTE_RINGS)
def test_both_product_routes_match_the_oracle(ring, routes):
    rng = np.random.default_rng(41)
    n = ring.n
    one = ring.poly({(0,) * n: int(rng.integers(1, ring.n_coeff_values))})
    cases = [(one, one), (_shifted(one, range(3, 3 + n)), _shifted(one, range(1, 1 + n)))]
    for _ in range(4):
        f, g = (random_polynomial(ring, 6 if n == 2 else 3, 12, rng) for _ in range(2))
        # far offsets twist f's cell 0 by t0 = sigma.lo, in every class mod k
        cases += [(f, g), (_shifted(f, rng.integers(0, 50, n)), _shifted(g, rng.integers(0, 50, n)))]
    side = {2: 15, 3: 7, 4: 5}[n]  # boxes whose pairs pass the constant
    cases += [(_spanning(ring, side, rng), _spanning(ring, side, rng)),
              (_shifted(_spanning(ring, side, rng), range(5, 5 + n)), _spanning(ring, side + 1, rng))]
    pairs = [f.grid.size * g.grid.size for f, g in cases]
    assert min(pairs) == 1 and max(pairs) > backend.DIRECT_PAIRS
    assert sum(c <= backend.DIRECT_PAIRS for c in pairs) >= 8
    for f, g in cases:
        want = skew_mul_oracle(f, g)
        assert routes(lambda: backend.skew2_mul(ring, f, g)) == [want] * 3


@pytest.mark.parametrize("ring, f_shape, g_shape", [
    # all-maximal digits at the constant and one operand cell past it
    pytest.param(_F125, (16, 16), (8, 16), id="F125-at"),
    pytest.param(_F125, (16, 16), (129, 1), id="F125-past"),
    pytest.param(_F169, (64, 32), (16, 1), id="F169-at"),
    pytest.param(_F169, (64, 32), (17, 1), id="F169-past"),
    pytest.param(_F4, (1, 128), (256, 1), id="F4-at"),
    pytest.param(_F4, (1, 128), (257, 1), id="F4-past"),
    pytest.param(_F125_3, (4, 8, 8), (2, 8, 8), id="three-variable-at"),
    pytest.param(_F125_3, (4, 8, 8), (1, 1, 129), id="three-variable-past"),
])
def test_all_maximal_digits_by_both_routes(ring, f_shape, g_shape, routes):
    at = prod(f_shape) * prod(g_shape) - backend.DIRECT_PAIRS
    assert at in (0, prod(f_shape))
    f, g = _full(ring, f_shape), _full(ring, g_shape)
    for a, b in ((f, g), (g, f)):
        want = _all_max_product(ring, a.grid.shape, b.grid.shape)
        for grid in routes(lambda: (a * b).grid):
            assert np.array_equal(grid, want)


@pytest.mark.parametrize("ring", ROUTE_RINGS[:3])
def test_low_corners_by_both_routes(ring, routes):
    # operands past the corner on every axis, and inside it; the corner is
    # the oracle's product grid cut (or padded) to CORNER cells an axis
    rng = np.random.default_rng(42)
    c = backend.CORNER
    for side in (c + 5, 3):
        for _ in range(3):
            f = _shifted(_spanning(ring, side, rng, 10), rng.integers(0, 9, 2))
            g = _spanning(ring, side, rng, 10)
            want = np.zeros((c, c), dtype=tables_for(ring.field).dtype)
            full = skew_mul_oracle(f, g).grid[:c, :c]
            want[:full.shape[0], :full.shape[1]] = full
            for corner in routes(lambda: backend.low_corner(ring, f, g)):
                assert np.array_equal(corner, want)


def test_backend_parity():
    rng = np.random.default_rng(14)
    f4 = skew_ring(FieldSpec(2, 2, (1, 1, 1)), (1, 1))

    def poly(ring, exps):
        return OrePolynomial(ring, {e: int(rng.integers(1, ring.n_coeff_values))
                                    for e in exps})

    def spread(ring, da, db, n):
        # exponents up to exactly (da, db): the grid is (da + 1) x (db + 1)
        inner = [(int(a), int(b)) for a, b in rng.integers(0, min(da, db) + 1, (n, 2))]
        return poly(ring, [(da, 0), (0, db)] + inner)

    cases = [(SKEW, random_polynomial(SKEW, 8, 12, rng), random_polynomial(SKEW, 7, 12, rng))
             for _ in range(20)]
    for ring in (SKEW, f4):
        rand = random_polynomial(ring, 9, 30, rng)
        cases += [
            (ring, poly(ring, [(0, 0)]), poly(ring, [(0, 0)])),  # 1x1 grids
            (ring, poly(ring, [(3, 2)]), rand),  # monomial times a full grid
            (ring, rand, poly(ring, [(0, 0)])),
            (ring, poly(ring, [(0, 5)]), poly(ring, [(0, j) for j in range(7)])),  # 1 x n
            (ring, poly(ring, [(i, 0) for i in range(4)]), poly(ring, [(0, 0), (6, 0)])),  # n x 1
            (ring, poly(ring, [(i, 0) for i in range(5)]), poly(ring, [(0, j) for j in range(4)])),
            # output dimensions 17 x 13 and 11 x 11: transforms pad to 18 x 15, 12 x 12
            (ring, spread(ring, 8, 6, 20), spread(ring, 8, 6, 20)),
            (ring, spread(ring, 10, 7, 30), poly(ring, [(0, 0), (0, 3)])),
        ]
    # every F_125 twist class (2a + b mod 3) on both sides
    all_twists = poly(SKEW, [(0, 0), (0, 1), (0, 2), (1, 0), (2, 2), (3, 1), (1, 4)])
    assert {(2 * a + b) % 3 for a, b in all_twists.terms} == {0, 1, 2}
    cases += [(SKEW, all_twists, all_twists), (SKEW, all_twists, cases[0][1])]
    for ring, f, g in cases:
        assert backend.skew2_mul(ring, f, g) == skew_mul_oracle(f, g)


def test_ring_axioms_random_triples():
    rng = np.random.default_rng(15)
    for ring in (SKEW, WEYL):
        for _ in range(60):
            a, b, c = (_rand(ring, rng, 3, 4) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a + b) * c == a * c + b * c


def test_degree_additivity_and_profiles():
    rng = np.random.default_rng(16)
    for ring in (SKEW, WEYL):
        for _ in range(50):
            a = random_polynomial(ring, int(rng.integers(1, 5)), 4, rng)
            b = random_polynomial(ring, int(rng.integers(1, 5)), 4, rng)
            pa, pb, pab = degree_profile(a), degree_profile(b), degree_profile(a * b)
            assert pab.total == pa.total + pb.total
            assert pab.d_degrees == (pa + pb).d_degrees
    assert degree_profile(SKEW.zero()).is_zero


def test_constants_central():
    rng = np.random.default_rng(17)
    for ring in (SKEW, WEYL):
        for c in range(ring.p):
            h = _rand(ring, rng)
            assert ring.constant(c) * h == h * ring.constant(c)


def test_noncommutativity_witness():
    a = field_constant(SKEW, alpha(SKEW.field))
    assert not SKEW.d(1).commutes_with(a)  # sigma_1(alpha) != alpha
    assert not WEYL.d(1).commutes_with(WEYL.x(1))


def test_random_polynomial_contract():
    rng1 = np.random.default_rng(99)
    rng2 = np.random.default_rng(99)
    a = random_polynomial(SKEW, 50, 30, rng1)
    b = random_polynomial(SKEW, 50, 30, rng2)
    assert a == b  # determinism
    assert a.total_degree() == 50
    assert len(a.terms) <= 30
    const = random_polynomial(SKEW, 0, 1, rng1)
    assert const.total_degree() == 0 and len(const.terms) == 1
    for _ in range(20):
        h = random_polynomial(WEYL, 7, 5, rng1)
        assert h.total_degree() == 7 and 1 <= len(h.terms) <= 5
    with pytest.raises(OreKexError):
        random_polynomial(SKEW, -1, 3, rng1)
    with pytest.raises(OreKexError):
        random_polynomial(SKEW, 3, 0, rng1)


def test_ring_mismatch_errors():
    other = weyl_ring(71, 3)
    with pytest.raises(RingMismatchError):
        WEYL.d(1) * other.d(1)
    with pytest.raises(RingMismatchError):
        WEYL.d(1) + other.d(1)


def test_grevlex_order_definition():
    rng = np.random.default_rng(18)
    for _ in range(300):
        a = tuple(int(x) for x in rng.integers(0, 5, size=4))
        b = tuple(int(x) for x in rng.integers(0, 5, size=4))
        if a == b:
            continue
        expected = None
        if sum(a) != sum(b):
            expected = sum(a) > sum(b)
        else:
            diff = [x - y for x, y in zip(a, b)]
            last = max(i for i, d in enumerate(diff) if d != 0)
            expected = diff[last] < 0
        assert (grevlex_key(a) > grevlex_key(b)) == expected
        assert (grevlex_descending(np.array([a, b]).T)[0] == 0) == expected


@pytest.mark.parametrize("name", sorted(RING_ALIASES))
def test_leading_and_total_degree_match_the_sort_key_oracle(name):
    ring, rng = ring_by_name(name), np.random.default_rng(19)
    for _ in range(40):
        h = _rand(ring, rng, degree=9, terms=12) * _rand(ring, rng, degree=3, terms=3)
        top = max(h.terms, key=grevlex_key)
        assert h.leading() == (top, h.terms[top])
        assert h.total_degree() == sum(top) == max(map(sum, h.terms))


def test_order_at_the_int64_edge():
    big = 1 << 62
    for ring in (SKEW, WEYL):
        pad = (0,) * (ring.exp_len - 2)  # d1, d2 are the last two axes
        h = ring.poly({pad + (big, big): 1, pad + (big - 1, big): 2, pad + (big, big - 1): 3})
        assert h.total_degree() == 1 << 63
        assert h.leading() == (pad + (big, big), 1)
        assert h.to_text() == to_text_oracle(h)
    assert WEYL.poly({(0, 0, big, big): 1, (0, 0, 0, 0): 1}).total_degree() == 1 << 63


def test_equal_values_hash_equal():
    for ring in (SKEW, SKEW4, WEYL):
        d1, d2 = ring.d(1), ring.d(2)
        made = d1 ** 3 * (d1 + 2) * (d2 + 3)  # a product away from the origin
        values = [made, poly_from_text(ring, made.to_text()), ring.poly(dict(made.terms)),
                  d1 ** 4 * d2 + 3 * d1 ** 4 + 2 * d1 ** 3 * d2 + 6 * d1 ** 3,
                  right_cofactor(d2 * made, d2)]
        assert all(v == made for v in values)
        assert len({hash(v) for v in values}) == 1
        zeros = [ring.zero(), poly_from_text(ring, "0"), made - made, made * ring.zero(),
                 ring.poly({(0,) * ring.exp_len: 0})]
        assert all(z == ring.zero() for z in zeros)
        assert len({hash(z) for z in zeros}) == 1


def test_coefficient_validation():
    with pytest.raises(OreKexError):
        OrePolynomial(SKEW, {(0, 0): 125})  # out of index range
    with pytest.raises(OreKexError):
        OrePolynomial(SKEW, {(0,): 1})  # wrong arity
    with pytest.raises(OreKexError):
        OrePolynomial(SKEW, {(-1, 0): 1})
    assert OrePolynomial(WEYL, {(0, 0, 0, 0): 72}) == WEYL.one()  # scalars reduce mod p


def test_pow_and_negative_power():
    d1 = SKEW.d(1)
    assert d1 ** 0 == SKEW.one()
    assert d1 ** 3 == d1 * d1 * d1
    with pytest.raises(OreKexError):
        d1 ** -1


@pytest.mark.parametrize("ring", [SKEW, WEYL], ids=["f125-skew2", "weyl2-f71"])
def test_power_squares_only_while_bits_remain(ring, monkeypatch):
    # d1^(2^62) is a value; a square past the last bit would need d1^(2^63)
    half = ring.d(1) ** 2 ** 61
    assert ring.d(1) ** 2 ** 62 == half * half
    # x^5 takes two squares and two products with the running power
    products = []
    real = OrePolynomial.__mul__
    monkeypatch.setattr(OrePolynomial, "__mul__", lambda a, b: products.append(1) or real(a, b))
    f = random_polynomial(ring, 2, 3, np.random.default_rng(43))
    assert f ** 5 == f * f * f * f * f
    assert len(products) == 4 + 4


# -- skew values held as grids ------------------------------------------------------

GRID_RINGS = [SKEW, skew_ring(f125_spec(), (1, 2)), skew_ring(FieldSpec(2, 2, (1, 1, 1)), (1, 1))]


def _as_grid(h):
    """h held as a grid only: a product, which builds no dict."""
    g = h * h.ring.one()
    assert g._terms is None and g._grid is not None
    return g


@pytest.mark.parametrize("ring", GRID_RINGS, ids=["f125-skew2", "sigma12", "f4"])
def test_products_and_sums_mix_dict_and_grid_operands(ring):
    rng = np.random.default_rng(19)
    for _ in range(15):
        a, b = _rand(ring, rng, 6, 12), _rand(ring, rng, 6, 12)
        for f in (a, _as_grid(a)):
            for g in (b, _as_grid(b)):
                assert f * g == skew_mul_oracle(a, b)
                assert f + g == skew_add_oracle(a, b)
                assert f - g == skew_add_oracle(a, -b)
                assert (f * g) + g == skew_add_oracle(skew_mul_oracle(a, b), b)


@pytest.mark.parametrize("ring", GRID_RINGS, ids=["f125-skew2", "sigma12", "f4"])
def test_sums_that_cancel_are_trimmed(ring):
    rng = np.random.default_rng(20)
    for _ in range(15):
        a = _as_grid(random_polynomial(ring, 8, 30, rng))
        top = [{e: c for e, c in a.terms.items() if e[i] == a.grid.shape[i] - 1} for i in (0, 1)]
        # b cancels a's top d1 row and adds terms lower down, or cancels a's
        # top row on one axis and reaches above a on the other, where nothing
        # of a can cancel it
        for b in (-ring.poly(top[0]) + random_polynomial(ring, 3, 4, rng),
                  -ring.poly(top[0]) + ring.d(2) ** a.grid.shape[1],
                  -ring.poly(top[1]) + ring.d(1) ** a.grid.shape[0]):
            for g in (b, _as_grid(b)):
                s = a + g
                want = skew_add_oracle(a, b)
                assert s == want
                assert s.grid.shape == want.grid.shape  # want's grid comes from its dict
                assert np.array_equal(s.grid, want.grid)
                assert s.d_degrees() == want.d_degrees()
        for zero in (a + (-a), a - _as_grid(a), _as_grid(a) + (-ring.poly(dict(a.terms)))):
            assert zero.is_zero() and not zero and len(zero) == 0
            assert zero == ring.zero() and zero.total_degree() is None


def test_equality_and_hash_across_representations():
    rng = np.random.default_rng(21)
    for ring in GRID_RINGS:
        for _ in range(10):
            a = random_polynomial(ring, 7, 20, rng)
            g = _as_grid(a)
            assert len(g) == len(a.terms) and bool(g) and not g.is_zero()
            assert g._terms is None  # len and bool count cells, no dict
            assert g == a and a == g and hash(g) == hash(a)
            assert len({a, g}) == 1
            assert g != a + 1 and g + 1 == a + 1
            assert g._grid is not None and a._grid is not None


def test_grids_and_terms_are_read_only():
    rng = np.random.default_rng(22)
    a = random_polynomial(SKEW, 5, 10, rng)
    for h in (a, _as_grid(a), a + _as_grid(a), -_as_grid(a)):
        with pytest.raises(ValueError):
            h.grid[0, 0] = 1
        with pytest.raises(TypeError):
            h.terms[(0, 0)] = 1
    assert a == random_polynomial(SKEW, 5, 10, np.random.default_rng(22))


def test_wide_sparse_sum_builds_no_grid():
    rng = np.random.default_rng(23)
    h = random_polynomial(SKEW, 10, 40, rng) * random_polynomial(SKEW, 10, 40, rng)
    far = SKEW.poly({(3000, 3000): 1})  # one cell at its offset
    assert far.grid.shape == (1, 1) and far.lo == (3000, 3000)
    tracemalloc.start()
    try:
        with pytest.raises(OreKexError, match="cell limit"):
            h + far  # a 3001 x 3001 box: over MAX_GRID_CELLS, refused where made
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    assert far * h == skew_mul_oracle(far, h)
    assert (far * h).lo == tuple(a + 3000 for a in h.lo)


# -- the weyl product kernel ---------------------------------------------------------

WEYL_RINGS = [WEYL, ring_by_name("weyl3-f71"), weyl_ring(2, 2), weyl_ring(3, 2)]


@pytest.mark.parametrize("ring", WEYL_RINGS, ids=["weyl2-f71", "weyl3-f71", "p2-n2", "p3-n2"])
def test_weyl_mul_against_oracle_at_and_past_p(ring):
    """d^a * x^b near and past p, where C(a,k) k! C(b,k) must be reduced with
    care (k! and C(b,k) vanish mod p from k = p), beside one-term, constant
    and random operands."""
    p, n = ring.p, ring.n
    rng = np.random.default_rng(24)
    # every power up to 2p + 1 in the small rings; the oracle is slow past that
    ks = range(2 * p + 2) if p < 5 else (0, 1, p - 1, p, p + 1)
    cases = [(ring.d(i) ** a, ring.x(i) ** b) for i in (1, n) for a in ks for b in ks]
    cases += [(ring.d(1) ** a * ring.d(n) ** b, ring.x(1) ** b * ring.x(n) ** a)
              for a in (p, p + 1) for b in (1, p + 2)]
    c = ring.constant(p - 1)
    mono = ring.poly({tuple(int(v) for v in rng.integers(0, min(p + 3, 8), 2 * n)): 1})
    for _ in range(8):
        h = _rand(ring, rng, 6, 6)
        cases += [(c, h), (h, c), (mono, h), (h, mono), (c, c), (mono, mono),
                  (h, _rand(ring, rng, 6, 6))]
    for f, g in cases:
        assert f * g == weyl_mul_oracle(f, g)


@pytest.mark.parametrize("p", [2, 3, 71, 101, 2 ** 31 - 1])
def test_weyl_inverse_table_matches_pow(p):
    """The Leibniz factors' table of 1/j mod p, by Fermat on arrays, is
    Python's pow(j, -1, p) for every j a product reads, 0 < j < p; a table
    is shared and read-only."""
    size = 128
    table = orepoly._inverses(size, p)
    assert table.tolist()[1:min(size, p)] == [pow(j, -1, p) for j in range(1, min(size, p))]
    assert orepoly._inverses(size, p) is table and not table.flags.writeable


def test_weyl_mul_step_limit_is_exact():
    """d1^999*d2^999 * x1^999*x2^999 takes exactly MAX_WEYL_STEPS and runs;
    one more term pair, which meets in no Leibniz sum, puts it over."""
    p, top = WEYL.p, 999
    f = WEYL.poly({(0, 0, top, top): 1})
    g = WEYL.poly({(top, top, 0, 0): 1})
    # the closed form with exact binomials: the variables' sums multiply
    c = [comb(top, k) ** 2 * factorial(k) % p for k in range(top + 1)]
    want = {(top - a, top - b, top - a, top - b): c[a] * c[b] % p
            for a in range(top + 1) for b in range(top + 1) if c[a] * c[b] % p}
    assert orepoly.MAX_WEYL_STEPS == (top + 1) ** 2
    assert dict((f * g).terms) == want
    with pytest.raises(OreKexError, match="Leibniz steps"):
        (f + 1) * g


def test_weyl_mul_refuses_exponents_past_int64():
    x1 = WEYL.x(1)
    with pytest.raises(OreKexError, match="too large"):
        WEYL.poly({(2 ** 63, 0, 0, 0): 1}) * WEYL.d(1)
    # each operand fits int64, their product's exponent does not
    with pytest.raises(OreKexError, match="too large"):
        WEYL.poly({(2 ** 62, 0, 0, 0): 1}) * WEYL.poly({(2 ** 62, 0, 0, 0): 1})
    # far from the origin but inside int64: the box starts at the lowest exponents
    far = WEYL.poly({(2 ** 40, 0, 0, 3): 2, (2 ** 40 + 1, 0, 0, 0): 1})
    assert far * (x1 + WEYL.x(2) ** 2) == weyl_mul_oracle(far, x1 + WEYL.x(2) ** 2)


def test_weyl_product_footprint_at_the_step_limit():
    """At p = 2^31 - 1 every term of d1^999*d2^999 * x1^999*x2^999 survives:
    10^6 of them, held in the product's arrays, with no term dict built."""
    p, top = 2 ** 31 - 1, 999
    ring = weyl_ring(p, 2)
    f, g = ring.poly({(0, 0, top, top): 1}), ring.poly({(top, top, 0, 0): 1})
    tracemalloc.start()
    try:
        h = f * g
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h._terms is None
    assert peak < 200 << 20
    exps, coeffs = h._coo()
    assert len(h) == (top + 1) ** 2 and h.leading() == ((top,) * 4, 1)
    # the lowest term takes k = 999 in both variables: (999!)^2
    assert exps[:, 0].tolist() == [0] * 4 and coeffs[0] == factorial(top) ** 2 % p


def test_weyl_mul_factor_cost_at_the_step_limit():
    """The two products at the step limit, at p = 2^31 - 1, each in under
    3 s and equal to its closed form: d1^999*d2^999 * x1^999*x2^999, and
    d1^999998 * x1^999998, one pair whose sum runs over k = 0..999,998.
    The Leibniz factors are running products by doubling, O(steps log k)
    work; one numpy pass per k took 25 s on the first product and 28 s at
    a cap of 50,000."""
    p, top = 2 ** 31 - 1, 999
    ring = weyl_ring(p, 2)
    f, g = ring.poly({(0, 0, top, top): 1}), ring.poly({(top, top, 0, 0): 1})
    t0 = time.perf_counter()
    h = f * g
    assert time.perf_counter() - t0 < 3.0
    # the variables' sums multiply: column (a, b, a, b) takes k = (top - a, top - b)
    exps, coeffs = h._coo()
    a, b = np.divmod(np.arange((top + 1) ** 2), top + 1)
    c = np.array([comb(top, k) ** 2 * factorial(k) % p for k in range(top, -1, -1)])
    assert np.array_equal(exps, [a, b, a, b])
    assert np.array_equal(coeffs, np.multiply.outer(c, c).ravel() % p)
    top = 999_998
    f, g = ring.poly({(0, 0, top, 0): 1}), ring.poly({(top, 0, 0, 0): 1})
    t0 = time.perf_counter()
    h = f * g
    assert time.perf_counter() - t0 < 3.0
    # column m is x1^m d1^m, from k = top - m: C(top,k)^2 k!, which is 1 at
    # k = 0, and k C(top,k)^2 k! = (top - k + 1)^2 C(top,k-1)^2 (k-1)!
    exps, c = h._coo()
    m = np.arange(top + 1)
    assert np.array_equal(exps, [m, 0 * m, m, 0 * m]) and c[-1] == 1
    assert np.array_equal((top - m[:-1]) * c[:-1] % p, (m[:-1] + 1) ** 2 % p * c[1:] % p)


# -- the two weyl sum routes: one bincount over the output box when it has at
# most WEYL_BOX_PER_STEP cells per entry, else a sort; forcing each on the same
# operands must give the oracle's value

WEYL_ROUTE_RINGS = [pytest.param(WEYL, id="weyl2-f71"),
                    pytest.param(ring_by_name("weyl3-f71"), id="weyl3-f71"),
                    pytest.param(ring_by_name("weyl2-f101"), id="weyl2-f101"),
                    pytest.param(weyl_ring(2, 2), id="weyl2-f2"),
                    pytest.param(weyl_ring(2 ** 31 - 1, 2), id="weyl2-f2^31-1")]


@pytest.fixture
def weyl_routes(monkeypatch):
    """Makes a product by the bincount route (when its box is no larger than
    the largest the rule allows, WEYL_BOX_PER_STEP * MAX_WEYL_STEPS cells),
    by the sort route and by the rule, and returns the three values and
    whether the rule took the bincount route."""
    rule = orepoly.WEYL_BOX_PER_STEP
    boxes, bincount = [], np.bincount
    monkeypatch.setattr(np, "bincount", lambda key, w, cells: boxes.append(cells) or bincount(key, w, cells))

    def each(f, g):
        fits = _entries_and_cells(f, g)[1] <= rule * orepoly.MAX_WEYL_STEPS
        out, took = [], []
        for per_step in ((1 << 62) if fits else 0, 0, rule):
            monkeypatch.setattr(orepoly, "WEYL_BOX_PER_STEP", per_step)
            ran = len(boxes)
            out.append(f * g)
            took.append(len(boxes) > ran)
        assert took[:2] == [fits, False]
        return out, took[2]
    return each


def _leibniz_exact(f, g):
    """f*g by the Leibniz sum with exact binomials, pair of terms by pair of
    terms: for operands whose sums min(w_i, e_i) are short, whatever the
    size of their exponents (weyl_mul_oracle moves one d at a time)."""
    n, p = f.ring.n, f.ring.p
    out = {}
    for ea, ca in f.terms.items():
        for eb, cb in g.terms.items():
            w, e = ea[n:], eb[:n]
            for ks in product(*(range(min(a, b) + 1) for a, b in zip(w, e))):
                c = ca * cb * prod(comb(a, k) * comb(b, k) * factorial(k) for a, b, k in zip(w, e, ks))
                at = tuple(ea[i] + eb[i] - ks[i % n] for i in range(2 * n))
                out[at] = (out.get(at, 0) + c) % p
    return f.ring.poly(out)


def _entries_and_cells(f, g):
    """Leibniz steps of f*g (caps taken mod p) and cells of its output box."""
    n, p = f.ring.n, f.ring.p
    steps = sum(prod(min(a[n + i] % p, b[i] % p) + 1 for i in range(n)) for a in f.terms for b in g.terms)
    (ef, _), (eg, _) = f._coo(), g._coo()
    box = [int(ef[j].max() + eg[j].max() - (ef[j].min() if j < n else eg[j].min()) + 1)
           for j in range(2 * n)]
    return steps, prod(box)


def _assert_weyl_layout(h):
    """int64 (2n, terms) exponents in strictly increasing lexicographic
    order, and int64 coefficients in [1, p)."""
    exps, coeffs = h._coo()
    assert exps.dtype == coeffs.dtype == np.int64 and exps.shape == (2 * h.ring.n, len(coeffs))
    assert 1 <= coeffs.min() and coeffs.max() < h.ring.p
    columns = list(zip(*exps.tolist()))
    assert columns == sorted(set(columns))


@pytest.mark.parametrize("ring", WEYL_ROUTE_RINGS)
def test_weyl_sum_routes_match_the_oracle(ring, weyl_routes):
    p, n = ring.p, ring.n
    rng = np.random.default_rng(42)
    d1, x1, dn, xn = ring.d(1), ring.x(1), ring.d(n), ring.x(n)
    c, mono = ring.constant(p - 1), ring.poly({tuple(int(v) for v in rng.integers(0, 4, 2 * n)): 3})
    cases = [(c, c), (mono, mono), (d1, x1), (x1, d1)]
    for _ in range(6):
        f, g = _rand(ring, rng, 6, 8), _rand(ring, rng, 6, 8)
        cases += [(f, g), (c, f), (f, mono), (mono, g)]
    # entries that cancel in whole cells: exactly, and mod 2 in (d1 + x1)^2
    cases += [(d1 + x1, d1 - x1), (d1 + x1, d1 + x1), (d1 * dn + xn, x1 * xn - dn)]
    if p < 200:  # exponents at and past p
        cases += [(d1 ** a * dn ** b, x1 ** b * xn ** a) for a in (p - 1, p, p + 1) for b in (1, p)]
    else:
        cases += [(d1 ** (p + 1), x1 ** 3 + xn ** 2), (x1 ** p * d1 ** 2, x1 ** (p - 1) + dn ** 3),
                  (d1 ** p + x1 ** (p + 1), x1 ** 2 + 1), (dn ** (p + 2) * d1, x1 * xn ** 3)]
    took = []
    for f, g in cases:
        want = weyl_mul_oracle(f, g) if p < 200 else _leibniz_exact(f, g)
        values, dense = weyl_routes(f, g)
        took.append(dense)
        for h in values:
            _assert_weyl_layout(h)
            assert h._key() == want._key()
    assert (d1 + x1) * (d1 - x1) == d1 ** 2 - x1 ** 2 - 1
    assert ((d1 + x1) * (d1 + x1) == d1 ** 2 + x1 ** 2 + 1) == (p == 2)
    assert 0 < sum(took) < len(took)  # the rule takes both routes


def test_weyl_sum_route_bounds(weyl_routes):
    """Boxes one cell inside and one cell outside the bincount route's
    bound take the route the rule says, with the same value."""
    m = orepoly.WEYL_BOX_PER_STEP
    # one entry over m cells of x1, then m + 1; then two products with
    # Leibniz steps, picked for m = 4, with 4 cells a step and one past it
    cases = [(WEYL.constant(3), WEYL.x(1) ** (m - 1), True), (WEYL.constant(3), WEYL.x(1) ** m, False),
             (WEYL.poly({(3, 4, 0, 3): 5}), WEYL.poly({(0, 2, 0, 4): 7}), True),
             (WEYL.poly({(2, 2, 4, 0): 1}), WEYL.poly({(1, 0, 2, 1): 2, (2, 0, 0, 1): 3}), False)]
    for f, g, inside in cases:
        steps, cells = _entries_and_cells(f, g)
        assert cells - m * steps == (0 if inside else 1) and steps > 0
        values, dense = weyl_routes(f, g)
        assert dense == inside and values == [weyl_mul_oracle(f, g)] * 3


def test_weyl_product_footprint_on_the_bincount_route(monkeypatch):
    """The bincount route's largest box: 10^6 steps over 4 * 10^6 cells,
    x1^(2a) and x1^1999 against d1^(2b) and d1^1999, each pair its own
    cell, summed under the same 200 MB as the step-limit product."""
    p, side = 2 ** 31 - 1, 2000
    ring = weyl_ring(p, 2)
    rng = np.random.default_rng(44)
    xs = list(range(0, side - 2, 2)) + [side - 1]
    cf, cg = rng.integers(1, p, len(xs)), rng.integers(1, p, len(xs))
    f = ring.poly({(e, 0, 0, 0): int(c) for e, c in zip(xs, cf)})
    g = ring.poly({(0, 0, e, 0): int(c) for e, c in zip(xs, cg)})
    cells = side ** 2
    assert len(f) * len(g) == orepoly.MAX_WEYL_STEPS  # no pair has a k > 0
    assert cells == orepoly.WEYL_BOX_PER_STEP * orepoly.MAX_WEYL_STEPS
    boxes, bincount = [], np.bincount
    monkeypatch.setattr(np, "bincount", lambda key, w, n: boxes.append(n) or bincount(key, w, n))
    tracemalloc.start()
    try:
        h = f * g
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert boxes == [cells] and peak < 200 << 20
    exps, coeffs = h._coo()
    assert np.array_equal(exps[0], np.repeat(xs, len(xs))) and np.array_equal(exps[2], np.tile(xs, len(xs)))
    assert not exps[1].any() and not exps[3].any()
    assert np.array_equal(coeffs, np.multiply.outer(cf, cg).ravel() % p)


# -- weyl sums --------------------------------------------------------------------------

@pytest.mark.parametrize("ring", WEYL_RINGS, ids=["weyl2-f71", "weyl3-f71", "p2-n2", "p3-n2"])
def test_weyl_sums_against_the_dict_oracle(ring):
    p = ring.p
    rng = np.random.default_rng(25)
    for _ in range(20):
        a, b = _rand(ring, rng, 6, 8), _rand(ring, rng, 6, 8)
        assert a + b == weyl_add_oracle([(1, a), (1, b)])
        assert a - b == weyl_add_oracle([(1, a), (p - 1, b)])
        assert -a == weyl_add_oracle([(p - 1, a)])
        assert (a + b) - a == weyl_add_oracle([(1, a + b), (p - 1, a)])
        c = [int(v) for v in rng.integers(0, p, 4)]
        assert a.power_sum(c) == weyl_add_oracle(
            [(c[0], ring.one())] + [(v, a ** i) for i, v in enumerate(c[1:], 1)])
        for zero in (a - a, a + (-a), -a + a):
            assert zero == ring.zero() and not zero and len(zero) == 0
        # one value by the sum, product, parse and constructor routes
        s = a + b
        routes = [s, s * ring.one(), ring.one() * s, poly_from_text(ring, s.to_text()),
                  ring.poly(dict(s.terms)), weyl_add_oracle([(1, a), (1, b)])]
        assert all(v == s for v in routes)
        assert len({hash(v) for v in routes}) == 1


@pytest.mark.parametrize("ring", WEYL_RINGS, ids=["weyl2-f71", "weyl3-f71", "p2-n2", "p3-n2"])
def test_weyl_sums_at_far_exponents(ring):
    """x1^(2^62) + dn^(2^62) spans a box no int64 flat index covers, and
    d1^(2^63 - 1) is the largest exponent a value may have."""
    n, p, top = ring.n, ring.p, 2 ** 63 - 1

    def mono(axis, e, c=1):
        return ring.poly({tuple(e if j == axis else 0 for j in range(2 * n)): c})

    pieces = [mono(0, 2 ** 62), mono(2 * n - 1, 2 ** 62), mono(n, top, p - 1), ring.one()]
    # the far monomials by the product route as well
    assert mono(0, 2 ** 61) * mono(0, 2 ** 61) == pieces[0]
    assert mono(n, top - 1, p - 1) * ring.d(1) == pieces[2]
    v = pieces[0] + pieces[1] + pieces[2] + pieces[3]
    want = weyl_add_oracle([(1, h) for h in pieces])
    routes = [v, want, ring.poly(dict(v.terms)), poly_from_text(ring, v.to_text()),
              pieces[3] + pieces[2] + pieces[1] + pieces[0]]
    assert all(h == want for h in routes) and len(v) == 4
    assert len({hash(h) for h in routes}) == 1
    assert v - pieces[0] - pieces[1] - pieces[2] == ring.one()
    assert (v - v).is_zero() and -v == weyl_add_oracle([(p - 1, v)])
    assert v.leading() == (tuple(top if j == n else 0 for j in range(2 * n)), p - 1)


@pytest.mark.skipif(backend._mallopt is None, reason="the C library has no mallopt")
def test_products_reuse_freed_transform_memory():
    """A product frees several MB of transform buffers.  With the allocator
    settings backend makes at import, the next product reuses them instead
    of faulting fresh pages in: 952 minor faults a product at glibc's
    defaults for these shapes."""
    rng = np.random.default_rng(5)
    f, g = (OrePolynomial._of(SKEW, grid=rng.integers(1, 125, shape).astype(np.uint8))
            for shape in ((171, 201), (41, 51)))
    f * g
    for _ in range(5):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        f * g
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100
