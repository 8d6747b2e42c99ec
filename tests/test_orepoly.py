import tracemalloc
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
                     weyl_mul_oracle)

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
