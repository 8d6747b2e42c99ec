import tracemalloc

import numpy as np
import pytest

from orekex import (FieldSpec, OreKexError, OrePolynomial, RingMismatchError,
                    backend, f125_spec, left_cofactor, random_polynomial, right_cofactor,
                    ring_by_name, skew_ring, weyl_ring)
from orekex.monomials import grevlex_key

from helpers import degree_profile, skew_add_oracle, skew_mul_oracle, weyl_mul_oracle

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
        phi = spec.frobenius(power)
        for idx in range(125):
            c = SKEW.constant(spec.from_index(idx))
            assert d * c == SKEW.constant(phi(spec.from_index(idx))) * d


def test_skew_monomial_twist_power():
    # (c d1^a)(e d1^b) = c sigma1^a(e) d1^(a+b)
    rng = np.random.default_rng(8)
    spec = SKEW.field
    d1 = SKEW.d(1)
    for _ in range(50):
        a, b = int(rng.integers(0, 11)), int(rng.integers(0, 11))
        c = spec.from_index(int(rng.integers(1, 125)))
        e = spec.from_index(int(rng.integers(1, 125)))
        twisted = e
        for _ in range(a * SKEW.sigma_powers[0] % 3):
            twisted = spec.frobenius(1)(twisted)
        lhs = (SKEW.constant(c) * d1 ** a) * (SKEW.constant(e) * d1 ** b)
        rhs = SKEW.constant(c * twisted) * d1 ** (a + b)
        assert lhs == rhs
    # d1^2 c = sigma1^2(c) d1^2 spot case
    c = spec.alpha()
    assert SKEW.d(1) ** 2 * SKEW.constant(c) == \
        SKEW.constant(spec.frobenius(2 * SKEW.sigma_powers[0] % 3)(c)) * SKEW.d(1) ** 2


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


@pytest.mark.parametrize("make", [
    # (d1^100 + d2^100)(d3^100 + d4^100) needs a 101^4-cell grid
    pytest.param(lambda: SKEW4.poly({(100, 0, 0, 0): 1, (0, 100, 0, 0): 2})
                 * SKEW4.poly({(0, 0, 100, 0): 3, (0, 0, 0, 100): 4}), id="mul4"),
    pytest.param(lambda: SKEW.poly({(2 ** 70, 0): 1}) * SKEW.d(1), id="mul-huge-exponent"),
    # exponents inside int64: refused before any padding to a transform length
    pytest.param(lambda: SKEW.poly({(10 ** 12, 0): 1}) * SKEW.d(1), id="mul-int64-exponent"),
    pytest.param(lambda: SKEW4.poly({(2 ** 62, 0, 0, 0): 1}) * SKEW4.d(3), id="mul4-int64-exponent"),
    # d1 + d2 fits the exponent ranges of d1^3000 + d2^3000, whose Kronecker
    # line needs 3002*3000 + 3000 + 1 cells
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
    alpha = SKEW.constant(SKEW.field.alpha())
    assert not SKEW.d(1).commutes_with(alpha)  # sigma_1(alpha) != alpha
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
        top_a = max(e[0] for e in a.terms)
        # b cancels a's top d1 row and adds terms lower down
        row = {e: c for e, c in a.terms.items() if e[0] == top_a}
        b = -ring.poly(row) + random_polynomial(ring, 3, 4, rng)
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
    far = SKEW.poly({(3000, 3000): 1})
    tracemalloc.start()
    try:
        s = h + far  # a 3001 x 3001 box: over MAX_GRID_CELLS
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    assert s._grid is None and len(s) == len(h) + 1 and s.terms[(3000, 3000)] == 1
    assert s - far == h
