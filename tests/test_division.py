import tracemalloc
from itertools import product

import numpy as np
import pytest

from orekex import (FieldSpec, NotDivisibleError, OreKexError, OrePolynomial,
                    f125_spec, left_cofactor, random_polynomial, right_cofactor,
                    ring_by_name, skew_ring, weyl_ring)

from helpers import skew_mul_oracle

SKEW = ring_by_name("f125-skew2")
WEYL = ring_by_name("weyl2-f71")
RINGS = (SKEW, WEYL)


def test_identity_cases():
    d1 = SKEW.d(1)
    assert right_cofactor(d1, d1) == SKEW.one()
    h = random_polynomial(WEYL, 4, 5, np.random.default_rng(0))
    assert left_cofactor(h, WEYL.one()) == h
    assert right_cofactor(SKEW.zero(), d1) == SKEW.zero()


def test_obvious_mismatch():
    with pytest.raises(NotDivisibleError):
        right_cofactor(SKEW.d(1) + 1, SKEW.d(2))


def test_division_by_zero_rejected():
    with pytest.raises(OreKexError):
        right_cofactor(SKEW.d(1), SKEW.zero())


def test_round_trip_both_sides():
    rng = np.random.default_rng(21)
    for ring in RINGS:
        for _ in range(200):
            p = random_polynomial(ring, int(rng.integers(1, 5)), int(rng.integers(1, 6)), rng)
            q = random_polynomial(ring, int(rng.integers(1, 5)), int(rng.integers(1, 6)), rng)
            h = p * q
            assert right_cofactor(h, p) == q
            assert left_cofactor(h, q) == p


def test_round_trip_three_variable_skew():
    # three variables put a third weight on the Kronecker line: each weight is
    # congruent to its sigma mod k and lifted above what the later axes reach
    ring3 = skew_ring(f125_spec(), (1, 2, 1))
    rng = np.random.default_rng(27)
    for _ in range(40):
        p = random_polynomial(ring3, int(rng.integers(1, 4)), 4, rng)
        q = random_polynomial(ring3, int(rng.integers(1, 4)), 4, rng)
        h = p * q
        assert right_cofactor(h, p) == q
        assert left_cofactor(h, q) == p


def test_round_trip_protocol_scale():
    rng = np.random.default_rng(22)
    p = random_polynomial(SKEW, 40, 200, rng)
    q = random_polynomial(SKEW, 35, 200, rng)
    h = p * q
    assert right_cofactor(h, p) == q
    assert left_cofactor(h, q) == p


def test_division_recovers_oracle_products():
    # h comes from the independent oracle, not the product kernel, so a fault
    # shared by product and division cannot cancel out
    f4 = skew_ring(FieldSpec(2, 2, (1, 1, 1)), (1, 1))
    f125_12 = skew_ring(f125_spec(), (1, 2))
    ring3 = skew_ring(f125_spec(), (1, 2, 1))
    ring4 = skew_ring(f125_spec(), (2, 1, 1, 2))
    rng = np.random.default_rng(23)
    for ring, dp, dq in ((SKEW, 6, 5), (f4, 6, 5), (f125_12, 6, 5), (ring3, 3, 3),
                         (ring4, 3, 3)):
        for _ in range(20):
            p = random_polynomial(ring, dp, 8, rng)
            q = random_polynomial(ring, dq, 8, rng)
            h = skew_mul_oracle(p, q)
            assert right_cofactor(h, p) == q
            assert left_cofactor(h, q) == p
    for ring in (SKEW, f4, f125_12, ring3):
        for e in product(range(3), repeat=ring.n):
            # monomial factors d^e and d^(e_2, .., e_n, 2 - e_1) move the lowest
            # Kronecker position of divisor and cofactor through every residue
            # mod k
            p = ring.poly({e: 1}) * random_polynomial(ring, 4, 6, rng)
            q = random_polynomial(ring, 3, 6, rng) * ring.poly({e[1:] + (2 - e[0],): 1})
            h = skew_mul_oracle(p, q)
            assert right_cofactor(h, p) == q
            assert left_cofactor(h, q) == p
            # a new coefficient on h's top term keeps every exponent range and
            # every line position below the cofactor's length, so only the
            # final product check can reject it
            top = max(h.terms)
            bad = dict(h.terms)
            bad[top] = bad[top] % (ring.n_coeff_values - 1) + 1
            bad = ring.poly(bad)
            with pytest.raises(NotDivisibleError):
                right_cofactor(bad, p)
            with pytest.raises(NotDivisibleError):
                left_cofactor(bad, q)


def test_division_far_from_the_origin():
    # exponent ranges pin the cofactor, and the Kronecker line has one cell
    d1 = SKEW.d(1)
    for a in (20000, 2 ** 62):
        h, q = SKEW.poly({(a, 1): 2}), SKEW.poly({(a - 1, 1): 2})
        assert right_cofactor(h, d1) == q and left_cofactor(h, d1) == q
        with pytest.raises(NotDivisibleError):
            right_cofactor(h, d1 + 1)


def test_sparse_division_in_three_variables_builds_no_grid():
    # p*q spans a 3001 x 8 x 3006 box, over the product kernel's cell limit,
    # and its Kronecker line needs 81,264,140 cells: division refuses it as
    # the product does, before any array of the line's size exists
    ring3 = skew_ring(f125_spec(), (1, 2, 1))
    p = ring3.poly({(3000, 0, 0): 7, (0, 7, 5): 3})
    q = ring3.poly({(0, 0, 3000): 11, (1, 1, 0): 2})
    h = skew_mul_oracle(p, q)
    with pytest.raises(OreKexError, match="limit"):
        p * q
    tracemalloc.start()
    try:
        with pytest.raises(OreKexError, match="limit"):
            right_cofactor(h, p)
        with pytest.raises(OreKexError, match="limit"):
            left_cofactor(h, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_three_pass_chain_identity():
    rng = np.random.default_rng(24)
    from orekex import ConstantPolynomial

    for ring in RINGS:
        P = random_polynomial(ring, 2, 4, rng)
        Q = random_polynomial(ring, 2, 4, rng)
        L = random_polynomial(ring, 3, 5, rng)
        fa = ConstantPolynomial(ring.p, (1, 2, 1))
        ga = ConstantPolynomial(ring.p, (2, 1, 1))
        fb = ConstantPolynomial(ring.p, (1, 1, 2))
        gb = ConstantPolynomial(ring.p, (3, 1, 1))
        PA, QA, PB, QB = fa(P), ga(Q), fb(P), gb(Q)
        p_int = PB * PA * L * QA * QB
        assert p_int == PA * PB * L * QB * QA  # the commuting pools commute
        stripped = right_cofactor(left_cofactor(p_int, QA), PA)
        assert stripped == PB * L * QB


def _tiny_rings():
    f4 = FieldSpec(2, 2, (1, 1, 1))
    return (skew_ring(f4, (1, 1)), weyl_ring(2, 2))


def _profile_vec(h):
    return tuple(max(e[i] for e in h.terms) for i in range(h.ring.exp_len))


def _enumerate_cofactors(ring, bound_total, coeff_values):
    monos = [
        e
        for e in product(range(bound_total + 1), repeat=ring.exp_len)
        if sum(e) <= bound_total
    ]
    for assignment in product(range(coeff_values), repeat=len(monos)):
        terms = {m: c for m, c in zip(monos, assignment) if c}
        if terms:
            yield OrePolynomial(ring, terms)


def test_not_divisible_is_sound():
    # whenever exact division fails on a tiny instance, exhaustive search
    # confirms that no cofactor of the right total degree exists
    rng = np.random.default_rng(25)
    for ring in _tiny_rings():
        coeff_values = ring.n_coeff_values
        confirmed = 0
        attempts = 0
        while confirmed < 10 and attempts < 400:
            attempts += 1
            h = random_polynomial(ring, int(rng.integers(1, 3)), 3, rng)
            d = random_polynomial(ring, int(rng.integers(1, 3)), 2, rng)
            bound = h.total_degree() - d.total_degree()
            if bound < 0 or bound > 1:
                continue
            try:
                q = right_cofactor(h, d)
            except NotDivisibleError:
                assert all(d * cand != h for cand in
                           _enumerate_cofactors(ring, bound, coeff_values))
                confirmed += 1
            else:
                assert d * q == h
        assert confirmed >= 10


def test_divisibility_result_is_deterministic():
    rng = np.random.default_rng(26)
    p = random_polynomial(SKEW, 4, 6, rng)
    q = random_polynomial(SKEW, 4, 6, rng)
    h = p * q
    assert right_cofactor(h, p) == right_cofactor(h, p)
    assert left_cofactor(h, q) == left_cofactor(h, q)
