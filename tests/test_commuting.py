import tracemalloc

import numpy as np
import pytest

from orekex import (ConstantPolynomial, FieldSpec, OreKexError, ProtocolError,
                    ResampleExhaustedError, backend, f125_spec, orepoly, random_constant_polynomial,
                    random_polynomial, ring_by_name, sample_private, skew_ring, weyl_ring)
from orekex import commuting

from helpers import alpha, degree_profile, field_constant, skew_mul_oracle, weyl_mul_oracle

SKEW = ring_by_name("f125-skew2")
WEYL = ring_by_name("weyl2-f71")


def test_constructor_invariants():
    with pytest.raises(OreKexError):
        ConstantPolynomial(5, (0, 1))  # f0 = 0 would let factors be peeled off
    with pytest.raises(OreKexError):
        ConstantPolynomial(5, (3,))  # constant keys are central
    with pytest.raises(OreKexError):
        ConstantPolynomial(5, (1, 2, 0))  # degree claim needs a leading coeff
    f = ConstantPolynomial(5, (2, 0, 3))
    assert f.degree == 2


def test_identity_evaluation():
    f = ConstantPolynomial(5, (0 + 1, 1))  # 1 + X; f = X alone is not admissible
    P = random_polynomial(SKEW, 3, 4, np.random.default_rng(1))
    assert f(P) == P + 1


def test_worked_quadratic_evaluation():
    # f_A = 48 X^2 + 22 X + 27 applied to the fixed three-variable element
    w3 = ring_by_name("weyl3-f71")
    x1, x3, d3 = w3.x(1), w3.x(3), w3.d(3)
    P = -5 * x3 ** 2 - 2 * x1 * d3 + 34
    fa = ConstantPolynomial(71, (27, 22, 48))
    assert fa(P) == 48 * P ** 2 + 22 * P + 27


def test_horner_matches_naive_power_sum():
    rng = np.random.default_rng(2)
    for ring in (SKEW, WEYL):
        for _ in range(30):
            f = random_constant_polynomial(ring.p, int(rng.integers(1, 5)), rng)
            P = random_polynomial(ring, int(rng.integers(1, 4)), 4, rng)
            naive = ring.zero()
            for i, c in enumerate(f.coeffs):
                naive = naive + ring.constant(c) * P ** i
            assert f(P) == naive


def test_pool_evaluations_share_their_powers(full_products):
    # P's powers are made once, one product each, and every later key drawn
    # at P reuses them
    rng = np.random.default_rng(4)
    P = random_polynomial(SKEW, 3, 6, rng)
    keys = [random_constant_polynomial(SKEW.p, 10, rng) for _ in range(3)]
    values = [f(P) for f in keys]
    assert len(full_products) == 9
    for f, value in zip(keys, values):
        naive = SKEW.zero()
        for i, c in enumerate(f.coeffs):
            naive = naive + SKEW.constant(c) * P ** i
        assert value == naive
    # at a constant point the sum can vanish, and must then be the zero value
    for ring in (SKEW, WEYL):
        assert ConstantPolynomial(ring.p, (1, 1))(ring.constant(ring.p - 1)) == ring.zero()


def test_pool_elements_commute_pairwise():
    rng = np.random.default_rng(3)
    for ring in (SKEW, WEYL):
        P = random_polynomial(ring, 2, 4, rng)
        for _ in range(200):
            f = random_constant_polynomial(ring.p, int(rng.integers(1, 4)), rng)
            g = random_constant_polynomial(ring.p, int(rng.integers(1, 4)), rng)
            assert f(P).commutes_with(g(P))


def test_evaluation_degree_profile():
    rng = np.random.default_rng(4)
    for ring in (SKEW, WEYL):
        for _ in range(30):
            nu = int(rng.integers(1, 5))
            f = random_constant_polynomial(ring.p, nu, rng)
            P = random_polynomial(ring, int(rng.integers(1, 4)), 3, rng)
            prof = degree_profile(P)
            expected = prof
            for _ in range(nu - 1):
                expected = expected + prof
            got = degree_profile(f(P))
            assert got.total == expected.total
            assert got.d_degrees == expected.d_degrees


def test_sample_private_contract():
    ring = SKEW
    rng = np.random.default_rng(5)
    L = random_polynomial(ring, 6, 10, rng)
    P = random_polynomial(ring, 3, 5, rng)
    while P.commutes_with(L):
        P = random_polynomial(ring, 3, 5, rng)
    for _ in range(100):
        f, value = sample_private(P, L, 4, rng)
        assert f.degree == 4
        assert f.coeffs[0] != 0
        assert not value.commutes_with(L)
        assert value == f(P)
    rng_a = np.random.default_rng(77)
    rng_b = np.random.default_rng(77)
    assert sample_private(P, L, 4, rng_a)[0].coeffs == sample_private(P, L, 4, rng_b)[0].coeffs


def test_sample_private_preconditions(monkeypatch):
    rng = np.random.default_rng(6)
    L = random_polynomial(SKEW, 4, 6, rng)
    with pytest.raises(ProtocolError):
        sample_private(L, L, 2, rng)  # generator commutes with the target
    P = random_polynomial(SKEW, 3, 5, rng)
    while P.commutes_with(L):
        P = random_polynomial(SKEW, 3, 5, rng)
    monkeypatch.setattr(commuting, "MAX_ATTEMPTS", 0)
    with pytest.raises(ResampleExhaustedError):
        sample_private(P, L, 2, rng)


def test_serialization():
    f = ConstantPolynomial(5, (2, 0, 3))
    assert f.to_text() == "[2,0,3]"


# -- commutation: the low corner first, then the full products ------------------------

CORNER_RINGS = [SKEW, skew_ring(f125_spec(), (1, 2)), skew_ring(FieldSpec(2, 2, (1, 1, 1)), (1, 1))]


@pytest.fixture
def full_products(monkeypatch):
    """Counts the full products (backend.skew2_mul calls) made meanwhile."""
    calls = []
    mul = backend.skew2_mul

    def counted(ring, f, g):
        calls.append(1)
        return mul(ring, f, g)

    monkeypatch.setattr(backend, "skew2_mul", counted)
    return calls


@pytest.mark.parametrize("ring", CORNER_RINGS, ids=["f125-skew2", "sigma12", "f4"])
def test_commuting_pairs_fall_through_to_the_full_products(ring, full_products):
    # pool elements whose boxes reach past the corner on both axes
    rng = np.random.default_rng(7)
    P = random_polynomial(ring, 4, 15, rng)
    while min(P.d_degrees()) < 3:
        P = random_polynomial(ring, 4, 15, rng)
    for _ in range(6):
        f, g = (random_constant_polynomial(ring.p, 3, rng)(P) for _ in range(2))
        assert min(f.d_degrees()) >= backend.CORNER
        full_products.clear()
        assert f.commutes_with(g) and g.commutes_with(f)
        assert len(full_products) == 4


@pytest.mark.parametrize("ring", CORNER_RINGS, ids=["f125-skew2", "sigma12", "f4"])
def test_far_shifted_pairs_fall_through_to_the_full_products(ring, full_products):
    # the corner starts at the product's offset, d^(lo_f + lo_g), so pairs
    # far from the origin are settled by it as near ones are, and fall
    # through to the full products exactly when their corners agree
    rng = np.random.default_rng(8)
    settled = 0
    for _ in range(10):
        f = ring.d(1) ** 9 * random_polynomial(ring, 3, 6, rng)
        g = ring.d(2) ** 12 * random_polynomial(ring, 3, 6, rng)
        agree = np.array_equal(backend.low_corner(ring, f, g), backend.low_corner(ring, g, f))
        full_products.clear()
        want = skew_mul_oracle(f, g) == skew_mul_oracle(g, f)
        assert f.commutes_with(g) == want
        assert len(full_products) == 2 * agree
        settled += not agree
    assert settled


def test_corner_settles_noncommuting_pairs_without_full_products(full_products):
    rng = np.random.default_rng(9)
    for ring in CORNER_RINGS:
        for _ in range(20):
            f, g = random_polynomial(ring, 5, 12, rng), random_polynomial(ring, 5, 12, rng)
            assert f.commutes_with(g) == (skew_mul_oracle(f, g) == skew_mul_oracle(g, f))
    # d1 moves alpha by sigma_1: the corners differ at d1.  The far term makes
    # g's grid 1001 x 1001, so a corner that cut only one operand would
    # transform about a million cells
    ring = SKEW
    f = ring.d(1)
    g = field_constant(ring, alpha(ring.field)) + ring.poly({(1000, 1000): 1})
    full_products.clear()
    tracemalloc.start()
    try:
        answer = f.commutes_with(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert answer is False and not full_products
    assert peak < 1 << 20


# -- weyl commutation: the top parts' Poisson bracket first, then the full products ---

BRACKET_RINGS = [ring_by_name("weyl2-f71"), ring_by_name("weyl3-f71"), ring_by_name("weyl2-f101"),
                 weyl_ring(2, 2), weyl_ring(2**31 - 1, 2)]
BRACKET_IDS = ["weyl2-f71", "weyl3-f71", "weyl2-f101", "weyl2-f2", "weyl2-f2^31-1"]
INT64_MAX = 2**63 - 1


def top_bracket_oracle(f, g) -> int:
    """sum_i (a_{d_i} b_{x_i} - b_{d_i} a_{x_i}) mod p in Python integers,
    a_s the sum of e_s c over the terms c x^e d^w of f of greatest total
    degree, b_s the same for g: the Poisson bracket of the top-degree parts
    at the all-ones point."""
    n = f.ring.n

    def gradient(h):
        top = max(map(sum, h.terms))
        return [sum(e[s] * c for e, c in h.terms.items() if sum(e) == top) for s in range(2 * n)]

    a, b = gradient(f), gradient(g)
    return sum(a[n + i] * b[i] - b[n + i] * a[i] for i in range(n)) % f.ring.p


def commute_by_oracle(f, g) -> bool:
    return weyl_mul_oracle(f, g) == weyl_mul_oracle(g, f)


@pytest.fixture
def weyl_products(monkeypatch):
    """Counts the weyl products (orepoly._weyl_mul calls) made meanwhile."""
    calls = []
    mul = orepoly._weyl_mul

    def counted(ring, f, g):
        calls.append(1)
        return mul(ring, f, g)

    monkeypatch.setattr(orepoly, "_weyl_mul", counted)
    return calls


@pytest.mark.parametrize("ring", BRACKET_RINGS, ids=BRACKET_IDS)
def test_bracket_settles_random_pairs_without_products(ring, weyl_products):
    rng = np.random.default_rng(11)
    settled = 0
    for _ in range(40):
        f = random_polynomial(ring, int(rng.integers(1, 4)), 5, rng)
        g = random_polynomial(ring, int(rng.integers(1, 4)), 5, rng)
        weyl_products.clear()
        assert f.commutes_with(g) == commute_by_oracle(f, g)
        bracket = top_bracket_oracle(f, g)
        assert len(weyl_products) == 2 * (bracket == 0)
        settled += bracket != 0
    assert settled


@pytest.mark.parametrize("ring", BRACKET_RINGS, ids=BRACKET_IDS)
def test_pool_pairs_fall_through_to_the_full_products(ring, weyl_products):
    rng = np.random.default_rng(12)
    P = random_polynomial(ring, 2, 4, rng)
    while not P.d_degrees()[0] or not P.tops()[0]:  # P is neither x- nor d-only
        P = random_polynomial(ring, 2, 4, rng)
    for _ in range(4):
        f, g = (random_constant_polynomial(ring.p, 2, rng)(P) for _ in range(2))
        assert commute_by_oracle(f, g) and top_bracket_oracle(f, g) == 0
        weyl_products.clear()
        assert f.commutes_with(g)
        assert len(weyl_products) == 2


@pytest.mark.parametrize("ring", BRACKET_RINGS, ids=BRACKET_IDS)
def test_central_powers_fall_through_to_the_full_products(ring, weyl_products):
    # d1^p and x1^p are central in characteristic p; the bracket's factors
    # (p mod p) vanish
    x1, d1 = ring.x(1), ring.d(1)
    for power, other in [(d1 ** ring.p, x1), (x1 ** ring.p, d1)]:
        for f, g in [(power, other), (other, power)]:
            weyl_products.clear()
            assert f.commutes_with(g)
            assert len(weyl_products) == 2
            if ring.p < 1000:  # the oracle moves d1 across one step at a time
                assert commute_by_oracle(f, g)


@pytest.mark.parametrize("ring", BRACKET_RINGS, ids=BRACKET_IDS)
def test_vanishing_bracket_is_not_an_answer(ring, weyl_products):
    # the top parts x1^2 and x1^3 have bracket 0, but the commutator is
    # [d1, x1^3] = 3 x1^2, found by the full products
    x1, d1 = ring.x(1), ring.d(1)
    f, g = x1 ** 2 + d1, x1 ** 3
    assert top_bracket_oracle(f, g) == 0 and not commute_by_oracle(f, g)
    weyl_products.clear()
    assert f.commutes_with(g) is False
    assert len(weyl_products) == 2


@pytest.mark.parametrize("ring", BRACKET_RINGS, ids=BRACKET_IDS)
def test_bracket_at_exponents_near_2_63(ring, weyl_products):
    p = ring.p
    x1, d1, d2 = ring.x(1), ring.d(1), ring.d(2)
    # [c x1^E, d1] = -c E x1^(E-1), E mod p != 0 at E = 2^63 - 1 for each
    # prime here, and c = p - 1: settled, where E c passes int64.  With E a
    # multiple of p, x1^E is central, and the products, whose output box
    # holds 2(E + 1) keys, find it so
    for e, central in [(INT64_MAX, False), (2**62 - 2 - (2**62 - 2) % p, True)]:
        f = ring.poly({(e,) + (0,) * (2 * ring.n - 1): p - 1})
        for pair in [(f, d1), (d1, f)]:
            weyl_products.clear()
            assert pair[0].commutes_with(pair[1]) == commute_by_oracle(*pair) == central
            assert len(weyl_products) == 2 * central
    # a top term whose degree, the sum of its exponents, passes int64, over
    # x1*d2 of degree 2, whose own bracket with g is 0; the products' output
    # box passes int64 and is refused, so only the bracket, -E2 mod p, can
    # answer
    e1, e2 = 2**62 + 3, 2**62 + 1
    far = ring.poly({(e1, e2) + (0,) * (2 * ring.n - 2): 1})
    f, g = far + x1 * d2, x1 + d2
    assert top_bracket_oracle(x1 * d2, g) == 0
    assert top_bracket_oracle(f, g) == -e2 % p != 0
    weyl_products.clear()
    assert f.commutes_with(g) is False and not weyl_products
    assert not commute_by_oracle(f, g)
    with pytest.raises(OreKexError, match="too large"):
        f * g
