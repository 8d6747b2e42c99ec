from itertools import product

import numpy as np
import pytest

from orekex import FieldSpec, OreKexError, ZeroInverseError, f125_spec
from orekex.fields import tables_for

from helpers import naive_is_irreducible, naive_mulmod, naive_pow

F125 = f125_spec()
ALPHA = F125.alpha()


def test_spec_validation():
    with pytest.raises(OreKexError):
        FieldSpec(4, 2, (1, 1, 1))  # p not prime
    with pytest.raises(OreKexError):
        FieldSpec(5, 3, (3, 3, 0, 2))  # not monic
    with pytest.raises(OreKexError):
        FieldSpec(5, 2, (4, 0, 1))  # x^2 + 4 = x^2 - 1 has roots
    with pytest.raises(OreKexError):
        FieldSpec(2, 4, (1, 0, 1, 0, 1))  # (x^2+x+1)^2
    with pytest.raises(OreKexError):
        FieldSpec(5, 6, (2, 0, 0, 0, 0, 0, 1))  # x^6 - 3: 3 has order 4 in F_5^*, 3 | 6, 3 ∤ 4
    assert not naive_is_irreducible([2, 0, 0, 0, 0, 0, 1], 5)
    FieldSpec(2, 4, (1, 1, 0, 0, 1))  # irreducible quartic passes
    FieldSpec(5, 6, (1, 0, 0, 0, 1, 1, 1))  # irreducible sextic passes
    assert naive_is_irreducible([1, 0, 0, 0, 1, 1, 1], 5)


# Gauss's count of monic irreducibles of degree k over F_p
IRREDUCIBLE_COUNTS = {(2, 2): 1, (2, 3): 2, (2, 4): 3, (2, 5): 6, (2, 6): 9,
                      (3, 2): 3, (3, 3): 8, (3, 4): 18, (5, 2): 10, (5, 3): 40}


@pytest.mark.parametrize("p, k", sorted(IRREDUCIBLE_COUNTS))
def test_irreducibility_matches_trial_division(p, k):
    accepted = 0
    for low in product(range(p), repeat=k):
        modulus = list(low) + [1]
        try:
            FieldSpec(p, k, tuple(modulus))
            ok = True
        except OreKexError:
            ok = False
        assert ok == naive_is_irreducible(modulus, p), modulus
        accepted += ok
    assert accepted == IRREDUCIBLE_COUNTS[p, k]


def test_mul_examples():
    a2 = ALPHA * ALPHA
    assert (ALPHA * a2).coeffs == (2, 2, 0)  # x^3 = 2x + 2 mod (x^3+3x+3, 5)
    assert (a2 * a2).coeffs == (0, 2, 2)  # alpha^4 = alpha * (2 alpha + 2)
    beta = F125.element((4, 2, 3))
    assert F125.one() * beta == beta


def test_mul_against_naive_oracle():
    rng = np.random.default_rng(11)
    m = list(F125.modulus)
    for _ in range(300):
        a = F125.from_index(int(rng.integers(0, 125)))
        b = F125.from_index(int(rng.integers(0, 125)))
        assert (a * b).coeffs == naive_mulmod(list(a.coeffs), list(b.coeffs), m, 5)


def test_inverse():
    assert F125.one().inverse() == F125.one()
    inv = ALPHA.inverse()
    assert ALPHA * inv == F125.one()
    assert inv.coeffs == (4, 0, 3)  # alpha * (3 alpha^2 + 4) = 3 (2 alpha + 2) + 4 alpha = 1
    with pytest.raises(ZeroInverseError):
        F125.zero().inverse()
    for idx in range(1, 125):
        e = F125.from_index(idx)
        assert e * e.inverse() == F125.one()


def test_frobenius_examples():
    frob1 = F125.frobenius(1)
    frob2 = F125.frobenius(2)
    assert frob1(ALPHA).coeffs == (4, 4, 2)
    assert frob2(ALPHA).coeffs == (1, 0, 3)
    ident = F125.frobenius(0)
    for idx in range(125):
        e = F125.from_index(idx)
        assert ident(e) == e
    # independent route: alpha^(5^j) by naive repeated multiplication
    m = list(F125.modulus)
    assert frob1(ALPHA).coeffs == naive_pow((0, 1, 0), 5, m, 5)
    assert frob2(ALPHA).coeffs == naive_pow((0, 1, 0), 25, m, 5)


def test_field_axioms_random_triples():
    rng = np.random.default_rng(5)
    one = F125.one()
    for _ in range(1000):
        a, b, c = (F125.from_index(int(rng.integers(0, 125))) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a + b == b + a
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == F125.zero()
        if not a.is_zero():
            assert a * a.inverse() == one


def test_frobenius_is_ring_homomorphism():
    rng = np.random.default_rng(6)
    for j in range(3):
        phi = F125.frobenius(j)
        for _ in range(200):
            a = F125.from_index(int(rng.integers(0, 125)))
            b = F125.from_index(int(rng.integers(0, 125)))
            assert phi(a + b) == phi(a) + phi(b)
            assert phi(a * b) == phi(a) * phi(b)


def test_frobenius_order_and_fixed_subfield():
    for e in F125.elements():
        v = e
        for _ in range(3):
            v = F125.frobenius(1)(v)
        assert v == e  # phi^k is the identity
    for c in range(5):
        e = F125.element(c)
        for j in range(3):
            assert F125.frobenius(j)(e) == e  # prime subfield pointwise fixed


def _check_tables(spec, pairs):
    """Table entries at the given index pairs (and at their first indices)
    against FieldElement arithmetic, which shares no code with the tables."""
    tab = tables_for(spec)
    for name in ("add", "sub", "neg", "mul", "inv", "frob", "twist_digits"):
        assert getattr(tab, name).dtype == np.uint8, name
    for i, j in pairs:
        a, b = spec.from_index(i), spec.from_index(j)
        assert int(tab.mul[i, j]) == (a * b).index
        assert int(tab.add[i, j]) == (a + b).index
        assert int(tab.sub[i, j]) == (a - b).index
    for i in sorted({i for i, _ in pairs}):
        a = spec.from_index(i)
        assert int(tab.neg[i]) == (-a).index
        if i:
            assert int(tab.inv[i]) == a.inverse().index
        for power in range(spec.k):
            assert int(tab.frob[power, i]) == spec.frobenius(power)(a).index


def test_tables_match_element_arithmetic():
    _check_tables(F125, product(range(125), repeat=2))  # every entry


@pytest.mark.parametrize("spec", [FieldSpec(13, 2, (2, 0, 1)), FieldSpec(251, 1, (0, 1)),
                                  FieldSpec(2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1))],
                         ids=["F169", "F251", "F256"])
def test_tables_match_element_arithmetic_sampled(spec):
    rng = np.random.default_rng(7)
    _check_tables(spec, rng.integers(0, spec.q, (300, 2)).tolist() + [[spec.q - 1] * 2])


def test_serialization_text():
    assert F125.to_text() == "field p=5 k=3 m=[3,3,0,1]"
    assert ALPHA.to_text() == "[0,1,0]"


def test_mismatched_specs_rejected():
    other = FieldSpec(5, 3, (2, 0, 1, 1))
    from orekex import RingMismatchError

    with pytest.raises(RingMismatchError):
        ALPHA + other.alpha()
