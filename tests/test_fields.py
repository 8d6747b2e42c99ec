from itertools import product

import numpy as np
import pytest

from orekex import FieldSpec, OreKexError, f125_spec, fields
from orekex.fields import tables_for

from helpers import (ZeroInverseError, alpha, element, elements, field_one, field_zero,
                     frobenius, from_index, naive_is_irreducible, naive_mulmod, naive_pow,
                     rabin_is_irreducible)

F125 = f125_spec()
ALPHA = alpha(F125)


def test_spec_validation():
    with pytest.raises(OreKexError):
        FieldSpec(4, 2, (1, 1, 1))  # p not prime
    with pytest.raises(OreKexError):
        FieldSpec(5, 3, (3, 3, 0, 2))  # not monic
    with pytest.raises(OreKexError):
        FieldSpec(5, 2, (4, 0, 1))  # x^2 + 4 = x^2 - 1 has roots
    with pytest.raises(OreKexError):
        FieldSpec(2, 4, (1, 0, 1, 0, 1))  # (x^2+x+1)^2
    with pytest.raises(OreKexError, match="factor of degree 1"):
        FieldSpec(2, 8, (1,) + (0,) * 7 + (1,))  # x^8 + 1 = (x + 1)^8
    FieldSpec(2, 4, (1, 1, 0, 0, 1))  # irreducible quartic passes
    FieldSpec(2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1))  # irreducible octic passes
    # F_{5^6} is past the table limit: refused whether or not m is irreducible
    for modulus in ((2, 0, 0, 0, 0, 0, 1), (1, 0, 0, 0, 1, 1, 1)):
        with pytest.raises(OreKexError, match="over the 256-element limit"):
            FieldSpec(5, 6, modulus)
    assert not naive_is_irreducible([2, 0, 0, 0, 0, 0, 1], 5)
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
        assert ok == naive_is_irreducible(modulus, p) == rabin_is_irreducible(p, k, modulus), modulus
        accepted += ok
    assert accepted == IRREDUCIBLE_COUNTS[p, k]


def test_irreducibility_at_the_characteristic_bound():
    # 2^31 - 1 = 3 (mod 4), so -1 is not a square: x^2 + 1 is irreducible,
    # and x^2 - 1 and x^2 are not; trial division is out of reach here.  A
    # FieldSpec of that order is past the table limit, whatever its modulus
    p = (1 << 31) - 1
    for modulus, ok in (((1, 0, 1), True), ((p - 1, 0, 1), False), ((0, 0, 1), False)):
        assert rabin_is_irreducible(p, 2, modulus) == ok
        with pytest.raises(OreKexError, match="over the 256-element limit"):
            FieldSpec(p, 2, modulus)


def test_order_is_refused_before_the_primality_test(monkeypatch):
    """An order past the table limit is refused before is_prime runs: by
    k alone when k passes the limit's bit length, else by p^k."""
    def no_primality(n):
        raise AssertionError("is_prime ran")

    monkeypatch.setattr(fields, "is_prime", no_primality)
    for p, k in (((1 << 31) - 1, 2), (2, 9), (10 ** 4000 + 1, 10 ** 6)):
        with pytest.raises(OreKexError, match="over the 256-element limit"):
            FieldSpec(p, k, (1, 0, 1))


def test_mul_examples():
    a2 = ALPHA * ALPHA
    assert (ALPHA * a2).coeffs == (2, 2, 0)  # x^3 = 2x + 2 mod (x^3+3x+3, 5)
    assert (a2 * a2).coeffs == (0, 2, 2)  # alpha^4 = alpha * (2 alpha + 2)
    beta = element(F125, (4, 2, 3))
    assert field_one(F125) * beta == beta


def test_mul_against_naive_oracle():
    rng = np.random.default_rng(11)
    m = list(F125.modulus)
    for _ in range(300):
        a = from_index(F125, int(rng.integers(0, 125)))
        b = from_index(F125, int(rng.integers(0, 125)))
        assert (a * b).coeffs == naive_mulmod(list(a.coeffs), list(b.coeffs), m, 5)


def test_inverse():
    assert field_one(F125).inverse() == field_one(F125)
    inv = ALPHA.inverse()
    assert ALPHA * inv == field_one(F125)
    assert inv.coeffs == (4, 0, 3)  # alpha * (3 alpha^2 + 4) = 3 (2 alpha + 2) + 4 alpha = 1
    with pytest.raises(ZeroInverseError):
        field_zero(F125).inverse()
    for idx in range(1, 125):
        e = from_index(F125, idx)
        assert e * e.inverse() == field_one(F125)


def test_frobenius_examples():
    frob1 = frobenius(F125, 1)
    frob2 = frobenius(F125, 2)
    assert frob1(ALPHA).coeffs == (4, 4, 2)
    assert frob2(ALPHA).coeffs == (1, 0, 3)
    ident = frobenius(F125, 0)
    for idx in range(125):
        e = from_index(F125, idx)
        assert ident(e) == e
    # independent route: alpha^(5^j) by naive repeated multiplication
    m = list(F125.modulus)
    assert frob1(ALPHA).coeffs == naive_pow((0, 1, 0), 5, m, 5)
    assert frob2(ALPHA).coeffs == naive_pow((0, 1, 0), 25, m, 5)


def test_field_axioms_random_triples():
    rng = np.random.default_rng(5)
    one = field_one(F125)
    for _ in range(1000):
        a, b, c = (from_index(F125, int(rng.integers(0, 125))) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a + b == b + a
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == field_zero(F125)
        if not a.is_zero():
            assert a * a.inverse() == one


def test_frobenius_is_ring_homomorphism():
    rng = np.random.default_rng(6)
    for j in range(3):
        phi = frobenius(F125, j)
        for _ in range(200):
            a = from_index(F125, int(rng.integers(0, 125)))
            b = from_index(F125, int(rng.integers(0, 125)))
            assert phi(a + b) == phi(a) + phi(b)
            assert phi(a * b) == phi(a) * phi(b)


def test_frobenius_order_and_fixed_subfield():
    for e in elements(F125):
        v = e
        for _ in range(3):
            v = frobenius(F125, 1)(v)
        assert v == e  # phi^k is the identity
    for c in range(5):
        e = element(F125, c)
        for j in range(3):
            assert frobenius(F125, j)(e) == e  # prime subfield pointwise fixed


def _check_tables(spec, pairs):
    """Table entries at the given index pairs (and at their first indices)
    against FieldElement arithmetic, which shares no code with the tables."""
    tab = tables_for(spec)
    for name in ("add", "sub", "neg", "mul", "inv", "frob", "twist_digits"):
        assert getattr(tab, name).dtype == np.uint8, name
    for i, j in pairs:
        a, b = from_index(spec, i), from_index(spec, j)
        assert int(tab.mul[i, j]) == (a * b).index
        assert int(tab.add[i, j]) == (a + b).index
        assert int(tab.sub[i, j]) == (a - b).index
    for i in sorted({i for i, _ in pairs}):
        a = from_index(spec, i)
        assert int(tab.neg[i]) == (-a).index
        if i:
            assert int(tab.inv[i]) == a.inverse().index
        for power in range(spec.k):
            assert int(tab.frob[power, i]) == frobenius(spec, power)(a).index


def test_tables_match_element_arithmetic():
    _check_tables(F125, product(range(125), repeat=2))  # every entry


@pytest.mark.parametrize("spec", [FieldSpec(13, 2, (2, 0, 1)), FieldSpec(251, 1, (0, 1)),
                                  FieldSpec(2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1))],
                         ids=["F169", "F251", "F256"])
def test_tables_match_element_arithmetic_sampled(spec):
    rng = np.random.default_rng(7)
    _check_tables(spec, rng.integers(0, spec.q, (300, 2)).tolist() + [[spec.q - 1] * 2])


def test_serialization_text():
    assert ALPHA.to_text() == "[0,1,0]"


def test_mismatched_specs_rejected():
    other = FieldSpec(5, 3, (2, 0, 1, 1))
    from orekex import RingMismatchError

    with pytest.raises(RingMismatchError):
        ALPHA + alpha(other)
