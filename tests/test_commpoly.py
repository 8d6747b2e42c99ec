import numpy as np
import pytest

from helpers import CommPolynomial
from orekex import OreKexError, RingMismatchError


def _random_cp(p, n, rng, max_degree=3, max_terms=4):
    terms = {}
    for _ in range(int(rng.integers(1, max_terms + 1))):
        exps = tuple(int(rng.integers(0, max_degree + 1)) for _ in range(n))
        terms[exps] = int(rng.integers(0, p))
    return CommPolynomial(p, n, terms)


def test_product_examples():
    x1 = CommPolynomial.variable(5, 2, 1)
    x2 = CommPolynomial.variable(5, 2, 2)
    prod = (x1 + 1) * (x1 + 4)
    assert prod == x1 * x1 + 4  # (x+1)(x-1) = x^2 - 1 over F_5
    f = _random_cp(5, 2, np.random.default_rng(0))
    assert CommPolynomial.constant(5, 2, 1) * f == f
    assert x1 * x2 == CommPolynomial(5, 2, {(1, 1): 1})


def test_partial_examples():
    x1 = CommPolynomial.variable(5, 2, 1)
    x2 = CommPolynomial.variable(5, 2, 2)
    assert (x1 ** 2).partial(1) == 2 * x1
    assert (x2 ** 3).partial(1).is_zero()
    assert (x1 ** 5).partial(1).is_zero()  # coefficient 5 vanishes mod 5


def test_partial_index_range():
    x1 = CommPolynomial.variable(5, 2, 1)
    with pytest.raises(OreKexError):
        x1.partial(0)
    with pytest.raises(OreKexError):
        x1.partial(3)


def test_partial_is_additive_and_leibniz():
    rng = np.random.default_rng(42)
    for _ in range(200):
        a = _random_cp(7, 3, rng)
        b = _random_cp(7, 3, rng)
        for i in (1, 2, 3):
            assert (a + b).partial(i) == a.partial(i) + b.partial(i)
            assert (a * b).partial(i) == a * b.partial(i) + a.partial(i) * b


def test_ring_axioms_random_triples():
    rng = np.random.default_rng(43)
    for _ in range(200):
        a, b, c = (_random_cp(5, 2, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + (b + c) == (a + b) + c
        assert a - a == CommPolynomial.zero(5, 2)


def test_mismatched_parameters():
    a = CommPolynomial.variable(5, 2, 1)
    b = CommPolynomial.variable(7, 2, 1)
    c = CommPolynomial.variable(5, 3, 1)
    with pytest.raises(RingMismatchError):
        a * b
    with pytest.raises(RingMismatchError):
        a + c


def test_text_form():
    x1 = CommPolynomial.variable(5, 2, 1)
    x2 = CommPolynomial.variable(5, 2, 2)
    f = 3 * x1 ** 2 + x2
    assert f.to_text() == "3*x1^2*x2^0 + 1*x1^0*x2^1"
    assert CommPolynomial.zero(5, 2).to_text() == "0"
