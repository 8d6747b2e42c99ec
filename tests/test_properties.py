"""Property tests on every built-in ring: the ring axioms, products against
the oracles in helpers, and exact division recovering each factor of an
oracle product, shifted by monomials, or refusing a product with one
coefficient changed."""

import pytest
from hypothesis import given, settings, strategies as st

from orekex import NotDivisibleError, left_cofactor, right_cofactor, ring_by_name
from orekex.rings import RING_ALIASES

from helpers import skew_mul_oracle, weyl_mul_oracle

RINGS = {name: ring_by_name(name) for name in RING_ALIASES}


def _oracle(ring):
    return skew_mul_oracle if ring.is_skew else weyl_mul_oracle


def _values(ring, min_terms=0, top=2):
    """Values of up to four terms, every exponent at most ``top``."""
    monomials = st.tuples(*[st.integers(0, top)] * ring.exp_len)
    coeffs = st.integers(1, ring.n_coeff_values - 1)
    return st.dictionaries(monomials, coeffs, min_size=min_terms, max_size=4).map(ring.poly)


@pytest.mark.parametrize("name", RINGS)
@settings(max_examples=20, derandomize=True, deadline=None)
@given(data=st.data())
def test_ring_axioms(name, data):
    ring = RINGS[name]
    a, b, c = (data.draw(_values(ring)) for _ in range(3))
    zero, one = ring.zero(), ring.one()
    assert a + b == b + a and (a + b) + c == a + (b + c)
    assert a + zero == a and a - a == zero and a + (-a) == zero
    assert a * one == a == one * a and a * zero == zero == zero * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c and (a + b) * c == a * c + b * c
    if a and b:
        assert a * b == _oracle(ring)(a, b)
    k = data.draw(st.integers(0, ring.p - 1))  # the prime subfield is central
    assert k * a == a * k == ring.constant(k) * a


@pytest.mark.parametrize("name", RINGS)
@settings(max_examples=20, derandomize=True, deadline=None)
@given(data=st.data())
def test_exact_division_recovers_each_factor(name, data):
    ring = RINGS[name]
    mul = _oracle(ring)
    p, q = (data.draw(_values(ring, min_terms=1)) for _ in range(2))
    # monomial shifts: far in a skew ring, a few steps in a weyl ring, whose
    # products expand by the exponents
    top = 40 if ring.is_skew else 3
    left, right = (ring.poly({data.draw(st.tuples(*[st.integers(0, top)] * ring.exp_len)): 1})
                   for _ in range(2))
    p, q = mul(left, p), mul(q, right)
    h = mul(p, q)
    assert right_cofactor(h, p) == q
    assert left_cofactor(h, q) == p
    # one changed coefficient adds a monomial term, which no divisor of two
    # or more terms divides: its product with any nonzero value has a
    # leading and a trailing term
    terms = dict(h.terms)
    exps = data.draw(st.sampled_from(sorted(terms)))
    terms[exps] = data.draw(st.sampled_from(
        [c for c in range(1, ring.n_coeff_values) if c != terms[exps]]))
    changed = ring.poly(terms)
    if len(p) > 1:
        with pytest.raises(NotDivisibleError):
            right_cofactor(changed, p)
    if len(q) > 1:
        with pytest.raises(NotDivisibleError):
            left_cofactor(changed, q)
