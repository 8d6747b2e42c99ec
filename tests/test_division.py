import time
import tracemalloc
from itertools import product
from math import isqrt

import numpy as np
import pytest

from orekex import (RING_ALIASES, FieldSpec, NotDivisibleError, OreKexError,
                    OrePolynomial, backend, f125_spec, left_cofactor, orepoly,
                    random_polynomial, right_cofactor, ring_by_name, skew_ring, weyl_ring)

from helpers import skew_mul_oracle, weyl_mul_oracle

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
    # weyl rings, on products from the oracle too; in characteristics 2 and 3
    # the factors x1^p and d2^(p+1) put exponents at and past p
    for ring, dp, dq, count in ((WEYL, 4, 3, 12), (ring_by_name("weyl3-f71"), 3, 3, 6),
                                (ring_by_name("weyl2-f101"), 4, 3, 6), (weyl_ring(2, 2), 3, 3, 6),
                                (weyl_ring(3, 2), 3, 3, 6)):
        for _ in range(count):
            p = random_polynomial(ring, dp, 6, rng)
            q = random_polynomial(ring, dq, 6, rng)
            if ring.p < 5:
                p, q = ring.x(1) ** ring.p * p, q * ring.d(2) ** (ring.p + 1)
            h = weyl_mul_oracle(p, q)
            assert right_cofactor(h, p) == q
            assert left_cofactor(h, q) == p
            # the top layers divide; a new coefficient on a term of least
            # total degree (none in characteristic 2: the term goes) leaves a
            # remainder only the last layer meets
            low = min(h.terms, key=sum)
            bad = dict(h.terms)
            bad[low] = bad[low] % (ring.p - 1) + 1 if ring.p > 2 else 0
            bad = ring.poly(bad)
            with pytest.raises(NotDivisibleError):
                right_cofactor(bad, p)
            with pytest.raises(NotDivisibleError):
                left_cofactor(bad, q)


def test_weyl_division_makes_one_product_per_cofactor_layer(monkeypatch):
    # a layer is one total degree of the cofactor, however many terms it has
    rng = np.random.default_rng(24)
    calls = []
    kernel = orepoly._weyl_mul
    monkeypatch.setattr(orepoly, "_weyl_mul", lambda *a: calls.append(a) or kernel(*a))
    for _ in range(10):
        p = random_polynomial(WEYL, 5, 8, rng)
        q = random_polynomial(WEYL, 6, 12, rng)
        h = weyl_mul_oracle(p, q)
        for divide, divisor, cofactor in ((right_cofactor, p, q), (left_cofactor, q, p)):
            calls.clear()
            assert divide(h, divisor) == cofactor
            assert len(calls) == len({sum(e) for e in cofactor.terms})


def test_weyl_division_refuses_outside_the_cofactor_box(monkeypatch):
    # x1^N + d1 over x1 + d1: the lex-leading steps x1^(N-1), x1^(N-2)*d1, ...
    # reach a negative exponent only after N steps; the cofactor's box [0,
    # tops(h) - tops(divisor)] has no d1, so the second step is refused
    n = 100_000
    t0 = time.perf_counter()
    with pytest.raises(NotDivisibleError):
        right_cofactor(WEYL.poly({(n, 0, 0, 0): 1, (0, 0, 1, 0): 1}), WEYL.x(1) + WEYL.d(1))
    assert time.perf_counter() - t0 < 1.0
    # d1^6 has no x1 and x1^3 + d1^5 has x1^3: refused before any product,
    # though d1^6's top layer divides by d1^5
    monkeypatch.setattr(orepoly, "_weyl_mul", None)
    with pytest.raises(NotDivisibleError):
        left_cofactor(WEYL.poly({(0, 0, 6, 0): 1}), WEYL.poly({(3, 0, 0, 0): 1, (0, 0, 5, 0): 1}))


def test_weyl_layer_division_sorts_each_term_a_few_times(monkeypatch):
    # a dense layer of 1,771 cofactor terms over a divisor with 4 top terms:
    # the buckets sort each term about log2 times (43,574 entries in all
    # on the right), where one sorted remainder per layer would sort the
    # whole remainder at each step (1,995,764)
    rng = np.random.default_rng(25)
    q = WEYL.poly({e: int(rng.integers(1, 71)) for e in product(range(21), repeat=4)
                   if sum(e) == 20})
    p = WEYL.x(1) + 5 * WEYL.x(2) + 2 * WEYL.d(1) + 3 * WEYL.d(2) + 1
    bound = len(q) * 4 * np.log2(len(q) * 4)
    sort, entries = OrePolynomial._of_coo.__func__, []

    def counted(cls, ring, exps, coeffs):
        entries.append(len(coeffs))
        return sort(cls, ring, exps, coeffs)

    for h, divide in ((p * q, right_cofactor), (q * p, left_cofactor)):
        entries.clear()
        monkeypatch.setattr(OrePolynomial, "_of_coo", classmethod(counted))
        assert divide(h, p) == q
        monkeypatch.undo()
        assert sum(entries) < bound


def test_weyl_layer_too_long_for_its_product_is_refused_first(monkeypatch):
    # x has two terms and no d, so a layer of k terms times x takes exactly 2k
    # Leibniz steps: with the limit at 100, x^50 / x makes its 50-term layer's
    # product, and x^51 / x is refused before its 51-term layer's product.
    # Peeling one term at a time, as division did before it went by layers,
    # made 2-step products and divided x^51 too: a cofactor layer is refused
    # when its one product would be, though its terms' products fit
    x = WEYL.x(1) + WEYL.x(2)
    powers = [x ** 49, x ** 50, x ** 51]
    monkeypatch.setattr(orepoly, "MAX_WEYL_STEPS", 100)
    assert right_cofactor(powers[1], x) == powers[0]
    monkeypatch.setattr(orepoly, "_weyl_mul", None)
    with pytest.raises(OreKexError, match="100 steps"):
        right_cofactor(powers[2], x)


def test_division_far_from_the_origin():
    # exponent ranges pin the cofactor, and the Kronecker line has one cell
    d1 = SKEW.d(1)
    for a in (20000, 2 ** 62):
        h, q = SKEW.poly({(a, 1): 2}), SKEW.poly({(a - 1, 1): 2})
        assert right_cofactor(h, d1) == q and left_cofactor(h, d1) == q
        with pytest.raises(NotDivisibleError):
            right_cofactor(h, d1 + 1)


def test_sparse_division_in_three_variables_builds_no_grid():
    # p*q spans a 3001 x 8 x 3006 box, over the cell limit: the product, and
    # the value of its terms, are refused where they are made
    ring3 = skew_ring(f125_spec(), (1, 2, 1))
    p = ring3.poly({(3000, 0, 0): 7, (0, 7, 5): 3})
    q = ring3.poly({(0, 0, 3000): 11, (1, 1, 0): 2})
    # this p*q spans 2002 x 1508 x 1 cells, inside the limit, but its
    # Kronecker line needs 6,038,031 (weights 3016, 2, 1): division refuses
    # it as the product does, before any array of the line's size exists
    p2 = ring3.poly({(2000, 0, 0): 7, (0, 7, 0): 3})
    q2 = ring3.poly({(0, 1500, 0): 11, (1, 1, 0): 2})
    h2 = skew_mul_oracle(p2, q2)
    tracemalloc.start()
    try:
        with pytest.raises(OreKexError, match="limit"):
            p * q
        with pytest.raises(OreKexError, match="limit"):
            skew_mul_oracle(p, q)
        with pytest.raises(OreKexError, match="limit"):
            right_cofactor(h2, p2)
        with pytest.raises(OreKexError, match="limit"):
            left_cofactor(h2, q2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


# every skew alias, and rings whose lines twist by other sigmas, fields and axes
BLOCK_RINGS = [pytest.param(ring_by_name(name), id=name) for name in sorted(RING_ALIASES)
               if ring_by_name(name).is_skew] + [
    pytest.param(skew_ring(FieldSpec(2, 2, (1, 1, 1)), (1, 1)), id="f4"),
    pytest.param(skew_ring(f125_spec(), (1, 2)), id="sigma12"),
    pytest.param(skew_ring(f125_spec(), (1, 2, 1)), id="three-variable"),
]


@pytest.fixture
def lines(monkeypatch):
    """(divisor length, cofactor length) on the Kronecker line of every division."""
    seen = []
    real = backend._right_quotient

    def spy(tab, s, D, H, n):
        seen.append((len(D), n))
        return real(tab, s, D, H, n)

    monkeypatch.setattr(backend, "_right_quotient", spy)
    return seen


def _line_positions(h):
    """Kronecker-line position of each term of h, counted from its lowest."""
    exps = np.array(list(h.terms), dtype=np.int64).T
    lo = exps.min(1)
    w = backend._weights(h.ring.sigma_powers, h.ring.field.k, (exps.max(1) - lo).tolist())
    pos = np.array(w) @ (exps - lo[:, None])
    return dict(zip(h.terms, (pos - pos.min()).tolist()))


@pytest.mark.parametrize("ring", BLOCK_RINGS)
def test_division_in_blocks_against_the_oracle(ring, lines):
    # cofactors at least three times the divisor's length on the line, so the
    # quotient is found in three or more blocks
    rng = np.random.default_rng(28)
    short, long = (2, 12) if ring.n == 2 else (1, 8)
    for right in (True, False):
        d = random_polynomial(ring, short, 6, rng)
        c = random_polynomial(ring, long, 40, rng)
        h = skew_mul_oracle(d, c) if right else skew_mul_oracle(c, d)
        divide, other = (right_cofactor, left_cofactor) if right else (left_cofactor, right_cofactor)
        lines.clear()
        assert divide(h, d) == c and other(h, c) == d
        len_d, n = lines[0]
        assert n >= 3 * len_d
        # a new coefficient on the term nearest the middle of the cofactor's
        # line: blocks of at most n/3 cells put it in neither the first nor the
        # last block, and every exponent range and line position stays put
        pos = _line_positions(h)
        e = min(h.terms, key=lambda e: abs(pos[e] - n // 2))
        assert n / 3 <= pos[e] < 2 * n / 3
        bad = dict(h.terms)
        bad[e] = bad[e] % (ring.n_coeff_values - 1) + 1
        bad = ring.poly(bad)
        with pytest.raises(NotDivisibleError):
            divide(bad, d)
        with pytest.raises(NotDivisibleError):
            other(bad, c)


@pytest.mark.parametrize("ring", BLOCK_RINGS)
def test_division_across_zero_blocks(ring, lines):
    # d1^N puts the cofactor's two parts far apart on the line, so the blocks
    # between them have a zero remainder and a zero quotient
    rng = np.random.default_rng(29)
    d = random_polynomial(ring, 2, 6, rng)
    c = ring.d(1) ** 1000 * random_polynomial(ring, 3, 8, rng) + random_polynomial(ring, 3, 8, rng)
    assert right_cofactor(d * c, d) == c
    assert left_cofactor(c * d, d) == c
    assert all(n >= 3 * len_d for len_d, n in lines)


@pytest.mark.parametrize("ring", [
    pytest.param(skew_ring(f125_spec(), (1, 1)), id="F125"),
    pytest.param(skew_ring(FieldSpec(13, 2, (11, 0, 1)), (1, 1)), id="F169"),
    pytest.param(skew_ring(FieldSpec(2, 2, (1, 1, 1)), (1, 1)), id="F4"),
    pytest.param(skew_ring(f125_spec(), (1, 2, 1)), id="three-variable"),
])
def test_division_with_packed_newton_and_block_products(ring, monkeypatch):
    # Newton levels and blocks of at most 170 cells pack 3 digits a transform
    # in F_125, larger ones 2: a short divisor makes only the first kind, a
    # longer one both; the fields with k = 2 pack both of their digits
    slots = set()
    real = backend._packing

    def spy(tab, cells):
        pack = real(tab, cells)
        slots.add(pack[1])
        return pack

    monkeypatch.setattr(backend, "_packing", spy)
    rng = np.random.default_rng(30)
    for short in (4, 12):
        d = random_polynomial(ring, short, 15 * (short // 4), rng)
        c = random_polynomial(ring, 30, 60, rng)
        for right in (True, False):
            h = skew_mul_oracle(d, c) if right else skew_mul_oracle(c, d)
            divide, other = (right_cofactor, left_cofactor) if right else (left_cofactor, right_cofactor)
            assert divide(h, d) == c and other(h, c) == d
            # a new coefficient on the term in the middle of the line
            pos = _line_positions(h)
            e = sorted(h.terms, key=pos.get)[len(h) // 2]
            bad = dict(h.terms)
            bad[e] = bad[e] % (ring.n_coeff_values - 1) + 1
            bad = ring.poly(bad)
            with pytest.raises(NotDivisibleError):
                divide(bad, d)
            with pytest.raises(NotDivisibleError):
                other(bad, c)
    assert slots == ({2, 3} if ring.field.k == 3 else {2})


@pytest.mark.parametrize("cells", [255, 256, 257])
def test_cofactors_around_the_newton_cutoff(cells, monkeypatch):
    # divisor and cofactor of `cells` cells on the line (powers of d2, of line
    # weight 1): blocks of m = ceil(cells / c) cells for c = ceil(cells /
    # (cells // 2)), so the inverse's top Newton level pairs u's m cells with
    # y's ceil(m / 2), far under the cutoff even where a whole-cofactor
    # inverse (cells * ceil(cells / 2) pairs at 257) was past it; the blocks'
    # two spectra are made either way
    spectra, levels = [], []
    real_spectra, real_inverse = backend._spectra, backend._series_inverse
    monkeypatch.setattr(backend, "_spectra", lambda *a: spectra.append(1) or real_spectra(*a))
    monkeypatch.setattr(backend, "_series_inverse",
                        lambda tab, s, u, n: levels.append((len(u[:n]), n)) or real_inverse(tab, s, u, n))
    count = -(-cells // (cells // 2))
    m = -(-cells // count)
    rng = np.random.default_rng(32)
    d, c = (SKEW.poly({(0, e): int(rng.integers(1, SKEW.n_coeff_values)) for e in range(cells)})
            for _ in range(2))
    h = d * c
    bad = dict(h.terms)
    e = sorted(bad)[len(bad) // 2]
    bad[e] = bad[e] % (SKEW.n_coeff_values - 1) + 1
    bad = SKEW.poly(bad)
    for divide, known, want in ((right_cofactor, d, c), (left_cofactor, c, d)):
        spectra.clear()
        levels.clear()
        assert divide(h, known) == want
        assert levels[0] == (m, m)
        assert m * ((m + 1) // 2) <= backend.DIRECT_PAIRS and len(spectra) == 2
        with pytest.raises(NotDivisibleError):
            divide(bad, known)


@pytest.mark.parametrize("len_d, pairs", [(128, 1 << 15), (99, (1 << 15) + 1)])
def test_top_newton_level_at_exactly_the_cutoff(len_d, pairs, monkeypatch):
    # a dense divisor of len_d cells and a sparse cofactor of n = m^2 cells on
    # the line (powers of d2, of line weight 1): blocks of isqrt(n) = m cells,
    # longer than the divisor, so the inverse's top Newton level pairs u's
    # len_d cells with y's ceil(m / 2): 128 * 256 = 2^15 pairs, the last level
    # summed directly, and 99 * 331 = 2^15 + 1, the only one by transforms;
    # the blocks' two spectra are made either way.  The cofactor's middle is
    # zero, so only its first and last blocks make products
    spectra, levels = [], []
    real_spectra, real_inverse = backend._spectra, backend._series_inverse
    monkeypatch.setattr(backend, "_spectra", lambda *a: spectra.append(1) or real_spectra(*a))
    monkeypatch.setattr(backend, "_series_inverse",
                        lambda tab, s, u, n: levels.append((len(u[:n]), n)) or real_inverse(tab, s, u, n))
    m = 2 * (pairs // len_d) - 1
    rng = np.random.default_rng(32)

    def draw(exps):
        return SKEW.poly({(0, e): int(rng.integers(1, SKEW.n_coeff_values)) for e in exps})

    d, c = draw(range(len_d)), draw([0, 1, 2, m * m - 3, m * m - 2, m * m - 1])
    for divide, h in ((right_cofactor, d * c), (left_cofactor, c * d)):
        spectra.clear()
        levels.clear()
        assert divide(h, d) == c
        cells, top = levels[0]
        assert (cells, top) == (len_d, m) and cells * ((top + 1) // 2) == pairs
        assert len(spectra) == 2 + (pairs > backend.DIRECT_PAIRS)
        # a new top coefficient leaves the quotient alone and R's top nonzero
        bad = dict(h.terms)
        e = max(bad)
        bad[e] = bad[e] % (SKEW.n_coeff_values - 1) + 1
        with pytest.raises(NotDivisibleError):
            divide(SKEW.poly(bad), d)


def _last_axis_value(ring, degree, rng):
    """Every power of the last variable up to ``degree``, times d^1 on each
    other axis, with random nonzero coefficients: on the Kronecker line its
    cells sit w = sigma_n apart, so it is w * degree + 1 cells long."""
    return ring.poly({(1,) * (ring.n - 1) + (1 + e,): int(rng.integers(1, ring.n_coeff_values))
                      for e in range(degree + 1)})


@pytest.mark.parametrize("ring", BLOCK_RINGS)
@pytest.mark.parametrize("case", ["shorter", "one under", "one over"])
def test_blocks_of_half_the_divisor(ring, case, lines, monkeypatch):
    # a divisor of L = 26w + 1 cells on the line and a cofactor of n cells: c
    # = ceil(n / (L // 2)) blocks of m = ceil(n / c) cells, so n < L takes two
    # blocks, and n = 4m - 1 and 4m + 1 for m = L // 2 take four and five
    w = ring.sigma_powers[-1]
    size, half = 26 * w + 1, 13 * w
    n = {"shorter": 19 * w + 1, "one under": 4 * half - 1, "one over": 4 * half + 1}[case]
    count = {"shorter": 2, "one under": 4, "one over": 5}[case]
    m = -(-n // count)
    products = []
    real = backend._product
    monkeypatch.setattr(backend, "_product",
                        lambda *a: products.append((len(a[3]), *a[4])) or real(*a))
    rng = np.random.default_rng(33)
    d, c = _last_axis_value(ring, 26, rng), _last_axis_value(ring, (n - 1) // w, rng)
    for divide, h in ((right_cofactor, skew_mul_oracle(d, c)), (left_cofactor, skew_mul_oracle(c, d))):
        lines.clear()
        products.clear()
        assert divide(h, d) == c
        assert lines == [(size, n)]
        # y and D times each block, at 2m - 1 and L + m - 1 cells unwrapped
        blocks = [min(m, n - o) for o in range(0, n, m)]
        assert products == [(b, backend._smooth(t)) for b in blocks
                            for t in (2 * m - 1, size + m - 1)]
        # a new coefficient in the middle of each block
        for o in range(0, n, m):
            bad = dict(h.terms)
            e = (2,) * (ring.n - 1) + (2 + (o + m // 2) // w,)
            bad[e] = bad.get(e, 0) % (ring.n_coeff_values - 1) + 1
            with pytest.raises(NotDivisibleError):
                divide(ring.poly(bad), d)


def test_short_divisor_costs_about_root_n_blocks(monkeypatch):
    # (d1 + 1) divides d1^N + 1 for odd N, and the cofactor is dense; blocks no
    # shorter than sqrt(n) keep the products near 2 sqrt(n), not n
    calls = []
    real = backend._product
    monkeypatch.setattr(backend, "_product", lambda *a: calls.append(1) or real(*a))
    N = 40001
    h, d = SKEW.poly({(N, 0): 1, (0, 0): 1}), SKEW.d(1) + 1
    want = SKEW.poly({(e, 0): 1 if e % 2 == 0 else SKEW.p - 1 for e in range(N)})
    for divide in (right_cofactor, left_cofactor):
        calls.clear()
        assert divide(h, d) == want
        assert len(calls) < 3 * isqrt(N)


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
