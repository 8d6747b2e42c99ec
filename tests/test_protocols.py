import numpy as np
import pytest

from orekex import (CommutingSetup, EncodingError, FactorizationProver,
                    NotDivisibleError, OreKexError, OrePolynomial, PrivateTuple, ProtocolError,
                    ProtocolTranscript, PublicParameters, REVEAL_P, REVEAL_PI,
                    decode_bytes, decrypt, encode_bytes, encrypt, encryption_keygen,
                    grading_vector, kex_finalize, kex_message, random_polynomial,
                    ring_by_name, run_key_exchange, run_zkp, sign, signature_keygen,
                    signature_sides, three_pass_exchange, verify_signature,
                    zkp_verify_round)
from orekex import backend
from orekex.protocols import ZkpCommitment, noncentral_witness

SKEW = ring_by_name("f125-skew2")
WEYL = ring_by_name("weyl2-f71")


def _params(ring, rng, d_l=6, d_pq=2, nu=2):
    # weyl products densify fast; sparse inputs keep these tests quick
    if ring.is_weyl:
        return PublicParameters.generate(ring, min(d_l, 3), d_pq, nu, rng,
                                         terms_l=8, terms_pq=5)
    return PublicParameters.generate(ring, d_l, d_pq, nu, rng)


# -- parameters and private tuples ------------------------------------------------

def test_public_parameter_invariants():
    rng = np.random.default_rng(40)
    params = _params(SKEW, rng)
    assert not params.public_l.commutes_with(params.left_gen)
    assert not params.public_l.commutes_with(params.right_gen)
    assert not params.public_l.commutes_with(params.witness)
    with pytest.raises(ProtocolError):
        PublicParameters(SKEW, params.public_l, params.public_l, params.right_gen, 2)


def test_central_element_has_no_witness():
    with pytest.raises(ProtocolError):
        noncentral_witness(SKEW.constant(3))


def test_private_tuple_noncommuting():
    rng = np.random.default_rng(41)
    for ring in (SKEW, WEYL):
        params = _params(ring, rng)
        priv = PrivateTuple.generate(params, rng)
        assert not priv.p_side.commutes_with(params.public_l)
        assert not priv.q_side.commutes_with(params.public_l)
        assert priv.p_side == priv.f(params.left_gen)
        assert priv.q_side == priv.g(params.right_gen)


def test_weyl_private_tuple_never_graded():
    rng = np.random.default_rng(42)
    params = _params(WEYL, rng)
    for _ in range(20):
        priv = PrivateTuple.generate(params, rng)
        assert grading_vector(priv.p_side) is None
        assert grading_vector(priv.q_side) is None


def test_transcript_carries_only_polynomials():
    t = ProtocolTranscript("exchange")
    t.append("A", "A_part", SKEW.d(1))
    rng = np.random.default_rng(43)
    priv = PrivateTuple.generate(_params(SKEW, rng), rng)
    with pytest.raises(TypeError):
        t.append("A", "oops", priv)
    with pytest.raises(TypeError):
        t.append("A", "oops", (priv.p_side, priv.q_side))


# -- key exchange ------------------------------------------------------------------

def test_kex_agreement_small_sessions():
    rng = np.random.default_rng(44)
    for ring in (SKEW, WEYL):
        for _ in range(10):
            params = _params(ring, rng)
            result = run_key_exchange(params, rng)
            a_key = kex_finalize(params, result.alice,
                                 kex_message(params, result.bob))
            assert a_key == result.shared_key
            assert [e.label for e in result.transcript.entries] == ["A_part", "B_part"]


def test_kex_message_purity_and_degree():
    rng = np.random.default_rng(45)
    params = _params(SKEW, rng)
    priv = PrivateTuple.generate(params, rng)
    m1 = kex_message(params, priv)
    m2 = kex_message(params, priv)
    assert m1 == m2
    expected = (priv.p_side.total_degree() + params.public_l.total_degree()
                + priv.q_side.total_degree())
    assert m1.total_degree() == expected


def test_kex_tampered_message_breaks_agreement():
    rng = np.random.default_rng(46)
    params = _params(SKEW, rng)
    result = run_key_exchange(params, rng)
    b_part = result.transcript.entries[1].message
    exps, coeff = next(iter(b_part.terms.items()))
    tampered_terms = dict(b_part.terms)
    tampered_terms[exps] = coeff % (SKEW.n_coeff_values - 1) + 1
    tampered = OrePolynomial(SKEW, tampered_terms)
    assert tampered != b_part
    key = kex_finalize(params, result.alice, tampered)
    assert key != result.shared_key


def test_kex_rejects_zero_peer_message():
    rng = np.random.default_rng(47)
    params = _params(SKEW, rng)
    priv = PrivateTuple.generate(params, rng)
    with pytest.raises(ProtocolError):
        kex_finalize(params, priv, SKEW.zero())


# -- three-pass --------------------------------------------------------------------

def test_three_pass_round_trip():
    rng = np.random.default_rng(48)
    for ring, runs, terms in ((SKEW, 5, None), (WEYL, 2, 4)):
        setup = CommutingSetup.generate(ring, 2, 2, rng, terms_pq=terms)
        for _ in range(runs):
            secret = random_polynomial(ring, 3, 4, rng)
            if secret.commutes_with(setup.left_gen) or secret.commutes_with(setup.right_gen):
                continue
            result = three_pass_exchange(setup, secret, rng)
            assert result.recovered == secret
            assert [e.label for e in result.transcript.entries] == [
                "pass1", "pass2", "pass3"]


def test_three_pass_middle_message_structure():
    rng = np.random.default_rng(49)
    setup = CommutingSetup.generate(SKEW, 2, 2, rng)
    secret = random_polynomial(SKEW, 4, 6, rng)
    while secret.commutes_with(setup.left_gen) or secret.commutes_with(setup.right_gen):
        secret = random_polynomial(SKEW, 4, 6, rng)
    result = three_pass_exchange(setup, secret, rng)
    a, b = result.alice, result.bob
    p_int = result.transcript.entries[1].message
    assert p_int == b.p_side * a.p_side * secret * a.q_side * b.q_side
    assert p_int == a.p_side * b.p_side * secret * b.q_side * a.q_side


def test_three_pass_rejects_commuting_secret():
    rng = np.random.default_rng(50)
    setup = CommutingSetup.generate(SKEW, 2, 2, rng)
    with pytest.raises(ProtocolError):
        three_pass_exchange(setup, SKEW.one(), rng)


# -- encryption --------------------------------------------------------------------

def _encryption_pair(ring, rng):
    params = _params(ring, rng)
    return encryption_keygen(params, rng)


def test_encrypt_decrypt_round_trip():
    rng = np.random.default_rng(51)
    pub, sec = _encryption_pair(SKEW, rng)
    for _ in range(10):
        n = int(rng.integers(1, 33))
        data = bytes(int(b) for b in rng.integers(0, 256, size=n))
        ct = encrypt(pub, encode_bytes(SKEW, data), rng)
        assert decode_bytes(decrypt(sec, ct)) == data


def test_p_final_agreement():
    rng = np.random.default_rng(52)
    pub, sec = _encryption_pair(SKEW, rng)
    message = SKEW.one()
    ct = encrypt(pub, message, rng)
    # m = 1 leaves the bare shared product, which the key owner rebuilds
    p_final_alice = sec.priv.p_side * ct.p_bob * sec.priv.q_side
    assert ct.m_e == p_final_alice


def test_ciphertext_corruption_never_passes_silently():
    rng = np.random.default_rng(53)
    pub, sec = _encryption_pair(SKEW, rng)
    data = b"attack at dawn"
    ct = encrypt(pub, encode_bytes(SKEW, data), rng)
    for _ in range(20):
        exps = list(ct.m_e.terms)[int(rng.integers(0, len(ct.m_e.terms)))]
        terms = dict(ct.m_e.terms)
        terms[exps] = (terms[exps] + int(rng.integers(1, SKEW.n_coeff_values - 1))) \
            % SKEW.n_coeff_values
        if terms[exps] == 0:
            del terms[exps]
        corrupted = type(ct)(OrePolynomial(SKEW, terms), ct.p_bob)
        with pytest.raises((NotDivisibleError, EncodingError)):
            decode_bytes(decrypt(sec, corrupted))


def test_encrypt_preconditions():
    rng = np.random.default_rng(54)
    pub, _ = _encryption_pair(SKEW, rng)
    with pytest.raises(ProtocolError):
        encrypt(pub, SKEW.zero(), rng)


# -- byte encoding -----------------------------------------------------------------

def test_encoding_round_trip_and_errors():
    rng = np.random.default_rng(55)
    for ring in (SKEW, WEYL):
        for _ in range(30):
            n = int(rng.integers(1, 65))
            data = bytes(int(b) for b in rng.integers(0, 256, size=n))
            poly = encode_bytes(ring, data)
            assert decode_bytes(poly) == data
    with pytest.raises(EncodingError):
        encode_bytes(SKEW, b"")
    with pytest.raises(EncodingError):
        encode_bytes(SKEW, b"too big for degree zero", degree_bound=0)
    with pytest.raises(EncodingError):
        decode_bytes(SKEW.zero())


# -- signatures --------------------------------------------------------------------

def test_sign_verify_honest_runs():
    rng = np.random.default_rng(56)
    pub, sec = signature_keygen(SKEW, rng)
    for _ in range(10):
        message = random_polynomial(SKEW, 3, 5, rng)
        sig = sign(sec, message, rng)
        assert verify_signature(pub, sig)
    # weyl products densify fast; keep that ring tiny
    pub, sec = signature_keygen(WEYL, rng, d_l=2, d_a=1, terms=4)
    for _ in range(3):
        message = random_polynomial(WEYL, 2, 4, rng)
        sig = sign(sec, message, rng, d_k=1, d_q=1, terms=4)
        assert verify_signature(pub, sig)


def test_signature_identity_chain():
    rng = np.random.default_rng(57)
    pub, sec = signature_keygen(SKEW, rng)
    message = random_polynomial(SKEW, 3, 5, rng)
    sig = sign(sec, message, rng)
    left, right = signature_sides(pub, sig)
    # expanding (q1 k1 + gamma a1) L (k2 q2 + a2 gamma) term by term
    # reproduces the right side computed from the public pieces
    m_r1 = sig.m - sig.r1
    m_r2 = sig.m - sig.r2
    assert left == m_r1 * sec.public_l * m_r2
    assert right == left


def test_signature_tamper_rejected():
    rng = np.random.default_rng(58)
    pub, sec = signature_keygen(SKEW, rng)
    message = random_polynomial(SKEW, 3, 5, rng)
    sig = sign(sec, message, rng)
    exps = next(iter(sig.m.terms))
    terms = dict(sig.m.terms)
    terms[exps] = terms[exps] % (SKEW.n_coeff_values - 1) + 1
    tampered = type(sig)(OrePolynomial(SKEW, terms), sig.gamma, sig.q1, sig.r1,
                         sig.q2, sig.r2, sig.eps1, sig.eps2)
    assert not verify_signature(pub, tampered)


def test_signature_zero_q_degenerate_case():
    rng = np.random.default_rng(59)
    pub, sec = signature_keygen(SKEW, rng)
    message = random_polynomial(SKEW, 3, 5, rng)
    sig = sign(sec, message, rng)
    zero = SKEW.zero()
    r1 = message - sig.gamma * sec.a1
    r2 = message - sec.a2 * sig.gamma
    degenerate = type(sig)(message, sig.gamma, zero, r1, zero, r2, sig.eps1, sig.eps2)
    assert verify_signature(pub, degenerate)


# -- interactive factorization proof ------------------------------------------------

def _prover(ring, rng):
    ell1 = random_polynomial(ring, 2, 4, rng)
    ell2 = random_polynomial(ring, 2, 4, rng)
    while max(ell1.d_degrees()) < 1:
        ell1 = random_polynomial(ring, 2, 4, rng)
    while max(ell2.d_degrees()) < 1:
        ell2 = random_polynomial(ring, 2, 4, rng)
    return FactorizationProver(ell1, ell2, blind_degree=3, blind_terms=8)


def test_zkp_honest_completeness():
    rng = np.random.default_rng(60)
    for ring in (SKEW, WEYL):
        prover = _prover(ring, rng)
        result = run_zkp(prover.public_l, prover, 40, rng)
        assert result.all_accepted
        assert len(result.rounds) == 40


def test_zkp_rejects_trivial_factors():
    with pytest.raises(ProtocolError):
        FactorizationProver(SKEW.constant(2), SKEW.d(1) + 1)


def test_zkp_fresh_blinding_enforced():
    rng = np.random.default_rng(61)
    prover = _prover(SKEW, rng)
    prover.commit(rng)
    first = set(prover._used)
    prover.commit(rng)
    assert len(first) == 2 and len(prover._used) == 4
    assert prover._p1 not in first and prover._p2 not in first


def test_zkp_oversized_commitment_refused_before_any_product(monkeypatch):
    # blinding values of degree 1500 fit the cell limit; p1 * L * p2 spans
    # about twice as far on each axis, and its box passes the limit
    rng = np.random.default_rng(62)
    honest = _prover(SKEW, rng)
    prover = FactorizationProver(honest.ell1, honest.ell2, blind_degree=1500, blind_terms=40)
    state = rng.bit_generator.state
    calls = []
    monkeypatch.setattr(backend, "skew2_mul", lambda *a: calls.append(a))
    with pytest.raises(OreKexError, match=f"{backend.MAX_GRID_CELLS}-cell limit"):
        prover.commit(rng)
    assert not calls
    spans = [a + b + c - 2 for a, b, c in zip(
        prover._p1.grid.shape, prover.public_l.grid.shape, prover._p2.grid.shape)]
    assert np.prod(spans) > backend.MAX_GRID_CELLS
    # both draws were made, in order, so the stream is where they leave it
    again = np.random.default_rng()
    again.bit_generator.state = state
    assert [prover._p1, prover._p2] == [random_polynomial(SKEW, 1500, 40, again)
                                        for _ in range(2)]
    assert rng.bit_generator.state == again.bit_generator.state


class SplitCheater:
    """Prepares pi = p1' p1'' L p2 and hopes the reveal-p branch is asked."""

    def __init__(self, public_l, rng_seed=0):
        self.ring = public_l.ring
        self.public_l = public_l

    def commit(self, rng):
        self.p1a = _nontrivial(self.ring, rng)
        self.p1b = _nontrivial(self.ring, rng)
        self.p2 = _nontrivial(self.ring, rng)
        self.p1 = self.p1a * self.p1b
        pi = self.p1 * self.public_l * self.p2
        return ZkpCommitment(pi, self.p1.d_degrees(), self.p2.d_degrees())

    def respond(self, challenge):
        if challenge == REVEAL_P:
            return self.p1, self.p2
        return self.p1a, self.p1b * self.public_l * self.p2


class ShiftCheater:
    """Answers reveal-pi with (p1, L p2), which overlaps nothing."""

    def __init__(self, public_l):
        self.ring = public_l.ring
        self.public_l = public_l

    def commit(self, rng):
        self.p1 = _nontrivial(self.ring, rng)
        self.p2 = _nontrivial(self.ring, rng)
        pi = self.p1 * self.public_l * self.p2
        return ZkpCommitment(pi, self.p1.d_degrees(), self.p2.d_degrees())

    def respond(self, challenge):
        if challenge == REVEAL_P:
            return self.p1, self.p2
        return self.p1, self.public_l * self.p2


def _nontrivial(ring, rng, degree=2):
    cand = random_polynomial(ring, degree, 4, rng)
    while max(cand.d_degrees()) < 1:
        cand = random_polynomial(ring, degree, 4, rng)
    return cand


def test_zkp_cheaters_caught():
    rng = np.random.default_rng(62)
    public_l = _nontrivial(SKEW, rng, 3)
    for cheater_cls in (SplitCheater, ShiftCheater):
        cheater = cheater_cls(public_l)
        result = run_zkp(public_l, cheater, 200, rng)
        rate = sum(r.accepted for r in result.rounds) / 200
        assert rate <= 0.6
        first_reject = next(i for i, r in enumerate(result.rounds) if not r.accepted)
        assert first_reject < 20


def test_zkp_verifier_conditions_directly():
    rng = np.random.default_rng(63)
    prover = _prover(SKEW, rng)
    commitment = prover.commit(rng)
    p1, p2 = prover.respond(REVEAL_P)
    assert zkp_verify_round(prover.public_l, commitment, REVEAL_P, (p1, p2))
    pi1, pi2 = prover.respond(REVEAL_PI)
    assert zkp_verify_round(prover.public_l, commitment, REVEAL_PI, (pi1, pi2))
    # shifting the whole public element into one half fails the strictness rule
    assert not zkp_verify_round(prover.public_l, commitment, REVEAL_PI,
                                (p1, prover.public_l * p2))
    # malformed responses are rejected, not raised
    assert not zkp_verify_round(prover.public_l, commitment, REVEAL_P, None)
    assert not zkp_verify_round(prover.public_l, commitment, REVEAL_P, (p1, "junk"))
