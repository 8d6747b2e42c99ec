"""Party state and message flow for the exchange protocols.

Five flows are implemented on top of the ring arithmetic:

* two-message key exchange: both parties sandwich a public element L
  between commuting private keys drawn from the pools of
  :mod:`orekex.commuting`, and the sandwiched products commute into the
  same shared secret;
* three-pass exchange of a private L, with the two exact divisions used
  to strip one party's locks;
* public-key encryption where the sender multiplies the message by a
  fresh shared product;
* a signature scheme over two division-with-remainder style identities;
* an interactive proof that the prover knows a two-factor splitting of a
  public element, sound against provers that prepared only one of the two
  revealable factorizations.

Every flow is set by its degrees alone, as (d_L, d_PQ, nu) sets the
exchange: each random polynomial is drawn dense, with every monomial up to
its degree bound a sampling target, as the paper's cost model assumes.  A
degenerate draw is redrawn by :func:`orekex.commuting.resample`.

Transcripts record exactly what an eavesdropper on the channel sees and
refuse to store anything except public polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from . import backend
from .commuting import (ConstantPolynomial, random_constant_polynomial, resample,
                        sample_private)
from .division import left_cofactor, right_cofactor
from .errors import ProtocolError
from .orepoly import OrePolynomial, random_polynomial
from .rings import OreRing
from .weakkeys import grading_vector


def _dense(ring: OreRing, degree: int, rng) -> OrePolynomial:
    """A draw whose sampling target is every monomial up to ``degree``."""
    return random_polynomial(ring, degree, comb(degree + ring.exp_len, ring.exp_len), rng)


def is_central(h: OrePolynomial) -> bool:
    """Whether h commutes with every ring generator, tried in turn."""
    ring = h.ring
    generators = [ring.d(i) for i in range(1, ring.n + 1)]
    if ring.is_weyl:
        generators += [ring.x(i) for i in range(1, ring.n + 1)]
    else:
        # alpha, the generator of F_{p^k} over F_p: coefficient index p
        generators.append(ring.poly({(0,) * ring.n: ring.p}))
    return all(h.commutes_with(w) for w in generators)


def _ungraded(ring: OreRing, priv: "PrivateTuple") -> bool:
    # graded weyl keys leak through commutative factoring; they are redrawn
    return not ring.is_weyl or (grading_vector(priv.p_side) is None
                                and grading_vector(priv.q_side) is None)


@dataclass(frozen=True)
class PublicParameters:
    """Everything the two parties agree on in the open."""

    ring: OreRing
    public_l: OrePolynomial
    left_gen: OrePolynomial   # P, generating the left commuting pool
    right_gen: OrePolynomial  # Q, generating the right pool
    nu: int                   # degree of the private pool polynomials

    def __post_init__(self):
        if self.nu < 1:
            raise ProtocolError("private-polynomial degree must be at least 1")
        # an L that fails to commute with P is not central either
        if self.public_l.commutes_with(self.left_gen):
            raise ProtocolError("the locked element L must not commute with pool generator P")
        if self.public_l.commutes_with(self.right_gen):
            raise ProtocolError("the locked element L must not commute with pool generator Q")

    @classmethod
    def generate(cls, ring: OreRing, d_l: int, d_pq: int, nu: int,
                 rng) -> "PublicParameters":
        public_l = resample(lambda: _dense(ring, d_l, rng), lambda h: not is_central(h),
                            "non-central public element")
        left = _pairwise_noncommuting(ring, d_pq, rng, [public_l], 1)[0]
        right = _pairwise_noncommuting(ring, d_pq, rng, [public_l], 1)[0]
        return cls(ring, public_l, left, right, nu)


@dataclass(frozen=True)
class PrivateTuple:
    """One party's secret: elements of the two pools plus the generating f, g."""

    p_side: OrePolynomial
    q_side: OrePolynomial
    f: ConstantPolynomial
    g: ConstantPolynomial

    @classmethod
    def generate(cls, params: PublicParameters, rng) -> "PrivateTuple":
        """Keys that do not commute with L (:func:`sample_private`), redrawn
        while graded."""
        def draw():
            f, p_side = sample_private(params.left_gen, params.public_l, params.nu, rng)
            g, q_side = sample_private(params.right_gen, params.public_l, params.nu, rng)
            return cls(p_side, q_side, f, g)

        return resample(draw, lambda priv: _ungraded(params.ring, priv),
                        "tuple the weak-key screen passes")


@dataclass(frozen=True)
class TranscriptEntry:
    sender: str
    label: str
    message: OrePolynomial


@dataclass
class ProtocolTranscript:
    """Append-only record of the public messages: the eavesdropper's view."""

    protocol: str
    entries: list[TranscriptEntry] = field(default_factory=list)

    def append(self, sender: str, label: str, message):
        if not isinstance(message, OrePolynomial):
            raise TypeError("transcripts carry only public polynomials")
        self.entries.append(TranscriptEntry(sender, label, message))

    def messages(self) -> list[OrePolynomial]:
        return [e.message for e in self.entries]


# -- two-message key exchange ---------------------------------------------------

def kex_message(params: PublicParameters, priv: PrivateTuple) -> OrePolynomial:
    """The party's single public message: p_side * L * q_side."""
    return priv.p_side * params.public_l * priv.q_side


def kex_finalize(params: PublicParameters, priv: PrivateTuple,
                 other_message: OrePolynomial) -> OrePolynomial:
    """Shared secret: wrap the peer's message in the own private pair."""
    if other_message.is_zero():
        raise ProtocolError("peer message must be nonzero")
    return priv.p_side * other_message * priv.q_side


@dataclass(frozen=True)
class KexResult:
    params: PublicParameters
    alice: PrivateTuple
    bob: PrivateTuple
    shared_key: OrePolynomial
    transcript: ProtocolTranscript


def run_key_exchange(params: PublicParameters, rng) -> KexResult:
    alice = PrivateTuple.generate(params, rng)
    bob = PrivateTuple.generate(params, rng)
    transcript = ProtocolTranscript("exchange")
    a_part = kex_message(params, alice)
    b_part = kex_message(params, bob)
    transcript.append("A", "A_part", a_part)
    transcript.append("B", "B_part", b_part)
    key_a = kex_finalize(params, alice, b_part)
    key_b = kex_finalize(params, bob, a_part)
    if key_a != key_b:
        raise ProtocolError("key agreement failed")  # impossible for honest runs
    return KexResult(params, alice, bob, key_a, transcript)


# -- three-pass exchange of a private element -----------------------------------

@dataclass(frozen=True)
class CommutingSetup:
    """Public part of the three-pass flow: just the two pool generators."""

    ring: OreRing
    left_gen: OrePolynomial
    right_gen: OrePolynomial
    nu: int

    @classmethod
    def generate(cls, ring: OreRing, d_pq: int, nu: int, rng) -> "CommutingSetup":
        left = _dense(ring, d_pq, rng)
        right = _dense(ring, d_pq, rng)
        return cls(ring, left, right, nu)


def _unchecked_tuple(setup: "CommutingSetup", rng) -> "PrivateTuple":
    def draw():
        f = random_constant_polynomial(setup.ring.p, setup.nu, rng)
        g = random_constant_polynomial(setup.ring.p, setup.nu, rng)
        return PrivateTuple(f(setup.left_gen), g(setup.right_gen), f, g)

    return resample(draw, lambda priv: _ungraded(setup.ring, priv),
                    "tuple the grading screen passes")


@dataclass(frozen=True)
class ThreePassResult:
    recovered: OrePolynomial
    transcript: ProtocolTranscript
    alice: PrivateTuple
    bob: PrivateTuple


def three_pass_exchange(setup: CommutingSetup, secret_l: OrePolynomial,
                        rng) -> ThreePassResult:
    """Send Alice's secret element to Bob under commuting two-sided locks.

    Alice locks the secret, Bob adds his own locks, Alice strips hers by two
    exact divisions, and Bob strips his to recover the element unchanged.
    ProtocolError when the secret commutes with a pool generator.
    """
    params = PublicParameters(setup.ring, secret_l, setup.left_gen,
                              setup.right_gen, setup.nu)
    alice = PrivateTuple.generate(params, rng)
    # Bob cannot check against the secret he does not yet know; correctness
    # needs no constraint on his draws.  Graded keys are still redrawn.
    bob = _unchecked_tuple(setup, rng)

    transcript = ProtocolTranscript("three-pass")
    pass1 = alice.p_side * secret_l * alice.q_side
    transcript.append("A", "pass1", pass1)
    p_int = bob.p_side * pass1 * bob.q_side
    transcript.append("B", "pass2", p_int)
    # strip Alice's locks: her q_side is a known right factor, p_side a left one
    stripped = left_cofactor(p_int, alice.q_side)
    pass3 = right_cofactor(stripped, alice.p_side)
    transcript.append("A", "pass3", pass3)
    inner = left_cofactor(pass3, bob.q_side)
    recovered = right_cofactor(inner, bob.p_side)
    return ThreePassResult(recovered, transcript, alice, bob)


# -- encryption -----------------------------------------------------------------

@dataclass(frozen=True)
class EncryptionPublicKey:
    params: PublicParameters
    p_alice: OrePolynomial


@dataclass(frozen=True)
class EncryptionSecretKey:
    params: PublicParameters
    priv: PrivateTuple


@dataclass(frozen=True)
class Ciphertext:
    m_e: OrePolynomial
    p_bob: OrePolynomial


def encryption_keygen(params: PublicParameters, rng) -> tuple[EncryptionPublicKey,
                                                              EncryptionSecretKey]:
    priv = PrivateTuple.generate(params, rng)
    p_alice = priv.p_side * params.public_l * priv.q_side
    return EncryptionPublicKey(params, p_alice), EncryptionSecretKey(params, priv)


def _mutually_noncommuting_tuple(params: PublicParameters, rng) -> PrivateTuple:
    # the sender's pair additionally avoids commuting with each other
    return resample(lambda: PrivateTuple.generate(params, rng),
                    lambda priv: not priv.p_side.commutes_with(priv.q_side),
                    "mutually non-commuting pair")


def encrypt(pub: EncryptionPublicKey, message: OrePolynomial, rng) -> Ciphertext:
    """m_e = m * P_final with a fresh P_final = P_B * P_Alice * Q_B."""
    if message.is_zero():
        raise ProtocolError("cannot encrypt the zero message")
    if message.ring != pub.params.ring:
        raise ProtocolError("message lives in a different ring")
    bob = _mutually_noncommuting_tuple(pub.params, rng)
    p_final = bob.p_side * pub.p_alice * bob.q_side
    m_e = message * p_final
    p_bob = bob.p_side * pub.params.public_l * bob.q_side
    return Ciphertext(m_e, p_bob)


def decrypt(sec: EncryptionSecretKey, ct: Ciphertext) -> OrePolynomial:
    """Rebuild P_final from the sender's public product and divide it off;
    a corrupted ciphertext surfaces as NotDivisibleError."""
    p_final = sec.priv.p_side * ct.p_bob * sec.priv.q_side
    return left_cofactor(ct.m_e, p_final)


# -- signatures ------------------------------------------------------------------

@dataclass(frozen=True)
class SignaturePublicKey:
    ring: OreRing
    public_l: OrePolynomial
    p_alice: OrePolynomial


@dataclass(frozen=True)
class SignatureSecretKey:
    ring: OreRing
    public_l: OrePolynomial
    a1: OrePolynomial
    a2: OrePolynomial


@dataclass(frozen=True)
class SignatureTuple:
    """The signed message as sent on the wire: all eight ring elements."""

    m: OrePolynomial
    gamma: OrePolynomial
    q1: OrePolynomial
    r1: OrePolynomial
    q2: OrePolynomial
    r2: OrePolynomial
    eps1: OrePolynomial
    eps2: OrePolynomial


def _pairwise_noncommuting(ring: OreRing, degree: int, rng, fixed: list[OrePolynomial],
                           count: int) -> list[OrePolynomial]:
    """``count`` draws, each redrawn while it commutes with ``fixed`` or an
    earlier one."""
    out: list[OrePolynomial] = []
    for _ in range(count):
        out.append(resample(lambda: _dense(ring, degree, rng),
                            lambda cand: all(not cand.commutes_with(other)
                                             for other in fixed + out),
                            "pairwise non-commuting element"))
    return out


def signature_keygen(ring: OreRing, rng, d_l: int = 5,
                     d_a: int = 3) -> tuple[SignaturePublicKey, SignatureSecretKey]:
    public_l = _dense(ring, d_l, rng)
    a1, a2 = _pairwise_noncommuting(ring, d_a, rng, [public_l], 2)
    p_alice = a1 * public_l * a2
    return (SignaturePublicKey(ring, public_l, p_alice),
            SignatureSecretKey(ring, public_l, a1, a2))


def sign(sec: SignatureSecretKey, message: OrePolynomial, rng, d_k: int = 3,
         d_q: int = 3) -> SignatureTuple:
    """Produce the 8-tuple satisfying m - gamma*a1 = q1*k1 + r1 and
    m - a2*gamma = k2*q2 + r2 for fresh pairwise non-commuting k1, k2."""
    ring = sec.ring
    if message.ring != ring:
        raise ProtocolError("message lives in a different ring")
    k1, k2 = _pairwise_noncommuting(ring, d_k, rng, [sec.public_l], 2)
    gamma = k1 * sec.public_l * k2
    eps1 = k1 * sec.public_l * sec.a2
    eps2 = sec.a1 * sec.public_l * k2
    q1 = _dense(ring, d_q, rng)
    q2 = _dense(ring, d_q, rng)
    r1 = message - gamma * sec.a1 - q1 * k1
    r2 = message - sec.a2 * gamma - k2 * q2
    return SignatureTuple(message, gamma, q1, r1, q2, r2, eps1, eps2)


def signature_sides(pub: SignaturePublicKey,
                    sig: SignatureTuple) -> tuple[OrePolynomial, OrePolynomial]:
    left = (sig.m - sig.r1) * pub.public_l * (sig.m - sig.r2)
    right = (sig.q1 * sig.gamma * sig.q2 + sig.q1 * sig.eps1 * sig.gamma
             + sig.gamma * sig.eps2 * sig.q2 + sig.gamma * pub.p_alice * sig.gamma)
    return left, right


def verify_signature(pub: SignaturePublicKey, sig: SignatureTuple) -> bool:
    left, right = signature_sides(pub, sig)
    return left == right


# -- proof of a known two-factor splitting ---------------------------------------

@dataclass(frozen=True)
class ZkpCommitment:
    pi: OrePolynomial
    deg_p1: tuple[int, ...]  # per-variable d-degrees announced up front
    deg_p2: tuple[int, ...]


REVEAL_P = "reveal-p"
REVEAL_PI = "reveal-pi"


@dataclass(frozen=True)
class ZkpRound:
    commitment: ZkpCommitment
    challenge: str
    response: tuple[OrePolynomial, OrePolynomial]
    accepted: bool


class FactorizationProver:
    """Honest prover holding l1 * l2 = L with both factors nontrivial
    (positive degree in at least one Ore variable each).

    Blinding pairs are fresh every round; reuse is refused.  They are dense
    of degree ``blind_degree``, by default that of L (at least 1).
    """

    def __init__(self, ell1: OrePolynomial, ell2: OrePolynomial,
                 blind_degree: int | None = None):
        if ell1.ring != ell2.ring:
            raise ProtocolError("factors live in different rings")
        if max(ell1.d_degrees()) < 1 or max(ell2.d_degrees()) < 1:
            raise ProtocolError("both factors must have positive degree in some d_i")
        self.ring = ell1.ring
        self.ell1 = ell1
        self.ell2 = ell2
        self.public_l = ell1 * ell2
        if blind_degree is None:
            blind_degree = max(self.public_l.total_degree(), 1)
        self.blind_degree = blind_degree
        self._used: set[OrePolynomial] = set()
        self._p1 = None
        self._p2 = None

    def _fresh(self, rng) -> OrePolynomial:
        cand = resample(lambda: _dense(self.ring, self.blind_degree, rng),
                        lambda cand: cand not in self._used, "fresh blinding polynomial")
        self._used.add(cand)
        return cand

    def commit(self, rng) -> ZkpCommitment:
        """Draw the blinding pair p1, p2 and commit to p1 * L * p2.  In a
        skew ring a commitment over ``backend.MAX_GRID_CELLS`` raises
        OreKexError (:func:`backend.check_product`) after the draws and
        before any product."""
        self._p1 = self._fresh(rng)
        self._p2 = self._fresh(rng)
        if self.ring.is_skew:
            backend.check_product("the commitment p1 * L * p2", [
                h.grid.shape for h in (self._p1, self.public_l, self._p2)])
        pi = self._p1 * self.public_l * self._p2
        return ZkpCommitment(pi, self._p1.d_degrees(), self._p2.d_degrees())

    def respond(self, challenge: str) -> tuple[OrePolynomial, OrePolynomial]:
        if self._p1 is None:
            raise ProtocolError("respond called before commit")
        if challenge == REVEAL_P:
            return self._p1, self._p2
        if challenge == REVEAL_PI:
            return self._p1 * self.ell1, self.ell2 * self._p2
        raise ProtocolError(f"unknown challenge {challenge!r}")


def zkp_verify_round(public_l: OrePolynomial, commitment: ZkpCommitment,
                     challenge: str, response) -> bool:
    """Bob's per-round check.

    reveal-p: the commitment must rebuild from the revealed pair and the
    revealed degrees must equal the announced ones.  reveal-pi: the
    commitment must split as pi1 * pi2 where each pi_j dominates the
    announced degrees of p_j componentwise, strictly in at least one
    variable -- this forces both halves to overlap the public element.
    """
    try:
        first, second = response
    except (TypeError, ValueError):
        return False
    if not isinstance(first, OrePolynomial) or not isinstance(second, OrePolynomial):
        return False
    if first.is_zero() or second.is_zero():
        return False
    if challenge == REVEAL_P:
        if first.d_degrees() != commitment.deg_p1:
            return False
        if second.d_degrees() != commitment.deg_p2:
            return False
        return first * public_l * second == commitment.pi
    if challenge == REVEAL_PI:
        if first * second != commitment.pi:
            return False
        for part, announced in ((first, commitment.deg_p1),
                                (second, commitment.deg_p2)):
            degs = part.d_degrees()
            if any(d < a for d, a in zip(degs, announced)):
                return False
            if not any(d > a for d, a in zip(degs, announced)):
                return False
        return True
    return False


@dataclass
class ZkpResult:
    rounds: list[ZkpRound]

    @property
    def all_accepted(self) -> bool:
        return all(r.accepted for r in self.rounds)


def run_zkp(public_l: OrePolynomial, prover, n_rounds: int, rng) -> ZkpResult:
    """Drive n rounds with unbiased verifier challenges from ``rng``."""
    rounds = []
    for _ in range(n_rounds):
        commitment = prover.commit(rng)
        challenge = REVEAL_P if int(rng.integers(0, 2)) == 0 else REVEAL_PI
        response = prover.respond(challenge)
        ok = zkp_verify_round(public_l, commitment, challenge, response)
        rounds.append(ZkpRound(commitment, challenge, response, ok))
    return ZkpResult(rounds)
