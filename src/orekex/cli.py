"""Command-line driver.

Every randomized subcommand requires ``--seed``; equal seeds and arguments
produce byte-identical output files.  Exit codes: 0 success, 1 protocol or
verification failure, 2 usage error or bad input (a file that is malformed,
lacks an entry or mixes rings, or work over a kernel limit), 3 corrupt
input (failed division or decoding).

Every file is written by ``_render`` and read by ``_load``, which checks it.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
from math import prod

import numpy as np

from . import backend, costs, serial
from .commuting import MAX_ATTEMPTS
from .encoding import decode_bytes, encode_bytes
from .errors import (EncodingError, NotDivisibleError, OreKexError, ParseError,
                     ProtocolError, ResampleExhaustedError)
from .orepoly import MAX_WEYL_STEPS, random_polynomial
from .protocols import (CommutingSetup, EncryptionPublicKey, EncryptionSecretKey,
                        Ciphertext, FactorizationProver, PrivateTuple,
                        PublicParameters, SignaturePublicKey, SignatureSecretKey,
                        SignatureTuple, encrypt, encryption_keygen, decrypt,
                        run_key_exchange, run_zkp, sign, signature_keygen,
                        three_pass_exchange, verify_signature)
from .rings import RING_ALIASES, ring_by_name
from .serial import (constant_poly_from_text, parse_file, poly_from_text, render_file,
                     ring_from_text)
from .weakkeys import screen_private_key, grading_vector


def _ring_arg(text: str):
    if text.startswith("ring "):
        return ring_from_text(text)
    return ring_by_name(text)


def _rng(seed: int):
    return np.random.default_rng(seed)


def _write(path: str | None, content: str):
    if path is None:
        sys.stdout.write(content)
    else:
        with open(path, "w") as fh:
            fh.write(content)


PARAMS_KEYS = ("nu", "L", "P", "Q")
SIGNATURE_KEYS = ("m", "gamma", "q1", "r1", "q2", "r2", "eps1", "eps2")


def _render(ring, seed, kind: str, entries) -> str:
    """File text: the header, a ``protocol`` line, then one ``key value`` line
    per pair; ``str()`` of a polynomial, a constant polynomial or an int is
    its file text."""
    return render_file(ring, seed, [f"protocol {kind}"]
                       + [f"{key} {value}" for key, value in entries])


def _value(ring, key: str, text: str):
    if key in ("f", "g"):
        return constant_poly_from_text(ring.p, text)
    if key == "nu":
        # the grammar has no sign: "-3" is refused as text, "0" as a value
        nu = serial.parse_int(text, "on the nu line: the pool degree is at least 1")
        if nu < 1:
            raise ParseError(f"nu {serial._quote(text)}: the pool degree must be at least 1")
        return nu
    return poly_from_text(ring, text)


def _load(path: str, keys, ring=None) -> tuple:
    """(ring, value of each key in ``keys``) from the file at ``path``.

    ``f`` and ``g`` are constant polynomials, ``nu`` an integer and every
    other key a polynomial.  ParseError when a key has no line, a value is
    malformed, or the file's ring is not ``ring``."""
    with open(path) as fh:
        file_ring, _, entries = parse_file(fh.read())
    if ring is not None and file_ring != ring:
        raise ParseError(f"{path}: ring differs from that of the other input")
    found = serial.entries_dict(entries)
    missing = [key for key in keys if key not in found]
    if missing:
        raise ParseError(f"{path}: no {', '.join(missing)} line")
    return (file_ring, *(_value(file_ring, key, found[key]) for key in keys))


def _params_entries(params: PublicParameters) -> list:
    values = (params.nu, params.public_l, params.left_gen, params.right_gen)
    return list(zip(PARAMS_KEYS, values))


def _read_params(path: str, keys) -> tuple:
    """(ring, nu, L, P, Q, value of each key in ``keys``) from the file at
    ``path``, its pools refused (ParseError) before any product or draw when
    their evaluation would pass a kernel limit.  f(P) has a constant term,
    so its box runs from the origin to nu times P's tops.  In a skew ring
    the powers P, ..., P^nu that the pool keeps hold at most
    ``MAX_GRID_CELLS`` cells in all, P^i counted as at least i cells as with
    any nonconstant P, which bounds the nu - 1 products too; in a weyl ring
    each of them pairs at most f(P)'s box of terms with P's, one step each."""
    loaded = _load(path, PARAMS_KEYS + keys)
    ring, nu, _, left, right, *_ = loaded
    shown = serial._quote(str(nu))
    for gen in filter(None, (left, right)):
        if ring.is_weyl:
            if (nu - 1) * prod(nu * top + 1 for top in gen.tops()) * len(gen) > MAX_WEYL_STEPS:
                raise ParseError(f"{path}: nu {shown} puts pool evaluation over the "
                                 f"{MAX_WEYL_STEPS}-step limit of the weyl product")
            continue
        cells = 0
        for i in range(1, nu + 1):  # ends by i = 2^12: each power counts at least i
            cells += max(prod(i * (s - 1) + 1 for s in gen.grid.shape), i)
            if cells > backend.MAX_GRID_CELLS:
                raise ParseError(f"{path}: nu {shown} puts the pool's powers over the "
                                 f"{backend.MAX_GRID_CELLS}-cell limit of the skew kernels")
    return loaded


def _check_products(path: str, products) -> None:
    """ParseError, before any draw or product, when a skew product of
    ``products`` (a name and the spans of its factors) would span a box over
    ``MAX_GRID_CELLS``: spans add, less one per product, in a domain.  A
    weyl product is refused by its own step count before its work."""
    for name, factors in products:
        box = [sum(s) - len(factors) + 1 for s in zip(*factors)]
        if prod(box) > backend.MAX_GRID_CELLS:
            dims = "x".join(map(str, box))
            raise ParseError(f"{path}: {name} would span a {dims} grid, over the "
                             f"{backend.MAX_GRID_CELLS}-cell limit of the skew kernels")

def _messages(transcript) -> list:
    return [("msg", f"{e.sender} {e.label} {e.message}") for e in transcript.entries]


# -- keygen ------------------------------------------------------------------

def cmd_keygen(args) -> int:
    ring = _ring_arg(args.ring)
    rng = _rng(args.seed)
    prefix = args.out_prefix
    if args.scheme == "sign":
        pub, sec = signature_keygen(ring, rng, d_l=args.dL, d_a=args.da)
        _write(f"{prefix}.pub", _render(ring, args.seed, "sign-public",
                                        [("L", pub.public_l), ("P_Alice", pub.p_alice)]))
        _write(f"{prefix}.sec", _render(ring, args.seed, "sign-secret",
                                        [("L", sec.public_l), ("a1", sec.a1), ("a2", sec.a2)]))
        return 0
    params = PublicParameters.generate(ring, args.dL, args.dPQ, args.nu, rng)
    entries = _params_entries(params)
    _write(f"{prefix}.params", _render(ring, args.seed, "params", entries))
    if args.scheme == "encrypt":
        pub, sec = encryption_keygen(params, rng)
        priv = sec.priv
        _write(f"{prefix}.pub", _render(ring, args.seed, "encrypt-public",
                                        entries + [("P_Alice", pub.p_alice)]))
        _write(f"{prefix}.sec", _render(ring, args.seed, "encrypt-secret", entries + [
            ("P_A", priv.p_side), ("Q_A", priv.q_side), ("f", priv.f), ("g", priv.g)]))
    return 0


# -- exchange ------------------------------------------------------------------

def _exchange_texts(ring, args) -> tuple[str, str]:
    rng = _rng(args.seed)
    params = PublicParameters.generate(ring, args.dL, args.dPQ, args.nu, rng)
    result = run_key_exchange(params, rng)
    alice, bob = result.alice, result.bob
    transcript_text = _render(ring, args.seed, "exchange",
                              _params_entries(params) + _messages(result.transcript))
    answer_text = _render(ring, args.seed, "exchange-answer", [
        ("f_A", alice.f), ("g_A", alice.g), ("f_B", bob.f), ("g_B", bob.g),
        ("P_A", alice.p_side), ("Q_A", alice.q_side), ("P_B", bob.p_side),
        ("Q_B", bob.q_side), ("shared_key", result.shared_key)])
    return transcript_text, answer_text


def cmd_exchange(args) -> int:
    ring = _ring_arg(args.ring)
    transcript_text, answer_text = _exchange_texts(ring, args)
    _write(args.out, transcript_text)
    if args.key_out:
        _write(args.key_out, answer_text)
    return 0


# -- three-pass ------------------------------------------------------------------

def _three_pass_texts(ring, args) -> tuple[str, str, bool]:
    rng = _rng(args.seed)
    setup = CommutingSetup.generate(ring, args.dPQ, args.nu, rng)
    secret = _noncommuting_secret(ring, args.dL, setup, rng)
    result = three_pass_exchange(setup, secret, rng)
    alice, bob = result.alice, result.bob
    public_text = _render(ring, args.seed, "three-pass", [
        ("nu", setup.nu), ("P", setup.left_gen), ("Q", setup.right_gen),
        *_messages(result.transcript)])
    answer_text = _render(ring, args.seed, "three-pass-answer", [
        ("L", secret), ("f_A", alice.f), ("g_A", alice.g), ("f_B", bob.f),
        ("g_B", bob.g), ("recovered", result.recovered)])
    return public_text, answer_text, result.recovered == secret


def _noncommuting_secret(ring, d_l, setup, rng):
    terms = max(2 * d_l, 4)
    for _ in range(MAX_ATTEMPTS):
        cand = random_polynomial(ring, d_l, terms, rng)
        if not cand.commutes_with(setup.left_gen) and not cand.commutes_with(setup.right_gen):
            return cand
    raise ResampleExhaustedError("could not sample a usable secret element")


def cmd_three_pass(args) -> int:
    ring = _ring_arg(args.ring)
    public_text, answer_text, ok = _three_pass_texts(ring, args)
    _write(args.out, public_text)
    if args.answer_out:
        _write(args.answer_out, answer_text)
    if not ok:
        print("three-pass recovery FAILED", file=sys.stderr)
        return 1
    return 0


# -- encryption ------------------------------------------------------------------

def cmd_encrypt(args) -> int:
    ring, nu, public_l, left, right, p_alice = _read_params(args.pub, ("P_Alice",))
    with open(args.infile, "rb") as fh:
        data = fh.read()
    message = encode_bytes(ring, data)
    if ring.is_skew and all((public_l, left, right, p_alice, message)):  # else refused later
        p_b, q_b = ([nu * top + 1 for top in gen.tops()] for gen in (left, right))  # f(P), g(Q)
        p_final = [p_b, p_alice.grid.shape, q_b]
        _check_products(args.pub, [("P_B * L * Q_B", [p_b, public_l.grid.shape, q_b]),
                                   ("P_final", p_final),
                                   ("m * P_final", [message.grid.shape, *p_final])])
    params = PublicParameters(ring, public_l, left, right, nu)
    ct = encrypt(EncryptionPublicKey(params, p_alice), message, _rng(args.seed))
    _write(args.out, _render(ring, args.seed, "encrypt",
                             [("m_e", ct.m_e), ("P_Bob", ct.p_bob)]))
    return 0


def cmd_decrypt(args) -> int:
    ring, nu, public_l, left, right, *secret = _read_params(args.sec, ("P_A", "Q_A", "f", "g"))
    _, m_e, p_bob = _load(args.infile, ("m_e", "P_Bob"), ring)
    if ring.is_skew and all((*secret[:2], p_bob)):
        _check_products(args.infile, [("P_A * P_Bob * Q_A", [
            h.grid.shape for h in (secret[0], p_bob, secret[1])])])
    params = PublicParameters(ring, public_l, left, right, nu)
    sec = EncryptionSecretKey(params, PrivateTuple(*secret))
    data = decode_bytes(decrypt(sec, Ciphertext(m_e, p_bob)))
    with open(args.out, "wb") as fh:
        fh.write(data)
    return 0


# -- signatures ------------------------------------------------------------------

def cmd_sign(args) -> int:
    ring, *secret = _load(args.sec, ("L", "a1", "a2"))
    with open(args.infile, "rb") as fh:
        data = fh.read()
    if args.hash:
        data = hashlib.sha256(data).digest()
    sig = sign(SignatureSecretKey(ring, *secret), encode_bytes(ring, data), _rng(args.seed))
    _write(args.out, _render(ring, args.seed, "sign", [("hashed", int(args.hash))]
                             + [(key, getattr(sig, key)) for key in SIGNATURE_KEYS]))
    return 0


def cmd_verify(args) -> int:
    ring, *public = _load(args.pub, ("L", "P_Alice"))
    _, *sig = _load(args.sig, SIGNATURE_KEYS, ring)
    if verify_signature(SignaturePublicKey(ring, *public), SignatureTuple(*sig)):
        print("accept")
        return 0
    print("reject")
    return 1


# -- zero-knowledge rounds ---------------------------------------------------------

def cmd_zkp(args) -> int:
    ring = _ring_arg(args.ring)
    rng = _rng(args.seed)
    ell1 = _nontrivial_factor(ring, args.dl1, rng)
    ell2 = _nontrivial_factor(ring, args.dl2, rng)
    prover = FactorizationProver(ell1, ell2, blind_degree=args.blind_degree)
    result = run_zkp(prover.public_l, prover, args.rounds, rng)
    rounds = [("round", f"{i} {rnd.challenge} {'accept' if rnd.accepted else 'reject'}")
              for i, rnd in enumerate(result.rounds)]
    _write(args.out, _render(ring, args.seed, "zkp",
                             [("rounds", args.rounds), ("L", prover.public_l)] + rounds))
    return 0 if result.all_accepted else 1


def _nontrivial_factor(ring, degree, rng):
    for _ in range(MAX_ATTEMPTS):
        cand = random_polynomial(ring, degree, max(2 * degree, 4), rng)
        if max(cand.d_degrees()) >= 1:
            return cand
    raise ResampleExhaustedError("could not sample a factor with positive d-degree")


# -- weak keys -------------------------------------------------------------------

def cmd_check_weak(args) -> int:
    if args.key_text is not None:
        if not args.ring:
            raise ParseError("--key-text requires --ring")
        ring = _ring_arg(args.ring)
        key = poly_from_text(ring, args.key_text)
    else:
        ring, key = _load(args.key, ("key",))
    if not ring.is_weyl:
        raise ParseError("weak-key screening is defined for weyl rings only")
    public = None
    if args.public_text:
        public = poly_from_text(ring, args.public_text)
    elif args.public:
        _, public = _load(args.public, ("key",), ring)
    if public is None:
        graded = grading_vector(key)
        if graded is not None:
            print("reject graded")
            return 1
        print("accept")
        return 0
    report = screen_private_key(key, public)
    print(str(report))
    return 0 if report.accepted else 1


# -- cost estimates ----------------------------------------------------------------

def _fmt(v: float) -> str:
    return f"{v:.6E}"


def cmd_estimate(args) -> int:
    if args.table:
        checks = costs.check_reference_table()
        print("tuple          secret-param  initial-msg   shared-secret key-KB"
              "  brute-force(model) match")
        all_ok = True
        for chk, row in zip(checks, costs.REFERENCE_ROWS):
            d_l, d_pq, nu = chk.tuple_
            rep = chk.report
            status = "OK" if chk.matches else "FAIL"
            all_ok &= chk.matches
            print(f"({d_l},{d_pq},{nu})".ljust(15)
                  + f"{_fmt(rep.secret_param)}  {_fmt(rep.initial_message)}  "
                  + f"{_fmt(rep.shared_secret)}  {rep.key_size_kb:<6d} "
                  + f"{_fmt(rep.brute_force)}       {status}")
        print(f"table-match: {'PASS' if all_ok else 'FAIL'}")
        return 0 if all_ok else 1
    if args.dL is None or args.dPQ is None or args.nu is None:
        raise ParseError("estimate needs --dL, --dPQ and --nu (or --table)")
    t = costs.SecurityTuple(args.dL, args.dPQ, args.nu, p=args.p, omega=args.omega)
    rep = costs.cost_report(t)
    print(f"security-tuple ({t.d_l},{t.d_pq},{t.nu}) p={t.p} omega={t.omega}")
    print(f"secret-param    {_fmt(rep.secret_param)}")
    print(f"initial-message {_fmt(rep.initial_message)}")
    print(f"shared-secret   {_fmt(rep.shared_secret)}")
    print(f"key-size-kb     {rep.key_size_kb}")
    print(f"brute-force     {_fmt(rep.brute_force)} (model estimate)")
    return 0


# -- challenges --------------------------------------------------------------------

def cmd_challenge(args) -> int:
    ring = _ring_arg(args.ring)
    if args.protocol == "exchange":
        build = _exchange_texts
    else:
        build = lambda r, a: _three_pass_texts(r, a)[:2]  # noqa: E731
    public_text, answer_text = build(ring, args)[:2]
    replay_public = build(ring, args)[0]
    if replay_public != public_text:
        print("challenge replay check FAILED", file=sys.stderr)
        return 1
    public_text = public_text.replace(f"seed {args.seed}\n", "seed withheld\n", 1)
    _write(f"{args.out_prefix}.public", public_text)
    _write(f"{args.out_prefix}.answer", answer_text)
    return 0


# -- parser ------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  Subcommand ``x-y`` runs
    ``cmd_x_y``, looked up by name at each call, so the cached parser holds
    no function that a caller may since have replaced or wrapped."""
    parser = argparse.ArgumentParser(
        prog="ore-kex",
        description="Key exchange and companion protocols over multivariate "
                    "Ore polynomial rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_ring(p, default="f125-skew2"):
        p.add_argument("--ring", default=default,
                       help=f"ring alias ({', '.join(sorted(RING_ALIASES))}) "
                            "or a full 'ring ...' descriptor line")

    def add_seed(p):
        p.add_argument("--seed", type=int, required=True,
                       help="64-bit seed; equal seeds reproduce outputs exactly")

    def add_tuple(p, defaults=(50, 5, 10)):
        for flag, default in zip(("--dL", "--dPQ", "--nu"), defaults):
            p.add_argument(flag, type=int, default=default)

    p = sub.add_parser("keygen", help="generate parameter and key files")
    add_ring(p)
    add_seed(p)
    p.add_argument("--scheme", choices=("kex", "encrypt", "sign"), default="kex")
    add_tuple(p)
    p.add_argument("--da", type=int, default=3, help="degree of the signing pair")
    p.add_argument("--out-prefix", required=True)

    p = sub.add_parser("exchange", help="run one full key-exchange session")
    add_ring(p)
    add_seed(p)
    add_tuple(p)
    p.add_argument("--out", default=None, help="transcript file (default stdout)")
    p.add_argument("--key-out", default=None, help="private/answer file")

    p = sub.add_parser("three-pass", help="send a private element under two-sided locks")
    add_ring(p)
    add_seed(p)
    add_tuple(p)
    p.add_argument("--out", default=None)
    p.add_argument("--answer-out", default=None)

    p = sub.add_parser("encrypt", help="encrypt a byte file under a public key")
    add_seed(p)
    p.add_argument("--pub", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("decrypt", help="decrypt a ciphertext file")
    p.add_argument("--sec", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("sign", help="sign a byte file")
    add_seed(p)
    p.add_argument("--sec", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--hash", action="store_true",
                   help="sign the sha256 digest instead of the raw bytes")

    p = sub.add_parser("verify", help="verify a signature file")
    p.add_argument("--pub", required=True)
    p.add_argument("--sig", required=True)

    p = sub.add_parser("zkp", help="prove knowledge of a factorization, interactively")
    add_ring(p)
    add_seed(p)
    p.add_argument("--rounds", type=int, default=40)
    p.add_argument("--dl1", type=int, default=3)
    p.add_argument("--dl2", type=int, default=3)
    p.add_argument("--blind-degree", type=int, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("check-weak", help="screen a weyl-ring key for weakness")
    add_ring(p, default=None)
    key = p.add_mutually_exclusive_group(required=True)
    key.add_argument("--key", default=None)
    key.add_argument("--key-text", default=None)
    p.add_argument("--public", default=None)
    p.add_argument("--public-text", default=None)

    p = sub.add_parser("estimate", help="step-count cost model")
    add_tuple(p, (None, None, None))
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--omega", type=float, default=costs.OMEGA_DEFAULT)
    p.add_argument("--table", action="store_true",
                   help="recompute the whole reference table with a match column")

    p = sub.add_parser("challenge", help="emit a public challenge plus withheld answer")
    add_ring(p)
    add_seed(p)
    p.add_argument("--protocol", choices=("exchange", "three-pass"), default="exchange")
    add_tuple(p)
    p.add_argument("--out-prefix", required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (NotDivisibleError, EncodingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ProtocolError, ResampleExhaustedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, OreKexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
