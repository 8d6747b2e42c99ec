"""The four benchmark workloads: input generation, one op each, and its checks.

Every op is built from a pool entry, a pair (pool, index) that fixes all of
its randomness, so one entry always gives the same outputs.  An op returns
``(digest, sizes)``: a sha256 over its outputs and the output sizes that can
be read without tracing.  A check that fails raises ``OpFailed``.

* ``kex``: PublicParameters.generate plus run_key_exchange at (50, 5, 10)
  in f125-skew2, and Bob's kex_finalize recomputed on Alice's message.
* ``three-pass``: a three-pass round trip at the CLI defaults (50, 5, 10),
  with recovered == secret.
* ``cli-files``: a sequence of in-process ``orekex.cli.main`` calls over
  files: encryption keys at (10, 3, 3), encrypt/decrypt of 2 KiB, signing
  keys at the CLI defaults, sign --hash, verify, a tampered signature, a
  40-round zkp and a crafted ciphertext that must exit 3.
* ``weyl``: weyl2-f71 key-exchange sessions at (4, 2, 1), weak-key
  screening included.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import tempfile

import numpy as np

from orekex import cli, protocols, serial
from orekex.orepoly import random_polynomial
from orekex.rings import ring_by_name


class OpFailed(Exception):
    """An op ran but its output is wrong."""


def poly_digest(h, poly) -> None:
    """Feed a polynomial's canonical term list into a hash."""
    h.update(repr(sorted(poly.terms.items())).encode())
    h.update(b"|")


def _check(cond: bool, what: str) -> None:
    if not cond:
        raise OpFailed(what)


# -- library flows ---------------------------------------------------------------

def _kex_session(ring, sizes, rng):
    params = protocols.PublicParameters.generate(ring, *sizes, rng)
    result = protocols.run_key_exchange(params, rng)
    a_part = result.transcript.entries[0].message
    bob_key = protocols.kex_finalize(params, result.bob, a_part)
    return result, bob_key


def _kex_outputs(result, bob_key):
    _check(bob_key == result.shared_key, "Bob's kex_finalize differs from the shared key")
    h = hashlib.sha256()
    for poly in [result.shared_key] + result.transcript.messages():
        poly_digest(h, poly)
    return h.hexdigest(), {"key_terms": len(result.shared_key.terms)}


class KexOp:
    ring_name = "f125-skew2"
    sizes = (50, 5, 10)
    warm_sizes = (10, 3, 3)

    def __init__(self, ring):
        self.ring = ring

    def prepare(self, rng):
        return rng

    def run(self, rng, warm=False):
        return _kex_session(self.ring, self.warm_sizes if warm else self.sizes, rng)

    def outputs(self, result):
        return _kex_outputs(*result)


class WeylOp(KexOp):
    # nu = 1: at nu = 2 one session takes 2-11 s here, too few per run to
    # give a steady figure; nu = 1 runs the same product and screening code
    ring_name = "weyl2-f71"
    sizes = (4, 2, 1)
    warm_sizes = (2, 2, 1)


def _noncommuting_secret(ring, d_l, setup, rng, max_attempts: int = 100):
    # the draw of the CLI's three-pass subcommand, copied so the benchmark
    # does not lean on a private helper of the library
    terms = max(2 * d_l, 4)
    for _ in range(max_attempts):
        cand = random_polynomial(ring, d_l, terms, rng)
        if not cand.commutes_with(setup.left_gen) and not cand.commutes_with(setup.right_gen):
            return cand
    raise OpFailed("could not sample a usable secret element")


class ThreePassOp:
    ring_name = "f125-skew2"
    sizes = (50, 5, 10)
    warm_sizes = (10, 3, 3)

    def __init__(self, ring):
        self.ring = ring

    def prepare(self, rng):
        return rng

    def run(self, rng, warm=False):
        d_l, d_pq, nu = self.warm_sizes if warm else self.sizes
        setup = protocols.CommutingSetup.generate(self.ring, d_pq, nu, rng)
        secret = _noncommuting_secret(self.ring, d_l, setup, rng)
        return secret, protocols.three_pass_exchange(setup, secret, rng)

    def outputs(self, result):
        secret, tp = result
        _check(tp.recovered == secret, "three-pass recovered a different element")
        h = hashlib.sha256()
        for poly in [tp.recovered] + tp.transcript.messages():
            poly_digest(h, poly)
        return h.hexdigest(), {"recovered_terms": len(tp.recovered.terms),
                               "pass2_terms": len(tp.transcript.entries[1].message.terms)}


# -- CLI over files ----------------------------------------------------------------

class CliFilesOp:
    """In-process CLI calls over files in a fresh directory under ``workdir``."""

    ring_name = "f125-skew2"
    message_bytes = 2048
    warm_message_bytes = 64
    zkp_rounds = 40
    # the crafted ciphertext's m_e is d1^SHIFT * P_final: a valid multiple
    # whose dividend grid is mostly empty, so decryption divides exactly and
    # then fails decoding (exit 3)
    shift = 1000

    def __init__(self, ring, workdir):
        self.ring = ring
        self.workdir = workdir

    def prepare(self, rng):
        seeds = [int(s) for s in rng.integers(0, 2**31, size=6)]
        return seeds, rng.bytes(self.message_bytes)

    def run(self, prepared, warm=False):
        seeds, message = prepared
        # the warm-up op shrinks the message and the signing keys
        sign_args = ["--dL", "5"] if warm else []
        if warm:
            message = message[: self.warm_message_bytes]
        with tempfile.TemporaryDirectory(dir=self.workdir) as tmp:
            return self._flow(tmp, seeds, message, sign_args)

    def _main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    def _flow(self, tmp, seeds, message, sign_args):
        def path(name):
            return os.path.join(tmp, name)

        s_key, s_enc, s_sign_key, s_sign, s_zkp, _ = seeds
        with open(path("msg.bin"), "wb") as fh:
            fh.write(message)
        steps = []

        def step(name, argv, expect, stdout=None):
            code, out = self._main(argv)
            _check(code == expect, f"{name} exited {code}, expected {expect}")
            if stdout is not None:
                _check(out.strip() == stdout, f"{name} printed {out.strip()!r}")
            steps.append(f"{name}:{code}:{out.strip()}")

        step("keygen-encrypt", ["keygen", "--scheme", "encrypt", "--seed", str(s_key),
                                "--dL", "10", "--dPQ", "3", "--nu", "3",
                                "--out-prefix", path("alice")], 0)
        step("encrypt", ["encrypt", "--pub", path("alice.pub"), "--in", path("msg.bin"),
                         "--seed", str(s_enc), "--out", path("ct.txt")], 0)
        step("decrypt", ["decrypt", "--sec", path("alice.sec"), "--in", path("ct.txt"),
                         "--out", path("msg.out")], 0)
        with open(path("msg.out"), "rb") as fh:
            _check(fh.read() == message, "decrypted file differs from the plaintext")
        step("keygen-sign", ["keygen", "--scheme", "sign", "--seed", str(s_sign_key),
                             *sign_args, "--out-prefix", path("signer")], 0)
        step("sign", ["sign", "--sec", path("signer.sec"), "--in", path("msg.bin"),
                      "--seed", str(s_sign), "--hash", "--out", path("sig.txt")], 0)
        step("verify", ["verify", "--pub", path("signer.pub"), "--sig", path("sig.txt")],
             0, "accept")
        self._tamper(path("sig.txt"), path("sig_bad.txt"))
        step("verify-tampered", ["verify", "--pub", path("signer.pub"),
                                 "--sig", path("sig_bad.txt")], 1, "reject")
        step("zkp", ["zkp", "--ring", self.ring_name, "--seed", str(s_zkp),
                     "--rounds", str(self.zkp_rounds), "--out", path("zkp.txt")], 0)
        self._craft(path("alice.sec"), path("ct.txt"), path("ct_bad.txt"))
        step("decrypt-crafted", ["decrypt", "--sec", path("alice.sec"),
                                 "--in", path("ct_bad.txt"), "--out", path("bad.out")], 3)
        _check(not os.path.exists(path("bad.out")), "crafted ciphertext wrote plaintext")

        h = hashlib.sha256("\n".join(steps).encode())
        sizes = {"file_bytes": 0}
        for name in sorted(os.listdir(tmp)):
            with open(path(name), "rb") as fh:
                data = fh.read()
            h.update(name.encode() + b"\0" + data + b"\0")
            sizes["file_bytes"] += len(data)
        return h.hexdigest(), sizes

    def _tamper(self, src, dst):
        # r1 + 1: the left side of the verification identity changes while
        # the right side does not, so an honest verifier must reject
        with open(src) as fh:
            ring, seed, entries = serial.parse_file(fh.read())
        lines = []
        for key, rest in entries:
            if key == "r1":
                rest = serial.poly_to_text(serial.poly_from_text(ring, rest) + 1)
            lines.append(f"{key} {rest}")
        with open(dst, "w") as fh:
            fh.write(serial.render_file(ring, seed, lines))

    def _craft(self, sec_path, ct_path, dst):
        with open(sec_path) as fh:
            ring, _, sec_entries = serial.parse_file(fh.read())
        with open(ct_path) as fh:
            _, seed, ct_entries = serial.parse_file(fh.read())
        sec = serial.entries_dict(sec_entries)
        ct = serial.entries_dict(ct_entries)
        p_bob = serial.poly_from_text(ring, ct["P_Bob"])
        p_final = (serial.poly_from_text(ring, sec["P_A"]) * p_bob
                   * serial.poly_from_text(ring, sec["Q_A"]))
        m_e = ring.d(1) ** self.shift * p_final
        with open(dst, "w") as fh:
            fh.write(serial.render_file(ring, seed, [
                "protocol encrypt",
                f"m_e {serial.poly_to_text(m_e)}",
                f"P_Bob {serial.poly_to_text(p_bob)}",
            ]))

    def outputs(self, result):
        return result


WORKLOADS = {
    "kex": KexOp,
    "three-pass": ThreePassOp,
    "cli-files": CliFilesOp,
    "weyl": WeylOp,
}


def make_op(name: str, workdir: str):
    cls = WORKLOADS[name]
    ring = ring_by_name(cls.ring_name)
    if cls is CliFilesOp:
        return cls(ring, workdir)
    return cls(ring)


def entry_rng(workload: str, pool: str, index: int):
    """The generator that fixes every random choice of one pool entry."""
    tag = list(hashlib.sha256(f"{workload}/{pool}".encode()).digest()[:8])
    return np.random.default_rng(tag + [index])
