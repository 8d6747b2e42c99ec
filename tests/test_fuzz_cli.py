"""Fuzz of untrusted input, run through ``cli.main`` in process: the text
``ore-kex check-weak`` reads (valid weyl2-f71 key and public texts) and the
ciphertext ``ore-kex decrypt`` reads (a valid f125-skew2 one), each with a
few bytes replaced, inserted or deleted.  Every case must end in an exit
code of the CLI's contract within the 1 s bound of the other hostile-input
tests, with a short stderr and no traceback."""

import contextlib
import io
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orekex import random_polynomial, ring_by_name
from orekex.cli import main

RING = ring_by_name("weyl2-f71")


def _valid_pairs():
    rng = np.random.default_rng(80)
    pairs = [tuple(random_polynomial(RING, degree, terms, rng).to_text() for _ in range(2))
             for degree, terms in [(4, 6), (3, 4), (2, 3)]]
    # a pair whose products pass the step limit unless the top parts'
    # Poisson bracket settles it: digit edits move it across both answers
    n = 40000
    pairs.append((f"1*x1^0*x2^0*d1^{n}*d2^{n} + 1*x1^1*x2^0*d1^0*d2^0",
                  f"1*x1^{n}*x2^{n}*d1^0*d2^0"))
    return pairs


VALID = _valid_pairs()
EDITS = st.lists(st.tuples(st.sampled_from(["digit", "replace", "insert", "delete"]),
                           st.integers(0, 1 << 16),
                           st.one_of(st.sampled_from(b"0123456789^*+- xd"),
                                     st.integers(0, 255))),
                 min_size=1, max_size=4)


def _mutate(text: str, edits) -> str:
    """text with each edit applied to its UTF-8 bytes, at its position taken
    modulo the length, decoded as a command line is (surrogateescape).  A
    digit edit sets the digit at its position among the digits of
    coefficients and exponents to the byte mod 10, so that most such texts
    still parse and reach the screen."""
    data = bytearray(text.encode())
    for kind, at, byte in edits:
        digits = [i for i, b in enumerate(data) if 48 <= b <= 57 and data[i - 1:i] not in b"xd"]
        if kind == "digit":
            if digits:
                data[digits[at % len(digits)]] = 48 + byte % 10
            continue
        at %= len(data) + 1
        if kind == "insert":
            data[at:at] = bytes([byte])
        elif at < len(data):
            data[at:at + 1] = b"" if kind == "delete" else bytes([byte])
    return data.decode("utf-8", "surrogateescape")


@settings(max_examples=300, derandomize=True, deadline=None)
@given(pair=st.sampled_from(VALID), side=st.integers(0, 1), edits=EDITS)
def test_check_weak_survives_mutated_texts(pair, side, edits):
    texts = list(pair)
    texts[side] = _mutate(texts[side], edits)
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check-weak", "--ring", "weyl2-f71",
                     f"--key-text={texts[0]}", f"--public-text={texts[1]}"])
    assert code in (0, 1, 2) and time.perf_counter() - t0 < 1.0
    err = err.getvalue()
    assert len(err.encode("utf-8", "backslashreplace")) < 300 and "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and not out.getvalue()
    else:
        assert not err and out.getvalue() in ("accept\n", "reject graded\n", "reject commutes\n")


@pytest.fixture(scope="module")
def encrypted(tmp_path_factory):
    """A directory holding an f125-skew2 decryption key ``k.sec`` and a
    ciphertext ``ct`` of 16 bytes under it, both written by the CLI."""
    where = tmp_path_factory.mktemp("decrypt")
    (where / "msg").write_bytes(b"attack at dawn!!")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["keygen", "--scheme", "encrypt", "--dL", "4", "--dPQ", "1", "--nu", "2",
                     "--seed", "1", "--out-prefix", str(where / "k")]) == 0
        assert main(["encrypt", "--seed", "2", "--pub", str(where / "k.pub"),
                     "--in", str(where / "msg"), "--out", str(where / "ct")]) == 0
    return where


# digit edits draw digits below p = 5, so that most mutated ciphertexts still
# parse and reach the division
BYTE_EDITS = st.tuples(st.sampled_from(["replace", "insert", "delete"]), st.integers(0, 1 << 16),
                       st.one_of(st.sampled_from(b"0123456789^*+- d[],"), st.integers(0, 255)))
CIPHER_EDITS = st.lists(st.one_of(st.tuples(st.just("digit"), st.integers(0, 1 << 16),
                                            st.integers(0, 4)), BYTE_EDITS),
                        min_size=1, max_size=4)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(key=st.sampled_from(["m_e", "P_Bob"]), edits=CIPHER_EDITS)
def test_decrypt_survives_mutated_ciphertexts(encrypted, key, edits):
    lines = (encrypted / "ct").read_text().splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith(key + " "))
    lines[i] = f"{key} {_mutate(lines[i][len(key) + 1:-1], edits)}\n"
    (encrypted / "bad").write_bytes("".join(lines).encode("utf-8", "surrogateescape"))
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["decrypt", "--sec", str(encrypted / "k.sec"), "--in", str(encrypted / "bad"),
                     "--out", str(encrypted / "plain")])
    assert code in (0, 1, 2, 3) and time.perf_counter() - t0 < 1.0
    err = err.getvalue()
    assert len(err.encode("utf-8", "backslashreplace")) < 300 and "Traceback" not in err
    assert not out.getvalue() and (err.startswith("error: ") if code else not err)
