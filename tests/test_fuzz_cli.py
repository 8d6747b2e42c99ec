"""Fuzz of the untrusted text ``ore-kex check-weak`` reads: valid weyl2-f71
key and public texts with a few bytes replaced, inserted or deleted, run
through ``cli.main`` in process.  Every case must end in exit 0, 1 or 2
within the 1 s bound of the other hostile-input tests, with a short stderr
and no traceback."""

import contextlib
import io
import time

import numpy as np
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
