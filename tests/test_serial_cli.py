import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from orekex import OreKexError, ParseError, orepoly, random_polynomial, ring_by_name
import orekex
from orekex.cli import build_parser, main
from orekex.rings import MAX_VARIABLES, RING_ALIASES
from orekex.serial import parse_file, poly_from_text, poly_to_text, render_file, ring_from_text

from helpers import alpha, field_constant

SKEW = ring_by_name("f125-skew2")
WEYL = ring_by_name("weyl3-f71")
SRC = str(Path(orekex.__file__).resolve().parents[1])


def test_ring_round_trip():
    for ring in (SKEW, WEYL):
        assert ring_from_text(ring.to_text()) == ring
    assert SKEW.to_text() == "ring skew p=5 k=3 m=[3,3,0,1] sigma=[2,1]"
    assert WEYL.to_text() == "ring weyl p=71 n=3"
    with pytest.raises(ParseError):
        ring_from_text("ring cyclic p=5")


ROUND_TRIP_RINGS = [ring_by_name(name) for name in RING_ALIASES] + [
    ring_from_text("ring skew p=5 k=3 m=[3,3,0,1] sigma=[2,1,1,2]"),
    ring_from_text("ring skew p=2 k=8 m=[1,1,0,1,1,0,0,0,1] sigma=[1,3]"),
]


def test_poly_round_trip():
    rng = np.random.default_rng(70)
    for ring in ROUND_TRIP_RINGS:
        for _ in range(50):
            h = random_polynomial(ring, int(rng.integers(0, 6)), int(rng.integers(1, 8)), rng)
            text = poly_to_text(h)
            assert poly_from_text(ring, text) == h
            # term order is free on input
            chunks = text.split(" + ")
            rng.shuffle(chunks)
            assert poly_from_text(ring, " + ".join(chunks)) == h
        assert poly_from_text(ring, "0") == ring.zero()
        # a zero coefficient drops its term
        fields = ring.term_format().count("{}")
        zero_term = ring.term_format().format(*[0] * fields)
        one_term = ring.term_format().format(*[1] * fields)
        assert poly_from_text(ring, zero_term) == ring.zero()
        assert poly_from_text(ring, f"{one_term} + {zero_term}") == poly_from_text(ring, one_term)


def test_poly_text_shape():
    assert SKEW.term_format() == "[{},{},{}]*d1^{}*d2^{}"
    assert ring_by_name("weyl2-f71").term_format() == "{}*x1^{}*x2^{}*d1^{}*d2^{}"
    d1, d2 = SKEW.d(1), SKEW.d(2)
    h = field_constant(SKEW, alpha(SKEW.field)) * d1 * d2 + 2
    assert poly_to_text(h) == "[0,1,0]*d1^1*d2^1 + [2,0,0]*d1^0*d2^0"
    w = WEYL.x(2) ** 2 * WEYL.d(3)
    assert poly_to_text(w) == "1*x1^0*x2^2*x3^0*d1^0*d2^0*d3^1"


def test_file_round_trip():
    text = render_file(SKEW, 7, ["protocol params", "nu 10"])
    ring, seed, entries = parse_file(text)
    assert ring == SKEW and seed == 7
    assert ("protocol", "params") in entries and ("nu", "10") in entries
    withheld = render_file(SKEW, None, [])
    assert "seed withheld" in withheld
    assert parse_file(withheld)[1] is None
    with pytest.raises(ParseError):
        parse_file("not a header\n")


# -- CLI ---------------------------------------------------------------------------

def _run(*argv):
    return main(list(argv))


def test_cli_exchange_deterministic(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    args = ["exchange", "--ring", "f125-skew2", "--dL", "8", "--dPQ", "2",
            "--nu", "2", "--seed", "7"]
    assert _run(*args, "--out", str(a)) == 0
    assert _run(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    ring, seed, entries = parse_file(a.read_text())
    assert seed == 7
    labels = [rest.split()[1] for key, rest in entries if key == "msg"]
    assert labels == ["A_part", "B_part"]


def test_cli_three_pass(tmp_path):
    out = tmp_path / "t.txt"
    ans = tmp_path / "t.ans"
    rc = _run("three-pass", "--ring", "f125-skew2", "--dL", "6", "--dPQ", "2",
              "--nu", "2", "--seed", "9", "--out", str(out), "--answer-out", str(ans))
    assert rc == 0
    _, _, entries = parse_file(ans.read_text())
    kv = dict(entries)
    assert kv["recovered"] == kv["L"]



def _three_variable_three_pass(tmp_path, d_l, d_pq, nu, seed) -> tuple[float, str]:
    """Seconds and output sha256 of a CLI three-pass in F_125 with sigma = (1, 2, 1)."""
    out = tmp_path / "t.txt"
    t0 = time.perf_counter()
    assert _run("three-pass", "--ring", "ring skew p=5 k=3 m=[3,3,0,1] sigma=[1,2,1]",
                "--dL", d_l, "--dPQ", d_pq, "--nu", nu, "--seed", seed, "--out", str(out)) == 0
    return time.perf_counter() - t0, hashlib.sha256(out.read_bytes()).hexdigest()


def test_cli_three_variable_three_pass(tmp_path):
    # three-variable skew rings divide on a three-weight Kronecker line, as
    # two-variable ones do on a two-weight one.  Peeling one term at a time
    # with each lead a max over the whole remainder made this session
    # quadratic (about 19 s).  The digest is that of the session's file from
    # the peeling code.
    seconds, digest = _three_variable_three_pass(tmp_path, "10", "2", "3", "1")
    assert seconds < 8.0
    assert digest == "ecb62c65218ecf6133d1bedbcb2bd74415c99fd3d503d9a3e77f1a94ab3f6d2c"


def test_cli_three_variable_three_pass_at_20_3_5(tmp_path):
    # peeling took about 110 s here even with its leads off a heap; the
    # digest is that of the session's file from the peeling code
    seconds, digest = _three_variable_three_pass(tmp_path, "20", "3", "5", "2")
    assert seconds < 10.0
    assert digest == "3fa0a87ed08f5de2faee271258081f6c7a33e1644eedf6addcca9928d30d1ed8"


def test_cli_exchange_over_f256(tmp_path):
    # F_2[x]/<x^8 + x^4 + x^3 + x + 1>: k = 8, irreducible by Rabin's test
    out, key = tmp_path / "t.txt", tmp_path / "t.key"
    assert _run("exchange", "--ring", "ring skew p=2 k=8 m=[1,1,0,1,1,0,0,0,1] sigma=[1,3]",
                "--dL", "6", "--dPQ", "2", "--nu", "2", "--seed", "1", "--out", str(out),
                "--key-out", str(key)) == 0
    assert "shared_key" in dict(parse_file(key.read_text())[2])


def test_cli_encrypt_decrypt_and_corruption(tmp_path):
    prefix = tmp_path / "alice"
    assert _run("keygen", "--scheme", "encrypt", "--ring", "f125-skew2",
                "--dL", "6", "--dPQ", "2", "--nu", "2", "--seed", "3",
                "--out-prefix", str(prefix)) == 0
    msg = tmp_path / "msg.bin"
    msg.write_bytes(b"ore polynomials lock boxes")
    ct = tmp_path / "ct.txt"
    assert _run("encrypt", "--pub", f"{prefix}.pub", "--in", str(msg),
                "--seed", "4", "--out", str(ct)) == 0
    out = tmp_path / "out.bin"
    assert _run("decrypt", "--sec", f"{prefix}.sec", "--in", str(ct),
                "--out", str(out)) == 0
    assert out.read_bytes() == msg.read_bytes()
    # flip one digit inside the m_e line: corruption must exit 3
    lines = ct.read_text().splitlines()
    idx = next(i for i, ln in enumerate(lines) if ln.startswith("m_e "))
    body = lines[idx]
    pos = body.index("[") + 1
    digit = body[pos]
    flipped = "1" if digit != "1" else "2"
    lines[idx] = body[:pos] + flipped + body[pos + 1:]
    ct.write_text("\n".join(lines) + "\n")
    assert _run("decrypt", "--sec", f"{prefix}.sec", "--in", str(ct),
                "--out", str(out)) == 3


def test_cli_sign_verify_and_tamper(tmp_path):
    prefix = tmp_path / "signer"
    assert _run("keygen", "--scheme", "sign", "--ring", "f125-skew2",
                "--dL", "5", "--da", "2", "--seed", "5",
                "--out-prefix", str(prefix)) == 0
    msg = tmp_path / "msg.bin"
    msg.write_bytes(b"signed statement")
    sig = tmp_path / "sig.txt"
    assert _run("sign", "--sec", f"{prefix}.sec", "--in", str(msg),
                "--seed", "6", "--out", str(sig)) == 0
    assert _run("verify", "--pub", f"{prefix}.pub", "--sig", str(sig)) == 0
    lines = sig.read_text().splitlines()
    idx = next(i for i, ln in enumerate(lines) if ln.startswith("m "))
    body = lines[idx]
    pos = body.index("[") + 1
    digit = body[pos]
    lines[idx] = body[:pos] + ("1" if digit != "1" else "2") + body[pos + 1:]
    sig.write_text("\n".join(lines) + "\n")
    assert _run("verify", "--pub", f"{prefix}.pub", "--sig", str(sig)) == 1
    # hashing variant
    assert _run("sign", "--sec", f"{prefix}.sec", "--in", str(msg),
                "--seed", "6", "--out", str(sig), "--hash") == 0
    assert _run("verify", "--pub", f"{prefix}.pub", "--sig", str(sig)) == 0


def test_cli_zkp(tmp_path):
    out = tmp_path / "zkp.txt"
    rc = _run("zkp", "--ring", "f125-skew2", "--seed", "11", "--rounds", "12",
              "--dl1", "2", "--dl2", "2", "--blind-degree", "3", "--out", str(out))
    assert rc == 0
    text = out.read_text()
    assert text.count("accept") == 12


def test_cli_check_weak():
    assert _run("check-weak", "--ring", "weyl2-f71",
                "--key-text", "1*x1^1*x2^0*d1^1*d2^0 + 3*x1^0*x2^0*d1^0*d2^0") == 1
    assert _run("check-weak", "--ring", "weyl2-f71",
                "--key-text", "1*x1^1*x2^0*d1^0*d2^0 + 3*x1^0*x2^0*d1^1*d2^0") == 0
    # non-graded key that commutes with the public element is still rejected
    assert _run("check-weak", "--ring", "weyl2-f71",
                "--key-text", "1*x1^0*x2^0*d1^1*d2^0 + 1*x1^0*x2^0*d1^2*d2^0",
                "--public-text", "1*x1^0*x2^0*d1^1*d2^0") == 1
    # skew rings have no grading screen
    assert _run("check-weak", "--ring", "f125-skew2",
                "--key-text", "[1,0,0]*d1^1*d2^0") == 2


def test_cli_estimate_table(capsys):
    assert _run("estimate", "--table") == 0
    out = capsys.readouterr().out
    assert "table-match: PASS" in out
    assert out.count(" OK") == 9
    assert _run("estimate", "--dL", "30", "--dPQ", "5", "--nu", "10") == 0
    out = capsys.readouterr().out
    assert "1.247955E+08" in out
    assert "3.012579E+06" in out or "3.012578E+06" in out
    assert _run("estimate") == 2  # missing arguments


def test_cli_challenge_replay(tmp_path):
    prefix = tmp_path / "chal"
    rc = _run("challenge", "--protocol", "exchange", "--ring", "f125-skew2",
              "--dL", "8", "--dPQ", "2", "--nu", "2", "--seed", "7",
              "--out-prefix", str(prefix))
    assert rc == 0
    public = (tmp_path / "chal.public").read_text()
    answer = (tmp_path / "chal.answer").read_text()
    assert "seed withheld" in public
    assert "seed 7" in answer
    assert "shared_key" in answer
    for secret_marker in ("f_A", "P_A", "shared_key"):
        assert secret_marker not in public
    # replaying the recorded seed reproduces the public view
    _, seed, _ = parse_file(answer)
    replay = tmp_path / "replay.txt"
    assert _run("exchange", "--ring", "f125-skew2", "--dL", "8", "--dPQ", "2",
                "--nu", "2", "--seed", str(seed), "--out", str(replay)) == 0
    assert replay.read_text() == public.replace("seed withheld", f"seed {seed}")


def test_parser_built_once_writes_what_separate_runs_write(tmp_path, capsys):
    """Successive main calls in one process share one parser; their files,
    output and exit codes equal those of each call in a process of its own."""
    calls = [
        ["exchange", "--ring", "f125-skew2", "--dL", "6", "--dPQ", "2", "--nu", "2",
         "--seed", "7", "--out", "{}/exchange.txt"],
        ["estimate", "--dL", "30", "--dPQ", "5", "--nu", "10"],
        ["three-pass", "--ring", "f125-skew2", "--dL", "6", "--dPQ", "2", "--nu", "2",
         "--seed", "8", "--out", "{}/three-pass.txt"],
    ]

    def outputs(run, where):
        where.mkdir()
        seen = []
        for argv in calls:
            code, out = run([a.format(where) for a in argv])
            seen.append((code, out))
        return seen + sorted((f.name, f.read_bytes()) for f in where.iterdir())

    def in_process(argv):
        code = main(argv)
        return code, capsys.readouterr().out

    def own_process(argv):
        done = subprocess.run([sys.executable, "-m", "orekex.cli", *argv], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": SRC}, check=False)
        return done.returncode, done.stdout

    build_parser.cache_clear()
    shared = outputs(in_process, tmp_path / "shared")
    assert build_parser.cache_info().misses == 1 and build_parser.cache_info().hits == 2
    assert shared == outputs(own_process, tmp_path / "separate")


def test_cli_usage_errors(tmp_path):
    assert _run("decrypt", "--sec", str(tmp_path / "missing"), "--in",
                str(tmp_path / "nope"), "--out", str(tmp_path / "x")) == 2
    with pytest.raises(SystemExit) as exc:
        _run("exchange", "--ring", "f125-skew2")  # --seed missing
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        _run("check-weak", "--ring", "weyl2-f71")  # neither --key nor --key-text
    assert exc.value.code == 2


SIGNATURE_KEYS = ("m", "gamma", "q1", "r1", "q2", "r2", "eps1", "eps2")
SKEW_LINE = SKEW.to_text()
DIAGONAL_TERMS = " + ".join(f"[1,0,0]*d1^{i}*d2^{i}" for i in range(50_000))
SKEW4_LINE = "ring skew p=5 k=3 m=[3,3,0,1] sigma=[2,1,1,2]"


@pytest.mark.parametrize("ring_line, seed_line, public_l, m", [
    (SKEW_LINE, "seed 1", "[,]*d1^1*d2^0", "0"),
    (SKEW_LINE, "seed 1", "[ ]*d1^0*d2^0", "0"),
    (SKEW_LINE, "seed x", "0", "0"),
    ("ring skew p=5 k=x m=[3,3,0,1] sigma=[2,1]", "seed 1", "0", "0"),
    # m * L needs a 101^4-cell grid: refused by the kernel's cell limit
    (SKEW4_LINE, "seed 1", "[1,0,0]*d1^100*d2^0*d3^0*d4^0 + [2,0,0]*d1^0*d2^100*d3^0*d4^0",
     "[1,0,0]*d1^0*d2^0*d3^100*d4^0 + [2,0,0]*d1^0*d2^0*d3^0*d4^100"),
    # m * L is d1^(10^12 + 1), a one-cell grid at its offset: cheap, and the
    # signature is rejected (exit 1), not refused
    (SKEW_LINE, "seed 1", "[1,0,0]*d1^999999999999*d2^0", "[1,0,0]*d1^1*d2^0"),
    # a field of order about 10^18: the tables would need q^2 cells
    ("ring skew p=1000000007 k=2 m=[5,0,1] sigma=[1,1]", "seed 1", "0", "0"),
    # a 19-digit characteristic: about 10^9 trial divisions in is_prime
    ("ring weyl p=1000000000000000003 n=2", "seed 1", "0", "0"),
    # (x+1)^8 over F_2 names no field
    ("ring skew p=2 k=8 m=[1,0,0,0,0,0,0,0,1] sigma=[1,3]", "seed 1", "0", "0"),
    # hostile lines of about a megabyte: each is refused or parsed in linear time
    ("ring weyl p=" + "1" * 10**6 + " n=2", "seed 1", "0", "0"),
    (SKEW_LINE, "seed 1", "[" + "1" * 10**6, "0"),
    (SKEW_LINE, "seed 1", "[1,0,0]*d1^" + "9" * 10**6 + "*d2^0", "0"),
    (SKEW_LINE, "seed 1", " + ".join(["[1,0,0]*d1^1*d2^0"] * 50_000), "0"),
    # m spans a 50000^2 box: refused by the cell limit where it is parsed
    (SKEW_LINE, "seed 1", "[1,0,0]*d1^1*d2^0", DIAGONAL_TERMS),
    # more Ore variables than MAX_VARIABLES, in 27 bytes and in a sigma list
    ("ring weyl p=71 n=100000", "seed 1", "0", "0"),
    ("ring skew p=5 k=3 m=[3,3,0,1] sigma=[" + ",".join(["1"] * (MAX_VARIABLES + 1)) + "]",
     "seed 1", "0", "0"),
], ids=["empty-digit", "blank-coefficient", "seed-x", "ring-k-x", "skew4-grid",
        "int64-exponent", "skew-field-order", "weyl-characteristic", "reducible-modulus",
        "megabyte-ring-line", "unclosed-digit-run", "million-digit-exponent", "repeated-term",
        "distinct-terms-over-cell-limit", "weyl-variable-count", "skew-variable-count"])
def test_cli_malformed_or_oversized_input_exits_2(tmp_path, capsys, ring_line, seed_line,
                                                  public_l, m):
    head = f"# ore-kex v1\n{ring_line}\n{seed_line}\nrng numpy-pcg64\n"
    pub = tmp_path / "pub.txt"
    pub.write_text(head + f"L {public_l}\nP_Alice 0\n")
    sig = tmp_path / "sig.txt"
    sig.write_text(head + f"m {m}\n" + "".join(f"{k} 0\n" for k in SIGNATURE_KEYS[1:]))
    t0 = time.perf_counter()
    code = _run("verify", "--pub", str(pub), "--sig", str(sig))
    assert time.perf_counter() - t0 < 1.0
    out, err = capsys.readouterr()
    if public_l == "[1,0,0]*d1^999999999999*d2^0":
        assert code == 1 and out == "reject\n" and not err
        return
    assert code == 2
    assert err.startswith("error: ") and len(err) < 300 and "Traceback" not in err


@pytest.mark.parametrize("public_l, m", [
    # 2^63 and a 20-digit exponent: past int64, refused where they are parsed
    ("[1,0,0]*d1^9223372036854775808*d2^0", "[1,0,0]*d1^1*d2^0"),
    ("[1,0,0]*d1^1*d2^0", "[1,0,0]*d1^0*d2^18446744073709551616"),
    # 2^63 - 1 parses, and m * L passes int64 in the product
    ("[1,0,0]*d1^9223372036854775807*d2^0", "[1,0,0]*d1^1*d2^0"),
], ids=["2-63", "2-64", "product-past-2-63"])
def test_cli_skew_exponent_past_int64_exits_2(tmp_path, capsys, public_l, m):
    head = f"# ore-kex v1\n{SKEW_LINE}\nseed 1\nrng numpy-pcg64\n"
    pub, sig = tmp_path / "pub.txt", tmp_path / "sig.txt"
    pub.write_text(head + f"L {public_l}\nP_Alice 0\n")
    sig.write_text(head + f"m {m}\n" + "".join(f"{k} 0\n" for k in SIGNATURE_KEYS[1:]))
    t0 = time.perf_counter()
    assert _run("verify", "--pub", str(pub), "--sig", str(sig)) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "too large" in err and len(err) < 300


def test_many_distinct_terms_parse():
    # 50,000 terms in a 250 x 200 box parse; on the diagonal their box is
    # 50,000^2 cells, refused by the cell limit where the value is parsed
    square = " + ".join(f"[1,0,0]*d1^{i % 250}*d2^{i // 250}" for i in range(50_000))
    t0 = time.perf_counter()
    assert len(poly_from_text(SKEW, square)) == 50_000
    with pytest.raises(OreKexError, match="cell limit"):
        poly_from_text(SKEW, DIAGONAL_TERMS)
    assert time.perf_counter() - t0 < 1.0


def test_rings_at_the_variable_limit_parse():
    rng = np.random.default_rng(71)
    sigma = ",".join(["1", "2"] * (MAX_VARIABLES // 2))
    for line in (f"ring weyl p=71 n={MAX_VARIABLES}",
                 f"ring skew p=5 k=3 m=[3,3,0,1] sigma=[{sigma}]"):
        ring = ring_from_text(line)
        assert ring.n == MAX_VARIABLES
        h = random_polynomial(ring, 4, 6, rng)
        assert poly_from_text(ring, poly_to_text(h)) == h
    with pytest.raises(OreKexError, match="Ore variables"):
        orekex.weyl_ring(71, MAX_VARIABLES + 1)


def test_cli_characteristic_2_weyl_message_exits_2(tmp_path):
    """A weyl ring over F_2 has one nonzero coefficient value, so no number
    of base-1 digits spans a byte: encrypt and sign refuse at once."""
    ring = "ring weyl p=2 n=2"
    for scheme in ("encrypt", "sign"):
        assert _run("keygen", "--scheme", scheme, "--ring", ring, "--dL", "3", "--dPQ", "2",
                    "--nu", "1", "--seed", "1", "--out-prefix", str(tmp_path / scheme)) == 0
    (tmp_path / "msg").write_bytes(b"a")
    for argv in (("encrypt", "--pub", "encrypt.pub"), ("sign", "--sec", "sign.sec")):
        done = subprocess.run([sys.executable, "-m", "orekex.cli", *argv, "--seed", "1",
                               "--in", "msg", "--out", "out"], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": SRC}, cwd=tmp_path, timeout=5)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert "Traceback" not in done.stderr



@pytest.mark.parametrize("blind_degree", ["3000", "2000"])
def test_cli_oversized_blinding_exits_2(tmp_path, blind_degree):
    """Blinding at degree 3000 asks for 4.5M terms, over the cell limit, and
    is refused before any draw; at 2000 the two 2M-term draws run on arrays
    and the commitment, whose box follows from the three spans, is refused
    before any product.  Drawn term by term, the two runs took 33.7 s and
    31.6 s before exiting 2."""
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "orekex.cli", "zkp", "--ring", "f125-skew2",
                           "--seed", "1", "--rounds", "1", "--blind-degree", blind_degree,
                           "--out", "zkp.txt"], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, cwd=tmp_path, timeout=60)
    assert time.perf_counter() - t0 < 5.0
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ") and "limit" in done.stderr
    assert len(done.stderr) < 300 and "Traceback" not in done.stderr


WEYL2_LINE = ring_by_name("weyl2-f71").to_text()


GRAMMAR_CASES = [
    (SKEW_LINE, "[5,0,0]*d1^1*d2^0", "[4,0,0]*d1^1*d2^0"),
    (SKEW_LINE, "[6,0,0]*d1^1*d2^0", "[1,0,0]*d1^1*d2^0"),
    (SKEW_LINE, "[ 1 , 0,0 ]*d1^1*d2^0", "[1,0,0]*d1^1*d2^0"),
    (SKEW_LINE, "[1,0,0]*d1^\u0661*d2^0", "[1,0,0]*d1^1*d2^0"),
    (SKEW_LINE, "[1,0,0]*d1^1*d2^0 +  [2,0,0]*d1^0*d2^0",
     "[1,0,0]*d1^1*d2^0 + [2,0,0]*d1^0*d2^0"),
    (SKEW_LINE, "[1,0]*d1^1*d2^0", "[1,0,0]*d1^1*d2^0"),
    (SKEW_LINE, "[1,0,0]*d2^0*d1^1", "[1,0,0]*d1^1*d2^0"),
    (SKEW_LINE, "[1,0,0]*d1^1*d2^0*d3^0", "[1,0,0]*d1^1*d2^0"),
    (WEYL2_LINE, "-1*x1^1*x2^0*d1^0*d2^0", "70*x1^1*x2^0*d1^0*d2^0"),
    (WEYL2_LINE, "+3*x1^1*x2^0*d1^0*d2^0", "3*x1^1*x2^0*d1^0*d2^0"),
    (WEYL2_LINE, "72*x1^1*x2^0*d1^0*d2^0", "1*x1^1*x2^0*d1^0*d2^0"),
    # one value, one text: no integer field takes a leading zero
    (SKEW_LINE, "[01,0,0]*d1^1*d2^0", "[1,0,0]*d1^1*d2^0"),
    (SKEW_LINE, "[1,0,0]*d1^01*d2^0", "[1,0,0]*d1^1*d2^0"),
    (WEYL2_LINE, "01*x1^1*x2^0*d1^0*d2^0", "1*x1^1*x2^0*d1^0*d2^0"),
]


@pytest.mark.parametrize("ring_line, bad, good", GRAMMAR_CASES, ids=[
        "digit-p", "digit-over-p", "spaces-in-term", "non-ascii-digit", "double-space",
        "short-coefficient", "d2-before-d1", "extra-variable",
        "weyl-minus", "weyl-plus", "weyl-coefficient-over-p",
        "digit-leading-zero", "exponent-leading-zero", "weyl-coefficient-leading-zero"])
def test_cli_term_outside_the_grammar_exits_2(tmp_path, capsys, ring_line, bad, good):
    """Only the writer's own term shape parses: each bad line is refused and
    the line the writer emits for the same term is accepted."""
    head = f"# ore-kex v1\n{ring_line}\nseed 1\nrng numpy-pcg64\n"
    pub, sig = tmp_path / "pub.txt", tmp_path / "sig.txt"
    sig.write_text(head + "".join(f"{k} 0\n" for k in SIGNATURE_KEYS))
    for text, code in ((good, 0), (bad, 2)):
        pub.write_text(head + f"L {text}\nP_Alice 0\n")
        assert _run("verify", "--pub", str(pub), "--sig", str(sig)) == code
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_oversized_division_exits_2(tmp_path, capsys):
    prefix = tmp_path / "alice"
    assert _run("keygen", "--scheme", "encrypt", "--ring", "f125-skew2",
                "--dL", "6", "--dPQ", "2", "--nu", "2", "--seed", "3",
                "--out-prefix", str(prefix)) == 0
    sec = {key: rest for key, rest in parse_file((tmp_path / "alice.sec").read_text())[2]}
    p_bob = SKEW.d(1)
    p_final = poly_from_text(SKEW, sec["P_A"]) * p_bob * poly_from_text(SKEW, sec["Q_A"])
    ct, out = tmp_path / "ct.txt", tmp_path / "out.bin"

    def decrypt(m_e):
        ct.write_text(render_file(SKEW, 4, [f"m_e {m_e}", f"P_Bob {poly_to_text(p_bob)}"]))
        capsys.readouterr()
        t0 = time.perf_counter()
        code = _run("decrypt", "--sec", f"{prefix}.sec", "--in", str(ct), "--out", str(out))
        return code, time.perf_counter() - t0, capsys.readouterr().err

    # m_e = d1^20000 has one exponent on each axis, where a multiple of
    # P_final spans as many as P_final does: no cofactor, and no grid built
    code, seconds, _ = decrypt(SKEW.poly({(20000, 0): 1}))
    assert code == 3 and seconds < 1.0
    # P_final plus d1^3000*d2^3000 fits the exponent ranges of a multiple of
    # P_final, but it spans about 3000^2 cells: refused where it is parsed
    code, seconds, err = decrypt(f"{poly_to_text(p_final)} + [1,0,0]*d1^3000*d2^3000")
    assert code == 2 and "cell limit" in err and seconds < 1.0
    assert not out.exists()


def test_cli_weyl_decrypt_of_crafted_ciphertexts_ends_at_once(tmp_path, capsys):
    weyl = ring_by_name("weyl2-f71")
    prefix, msg, ct, out = (tmp_path / name for name in ("alice", "msg.bin", "ct.txt", "out"))
    assert _run("keygen", "--scheme", "encrypt", "--ring", "weyl2-f71", "--dL", "4",
                "--dPQ", "2", "--nu", "1", "--seed", "1", "--out-prefix", str(prefix)) == 0
    msg.write_bytes(b"hi")
    assert _run("encrypt", "--pub", f"{prefix}.pub", "--in", str(msg), "--seed", "2",
                "--out", str(ct)) == 0
    sec = dict(parse_file((tmp_path / "alice.sec").read_text())[2])
    p_bob = dict(parse_file(ct.read_text())[2])["P_Bob"]
    p_final = (poly_from_text(weyl, sec["P_A"]) * poly_from_text(weyl, p_bob)
               * poly_from_text(weyl, sec["Q_A"]))
    tops = p_final.tops()
    # one monomial at P_final's tops times x1^(10^12): the cofactor would be
    # a power of x1, which no step of the division finds
    far = weyl.poly({(tops[0] + 10 ** 12, *tops[1:]): 1})
    # the lex-leading term of P_final's top layer times (x1 x2 d1 d2)^n, and
    # a far term on each axis to widen the cofactor's box: the top layer's
    # division wanders inside the box until the layer is too long for the
    # step limit of its product
    n = 10 ** 6
    lead = max(e for e in p_final.terms if sum(e) == p_final.total_degree())
    wide = weyl.poly({tuple(a + n for a in lead): 1,
                      **{tuple(t + 2 * n if j == i else 0 for j, t in enumerate(tops)): 1
                         for i in range(4)}})
    for m_e, code in ((far, 3), (wide, 2)):
        ct.write_text(render_file(weyl, 2, [f"m_e {poly_to_text(m_e)}", f"P_Bob {p_bob}"]))
        capsys.readouterr()
        t0 = time.perf_counter()
        assert _run("decrypt", "--sec", f"{prefix}.sec", "--in", str(ct), "--out", str(out)) == code
        assert time.perf_counter() - t0 < 1.0
        assert "Traceback" not in capsys.readouterr().err and not out.exists()


def _valid_files(tmp_path):
    """Writes one valid file of each kind a command reads; returns the argv
    of the command that reads each, keyed by file name."""
    d = tmp_path
    (d / "msg.bin").write_bytes(b"hostile files")
    assert _run("keygen", "--scheme", "encrypt", "--dL", "6", "--dPQ", "2", "--nu", "2",
                "--seed", "3", "--out-prefix", str(d / "enc")) == 0
    assert _run("encrypt", "--pub", str(d / "enc.pub"), "--in", str(d / "msg.bin"),
                "--seed", "4", "--out", str(d / "ct.txt")) == 0
    assert _run("keygen", "--scheme", "sign", "--dL", "5", "--da", "2", "--seed", "5",
                "--out-prefix", str(d / "signer")) == 0
    assert _run("sign", "--sec", str(d / "signer.sec"), "--in", str(d / "msg.bin"),
                "--seed", "6", "--out", str(d / "raw.sig")) == 0
    assert _run("keygen", "--scheme", "encrypt", "--ring", "weyl2-f71", "--dL", "4",
                "--dPQ", "2", "--nu", "1", "--seed", "3", "--out-prefix", str(d / "weyl")) == 0
    weyl = ring_by_name("weyl2-f71")
    (d / "weak.key").write_text(render_file(weyl, None, ["key 1*x1^1*x2^0*d1^0*d2^0"]))
    verify = ["verify", "--pub", str(d / "signer.pub"), "--sig", str(d / "raw.sig")]
    return {
        "enc.pub": ["encrypt", "--pub", str(d / "enc.pub"), "--in", str(d / "msg.bin"),
                    "--seed", "4", "--out", str(d / "ct2.txt")],
        "weyl.pub": ["encrypt", "--pub", str(d / "weyl.pub"), "--in", str(d / "msg.bin"),
                     "--seed", "4", "--out", str(d / "ct3.txt")],
        "ct.txt": ["decrypt", "--sec", str(d / "enc.sec"), "--in", str(d / "ct.txt"),
                   "--out", str(d / "plain.bin")],
        "signer.pub": verify,
        "raw.sig": verify,
        "weak.key": ["check-weak", "--key", str(d / "weak.key")],
    }


@pytest.mark.parametrize("name, key, replacement, named", [
    ("enc.pub", "P_Alice", None, "no P_Alice line"),
    ("enc.pub", "nu", "nu x", "nu line"),
    ("enc.pub", "nu", "nu 0", "at least 1"),
    ("enc.pub", "nu", "nu 99999999", "cell limit"),
    ("weyl.pub", "nu", "nu 99999999", "step limit"),
    # error messages quote only the start of a long nu
    ("enc.pub", "nu", "nu " + "1" * 100_000, "nu line"),
    ("enc.pub", "nu", "nu " + "9" * 4_000, "cell limit"),
    ("weyl.pub", "nu", "nu " + "9" * 4_000, "step limit"),
    ("enc.pub", "nu", "nu -" + "9" * 4_000, "at least 1"),
    ("ct.txt", "P_Bob", None, "no P_Bob line"),
    ("signer.pub", "L", None, "no L line"),
    ("raw.sig", "eps2", None, "no eps2 line"),
    ("weak.key", "key", None, "no key line"),
    ("ct.txt", "ring", "ring skew p=5 k=3 m=[3,3,0,1] sigma=[1,2]", "ring differs"),
    # one value, one text: Python's int() takes each of these, the file grammar none
    ("enc.pub", "nu", "nu +2", "nu line"),
    ("enc.pub", "nu", "nu 0_2", "nu line"),
    ("enc.pub", "nu", "nu \u0662", "nu line"),
    ("enc.pub", "seed", "seed +3", "seed line"),
    ("enc.pub", "seed", "seed 0_3", "seed line"),
    ("enc.pub", "seed", "seed \u0663", "seed line"),
    ("enc.pub", "ring", "ring skew p=+5 k=3 m=[3,3,0,1] sigma=[2,1]", "ring line"),
    ("enc.pub", "ring", "ring skew p=5 k=0_3 m=[3,3,0,1] sigma=[2,1]", "ring line"),
    ("enc.pub", "ring", "ring skew p=5 k=3 m=[3,3,0,\u0661] sigma=[2,1]", "ring line"),
], ids=["encrypt-key-without-P_Alice", "encrypt-key-nu-x", "encrypt-key-nu-0",
        "encrypt-key-nu-over-cell-limit", "weyl-encrypt-key-nu-over-step-limit",
        "encrypt-key-nu-of-100000-digits", "encrypt-key-nu-of-4000-digits",
        "weyl-encrypt-key-nu-of-4000-digits", "encrypt-key-nu-of-minus-4000-digits",
        "ciphertext-without-P_Bob",
        "sign-key-without-L", "signature-without-eps2", "weak-key-without-key",
        "ciphertext-in-another-ring", "encrypt-key-nu-plus-sign", "encrypt-key-nu-underscore",
        "encrypt-key-nu-arabic-indic-digit", "seed-plus-sign", "seed-underscore",
        "seed-arabic-indic-digit", "ring-p-plus-sign", "ring-k-underscore",
        "ring-modulus-arabic-indic-digit"])
def test_cli_file_missing_or_malformed_entry_exits_2(tmp_path, capsys, name, key,
                                                     replacement, named):
    commands = _valid_files(tmp_path)
    path = tmp_path / name
    lines = [replacement if ln.startswith(f"{key} ") else ln
             for ln in path.read_text().splitlines()]
    path.write_text("".join(f"{ln}\n" for ln in lines if ln is not None))
    capsys.readouterr()
    t0 = time.perf_counter()
    assert _run(*commands[name]) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and "Traceback" not in err
    assert len(err) < 300


def _hostile_key(tmp_path, edits):
    """The encryption key of ``keygen --seed 1 --dL 4 --dPQ 1 --nu 2``, whose P
    has tops (0, 1) and Q tops (1, 0), with lines replaced by ``edits``."""
    assert _run("keygen", "--seed", "1", "--scheme", "encrypt", "--dL", "4", "--dPQ", "1",
                "--nu", "2", "--out-prefix", str(tmp_path / "k")) == 0
    (tmp_path / "msg.bin").write_bytes(b"hostile files")
    lines = [edits.get(ln.split(" ")[0], ln)
             for ln in (tmp_path / "k.pub").read_text().splitlines()]
    (tmp_path / "h.pub").write_text("".join(f"{ln}\n" for ln in lines))
    return ["encrypt", "--pub", str(tmp_path / "h.pub"), "--in", str(tmp_path / "msg.bin"),
            "--seed", "4", "--out", str(tmp_path / "ct.txt")]


def _no_products(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a product was made")
    monkeypatch.setattr(orekex.backend, "_convolve", refuse)  # every skew product and corner


@pytest.mark.parametrize("edits, named", [
    # P^i spans i + 1 cells: nu = 100000 keeps about 5e9 cells of powers
    ({"nu": "nu 100000"}, "pool's powers over"),
    ({"nu": "nu 4194302"}, "pool's powers over"),
    # a constant P keeps one cell a power, but its powers count as a
    # nonconstant P's would: nu 4,000,000 would be as many products
    ({"nu": "nu 4000000", "P": "P [0,1,0]*d1^0*d2^0"}, "pool's powers over"),
    # the pools fit; P_B * L * Q_B spans (nu + 3) x (nu + 4) cells
    ({"nu": "nu 2800"}, "P_B * L * Q_B would span a 2803x2804 grid"),
], ids=["nu-100000", "nu-4194302", "constant-P-nu-4000000", "nu-2800"])
def test_encrypt_key_with_hostile_nu_exits_2_before_any_product(tmp_path, capsys, monkeypatch,
                                                                 edits, named):
    argv = _hostile_key(tmp_path, edits)
    _no_products(monkeypatch)
    capsys.readouterr()
    t0 = time.perf_counter()
    assert _run(*argv) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and "cell limit" in err
    assert "Traceback" not in err and len(err) < 300
    assert not (tmp_path / "ct.txt").exists()


def test_encrypt_key_with_nu_2_still_round_trips(tmp_path):
    argv = _hostile_key(tmp_path, {})
    assert _run(*argv) == 0
    assert _run("decrypt", "--sec", str(tmp_path / "k.sec"), "--in", str(tmp_path / "ct.txt"),
                "--out", str(tmp_path / "plain.bin")) == 0
    assert (tmp_path / "plain.bin").read_bytes() == b"hostile files"


def test_decrypt_of_an_oversized_p_bob_exits_2_before_any_product(tmp_path, capsys,
                                                                    monkeypatch):
    assert _run(*_hostile_key(tmp_path, {})) == 0
    ct = tmp_path / "ct.txt"
    # P_Bob spans 2048 x 2048 cells, the most one value may; with P_A and Q_A
    # the product spans 2050 x 2050
    lines = ["P_Bob [1,0,0]*d1^2047*d2^2047 + [1,0,0]*d1^0*d2^0" if ln.startswith("P_Bob ")
             else ln for ln in ct.read_text().splitlines()]
    ct.write_text("".join(f"{ln}\n" for ln in lines))
    _no_products(monkeypatch)
    capsys.readouterr()
    assert _run("decrypt", "--sec", str(tmp_path / "k.sec"), "--in", str(ct),
                "--out", str(tmp_path / "plain.bin")) == 2
    err = capsys.readouterr().err
    assert "P_A * P_Bob * Q_A would span" in err and "Traceback" not in err
    assert not (tmp_path / "plain.bin").exists()


def _check_weak_far_pair(n):
    # key * public starts with d1^N*d2^N * x1^N*x2^N: (N+1)^2 Leibniz steps.
    # The top parts' Poisson bracket at the all-ones point is 2 (N mod 71)^2
    return _run("check-weak", "--ring", "weyl2-f71",
                "--key-text", f"1*x1^0*x2^0*d1^{n}*d2^{n} + 1*x1^1*x2^0*d1^0*d2^0",
                "--public-text", f"1*x1^{n}*x2^{n}*d1^0*d2^0")


def test_cli_weyl_product_over_step_limit_exits_2(capsys):
    # N = 71 * 563: the bracket vanishes, so the full products are asked
    # for, and the first one, 1.6e9 steps, is refused
    t0 = time.perf_counter()
    code = _check_weak_far_pair(39973)
    assert code == 2 and time.perf_counter() - t0 < 1.0
    assert "Leibniz steps" in capsys.readouterr().err


def test_cli_weyl_bracket_settles_far_pair_without_products(capsys, monkeypatch):
    # N = 40000: the bracket is 2 * 27^2 = 38 (mod 71), so the pair does not
    # commute and no product is made
    calls = []
    monkeypatch.setattr(orepoly, "_weyl_mul", lambda *a: calls.append(a))
    t0 = time.perf_counter()
    code = _check_weak_far_pair(40000)
    assert code == 0 and time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().out == "accept\n" and not calls


X_ONLY = " + ".join(f"1*x1^{i}*x2^{j}*d1^0*d2^0" for i in range(40) for j in range(40))


@pytest.mark.parametrize("key, public, named", [
    # 1,600 x 1,600 pairs of x-only terms meet in no Leibniz sum, but each
    # pair is charged one step: 2.56M, over the limit before any pair array
    (X_ONLY, X_ONLY, "Leibniz steps"),
    # x1^(2^70): past the int64 exponents of the weyl kernel
    ("1*x1^1180591620717411303424*x2^0*d1^0*d2^0 + 1*x1^0*x2^0*d1^1*d2^0",
     "1*x1^0*x2^0*d1^1*d2^0", "too large"),
], ids=["x-only-pairs-over-step-limit", "exponent-past-int64"])
def test_cli_weyl_product_refused_exits_2(capsys, key, public, named):
    t0 = time.perf_counter()
    code = _run("check-weak", "--ring", "weyl2-f71", "--key-text", key, "--public-text", public)
    assert code == 2 and time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and "Traceback" not in err
    assert len(err) < 300
