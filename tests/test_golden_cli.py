"""Golden CLI digests: every subcommand at small seeded sizes, run in process.

Each step records its exit code, its stdout and the sha256 of every file it
writes; `golden_cli.json` holds the recorded values, so any change to an
output byte, a verdict or an exit code fails the test.  Rewrite the JSON only
for a change that means to alter outputs:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from orekex import ring_by_name
from orekex.cli import main
from orekex.serial import render_file

GOLDEN = Path(__file__).with_name("golden_cli.json")

SMALL = ["--dL", "6", "--dPQ", "2", "--nu", "2"]
WEYL_KEY = "1*x1^0*x2^0*d1^1*d2^0 + 1*x1^0*x2^0*d1^2*d2^0"
WEYL_PUBLIC = "1*x1^0*x2^0*d1^1*d2^0"
WEYL_GRADED_FREE = "1*x1^1*x2^0*d1^0*d2^0 + 3*x1^0*x2^0*d1^1*d2^0"

# (step name, argv with {d} for the work directory, files the step writes)
STEPS = [
    ("keygen-kex", ["keygen", "--scheme", "kex", *SMALL, "--seed", "1",
                    "--out-prefix", "{d}/kex"], ["kex.params"]),
    ("keygen-encrypt", ["keygen", "--scheme", "encrypt", *SMALL, "--seed", "3",
                        "--out-prefix", "{d}/enc"], ["enc.params", "enc.pub", "enc.sec"]),
    ("encrypt", ["encrypt", "--pub", "{d}/enc.pub", "--in", "{d}/msg.bin", "--seed", "4",
                 "--out", "{d}/ct.txt"], ["ct.txt"]),
    ("decrypt", ["decrypt", "--sec", "{d}/enc.sec", "--in", "{d}/ct.txt",
                 "--out", "{d}/plain.bin"], ["plain.bin"]),
    ("keygen-sign", ["keygen", "--scheme", "sign", "--dL", "5", "--da", "2", "--seed", "5",
                     "--out-prefix", "{d}/signer"], ["signer.pub", "signer.sec"]),
    ("sign", ["sign", "--sec", "{d}/signer.sec", "--in", "{d}/msg.bin", "--seed", "6",
              "--out", "{d}/raw.sig"], ["raw.sig"]),
    ("verify", ["verify", "--pub", "{d}/signer.pub", "--sig", "{d}/raw.sig"], []),
    ("sign-hash", ["sign", "--sec", "{d}/signer.sec", "--in", "{d}/msg.bin", "--seed", "6",
                   "--hash", "--out", "{d}/hashed.sig"], ["hashed.sig"]),
    ("verify-hash", ["verify", "--pub", "{d}/signer.pub", "--sig", "{d}/hashed.sig"], []),
    ("exchange-skew", ["exchange", "--ring", "f125-skew2", "--dL", "8", "--dPQ", "2",
                       "--nu", "2", "--seed", "7", "--out", "{d}/kex.txt",
                       "--key-out", "{d}/kex.answer"], ["kex.txt", "kex.answer"]),
    ("exchange-weyl", ["exchange", "--ring", "weyl2-f71", "--dL", "4", "--dPQ", "2",
                       "--nu", "1", "--seed", "8", "--out", "{d}/weyl.txt",
                       "--key-out", "{d}/weyl.answer"], ["weyl.txt", "weyl.answer"]),
    ("three-pass", ["three-pass", *SMALL, "--seed", "9", "--out", "{d}/tp.txt",
                    "--answer-out", "{d}/tp.answer"], ["tp.txt", "tp.answer"]),
    ("three-pass-weyl", ["three-pass", "--ring", "weyl2-f71", *SMALL, "--seed", "3",
                         "--out", "{d}/tpw.txt", "--answer-out", "{d}/tpw.answer"],
     ["tpw.txt", "tpw.answer"]),
    ("zkp", ["zkp", "--seed", "11", "--rounds", "12", "--dl1", "2", "--dl2", "2",
             "--blind-degree", "3", "--out", "{d}/zkp.txt"], ["zkp.txt"]),
    ("check-weak-text", ["check-weak", "--ring", "weyl2-f71", "--key-text",
                         WEYL_GRADED_FREE], []),
    ("check-weak-files", ["check-weak", "--key", "{d}/weak.key",
                          "--public", "{d}/weak.public"], []),
    ("estimate-table", ["estimate", "--table"], []),
    ("challenge-exchange", ["challenge", "--protocol", "exchange", *SMALL, "--seed", "12",
                            "--out-prefix", "{d}/chal-kex"],
     ["chal-kex.public", "chal-kex.answer"]),
    ("challenge-three-pass", ["challenge", "--protocol", "three-pass", *SMALL,
                              "--seed", "13", "--out-prefix", "{d}/chal-tp"],
     ["chal-tp.public", "chal-tp.answer"]),
]


def _write_inputs(work: Path):
    (work / "msg.bin").write_bytes(b"golden transcripts pin every output byte")
    weyl = ring_by_name("weyl2-f71")
    (work / "weak.key").write_text(render_file(weyl, None, [f"key {WEYL_KEY}"]))
    (work / "weak.public").write_text(render_file(weyl, None, [f"key {WEYL_PUBLIC}"]))


def run_steps(work: Path, read_stdout) -> dict:
    """Runs every step in order in `work`; returns {step: record}.

    `read_stdout()` returns what was printed since its last call."""
    _write_inputs(work)
    records = {}
    for name, argv, outputs in STEPS:
        code = main([arg.format(d=work) for arg in argv])
        records[name] = {
            "exit": code,
            "stdout": read_stdout(),
            "files": {out: hashlib.sha256((work / out).read_bytes()).hexdigest()
                      for out in outputs},
        }
    return records


def test_cli_outputs_match_golden_digests(tmp_path, capsys):
    expected = json.loads(GOLDEN.read_text())
    assert run_steps(tmp_path, lambda: capsys.readouterr().out) == expected


if __name__ == "__main__":
    buf = io.StringIO()

    def read_stdout():
        out = buf.getvalue()
        buf.seek(0)
        buf.truncate()
        return out

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(buf):
        records = run_steps(Path(tmp), read_stdout)
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(records)} steps)")
