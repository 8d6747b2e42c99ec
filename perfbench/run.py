#!/usr/bin/env python3
"""Benchmark of the orekex protocol flows, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload kex --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 0

Each workload runs as a closed loop with one client in its own process.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates each
op untraced and traced and prints the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--record`` rewrites the reference digests instead.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
WORKDIR = ROOT / ".perfbench_work"

WORKLOADS = ("kex", "three-pass", "cli-files", "weyl")
# every other seed draws its ops from the dev pool; this one from a pool of
# its own, so a claim can be checked on inputs it was not tuned on
HELD_OUT_SEED = 1407
POOL_SIZES = {"dev": 32, "held-out": 8}
STRATA = 4
SETUP_REPEATS = 5
MIN_OPS = 3
# counts are read from this many traced ops, so they repeat for a seed
EXACT_OPS = 2

SETUP_CHILD = """
import time
t0 = time.perf_counter()
import orekex
from orekex.fields import tables_for
from orekex.rings import ring_by_name
ring = ring_by_name({ring!r})
if ring.field is not None:
    tables_for(ring.field)
print(time.perf_counter() - t0)
"""


def load_library():
    """Import orekex from this checkout's src/, or exit 1."""
    if not (SRC / "orekex" / "__init__.py").is_file():
        sys.exit(f"perfbench: no orekex sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import orekex

    if Path(orekex.__file__).resolve().parent != (SRC / "orekex").resolve():
        sys.exit(f"perfbench: imported orekex from {orekex.__file__}, not from {SRC}")


# -- environment ---------------------------------------------------------------

def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def env_stamp() -> dict:
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "orekex").rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        src_hash.update(path.read_bytes())
    # only a repository rooted at this checkout describes it
    top = _git("rev-parse", "--show-toplevel")
    sha = _git("rev-parse", "HEAD") if top and Path(top).resolve() == ROOT else None
    status = _git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "src_sha256": src_hash.hexdigest(),
        "held_out_seed": HELD_OUT_SEED,
    }


def measure_setup(ring_name: str) -> list[float]:
    """Import, ring construction and field tables, each in a fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = SETUP_CHILD.format(ring=ring_name)
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


# -- ops -----------------------------------------------------------------------------

def pool_order(seed: int, op_s: dict) -> tuple[str, list[int]]:
    """The pool a seed draws from and the order it visits the entries in.

    Entries are ranked by their recorded op time and cut into STRATA bands;
    the order takes one entry from every band per round, bands and entries
    shuffled by the seed.  A run of a few slow ops then holds the same mix
    of light and heavy inputs whatever the seed, which keeps run-to-run
    spread down without giving every seed the same inputs.
    """
    import numpy as np

    pool = "held-out" if seed == HELD_OUT_SEED else "dev"
    size = POOL_SIZES[pool]
    rng = np.random.default_rng(seed)
    ranked = sorted(range(size), key=lambda i: op_s[pool][str(i)])
    bands = [rng.permutation(ranked[b * size // STRATA:(b + 1) * size // STRATA])
             for b in range(STRATA)]
    order = [int(bands[b][r]) for r in range(size // STRATA) for b in rng.permutation(STRATA)]
    return pool, order


class Runner:
    """Runs ops of one workload and checks them against the reference."""

    def __init__(self, workload: str, reference: dict | None):
        import ops

        self.ops = ops
        self.workload = workload
        self.op = ops.make_op(workload, str(WORKDIR))
        self.reference = reference or {}

    def once(self, pool: str, index: int, warm: bool = False, tracer=None):
        """One op: (seconds, digest, sizes, error or None).  The time and the
        tracer cover the op; the digest and the checks on the returned
        outputs come after."""
        prepared = self.op.prepare(self.ops.entry_rng(self.workload, pool, index))
        elapsed = 0.0
        try:
            if tracer is not None:
                tracer.reset()
                tracer.install()
            t0 = time.perf_counter()
            try:
                result = self.op.run(prepared, warm=warm)
            finally:
                elapsed = time.perf_counter() - t0
                if tracer is not None:
                    tracer.uninstall()
            digest, sizes = self.op.outputs(result)
        except Exception as exc:  # a failed op is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            return elapsed, None, None, f"{type(exc).__name__}: {exc}"
        if not warm:
            want = self.reference.get(pool, {}).get(str(index))
            if want != digest:
                return elapsed, digest, sizes, f"digest {digest[:12]} != reference {str(want)[:12]}"
        return elapsed, digest, sizes, None


def closed_loop(seconds: float, min_ops: int, step) -> None:
    """Call ``step(i)`` (which returns the seconds of op i) until the window
    is used: stop once the next op would end more than half an op past it."""
    start = time.perf_counter()
    durations = []
    while True:
        elapsed = time.perf_counter() - start
        if len(durations) >= min_ops and (
                elapsed + 0.5 * statistics.median(durations) > seconds):
            return
        durations.append(step(len(durations)))


# -- the two kinds of run ------------------------------------------------------------

def end_to_end(runner: Runner, order, pool, seconds) -> tuple[dict, dict]:
    times, failures = [], []

    def step(i):
        elapsed, _, _, error = runner.once(pool, order[i % len(order)])
        times.append(elapsed)
        if error:
            failures.append(error)
        return elapsed

    closed_loop(seconds, MIN_OPS, step)
    ok = len(times) - len(failures)
    metrics = {
        "ops_per_s": (ok / sum(times), "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
    }
    extra = {"failed_frac": len(failures) / len(times), "failures": failures,
             "op_s": times}
    # the 90th percentile needs at least ten samples beyond it
    if len(times) >= 100:
        extra["op_p90_s"] = statistics.quantiles(times, n=10)[-1]
        extra["op_p90_samples"] = len(times)
    return metrics, {"attempted": len(times), "failed": len(failures), **extra}


def traced(runner: Runner, order, pool, seconds) -> tuple[dict, dict]:
    import spans

    tracer = spans.Tracer()
    records, failures = [], []
    untraced_s = traced_s = 0.0

    def step(i):
        nonlocal untraced_s, traced_s
        index = order[i % len(order)]
        plain = runner.once(pool, index)
        seen = runner.once(pool, index, tracer=tracer)
        if plain[3]:
            failures.append(f"untraced: {plain[3]}")
        if seen[3] or plain[1:3] != seen[1:3]:
            failures.append(f"traced: {seen[3] or 'other outputs than the untraced op'}")
        untraced_s += plain[0]
        traced_s += seen[0]
        records.append({"op_s": seen[0], "calls": tracer.calls, "total_s": tracer.total_s,
                        "self_s": tracer.self_s, "counts": tracer.counts,
                        "within": tracer.within, "root_s": tracer.root_s})
        return plain[0] + seen[0]

    closed_loop(seconds, EXACT_OPS, step)
    metrics = layer_metrics(records, runner.op)
    metrics["trace.overhead_frac"] = (untraced_s / traced_s - 1, "ratio")
    return metrics, {"attempted": 2 * len(records), "failed": len(failures),
                     "failures": failures, "isolation": isolation(runner.workload, metrics)}


def layer_metrics(records: list[dict], op) -> dict:
    from orekex import costs

    exact = records[:EXACT_OPS]

    def mean(values):
        values = list(values)
        return sum(values) / len(values)

    def calls(name):
        return mean(r["calls"][name] for r in exact)

    def count(key):
        return mean(r["counts"][key] for r in exact)

    def total(name):
        return mean(r["total_s"][name] for r in records)

    def self_s(name):
        return mean(r["self_s"][name] for r in records)

    def within(span, key):
        return mean(r["within"][span][key] for r in exact)

    def ratio(num, den):
        return num / den if den else 0.0

    op_s = mean(r["op_s"] for r in records)
    m = {}
    for layer in ("backend.mul", "backend.rdiv", "backend.ldiv"):
        m[f"{layer}.calls"] = (calls(layer), "count/op")
        m[f"{layer}.s"] = (total(layer), "s/op")
        m[f"{layer}.coeff_ops"] = (count(f"{layer}.coeff_ops"), "count/op")
    m["backend.mul.out_terms"] = (count("backend.mul.out_terms"), "count/op")
    m["backend.mul.frac"] = (total("backend.mul") / op_s, "ratio")
    m["orepoly.mul.calls"] = (calls("orepoly.mul"), "count/op")
    m["orepoly.mul.self_s"] = (self_s("orepoly.mul"), "s/op")
    m["orepoly.weyl_mul.calls"] = (calls("orepoly.weyl_mul"), "count/op")
    m["orepoly.weyl_mul.s"] = (total("orepoly.weyl_mul"), "s/op")
    for layer in ("orepoly.add", "orepoly.eq"):
        m[f"{layer}.calls"] = (calls(layer), "count/op")
        m[f"{layer}.s"] = (total(layer), "s/op")
    m["orepoly.commutes.calls"] = (calls("orepoly.commutes"), "count/op")
    m["division.calls"] = (calls("division"), "count/op")
    m["division.s"] = (total("division"), "s/op")
    m["division.self_s"] = (self_s("division"), "s/op")
    m["division.frac"] = (total("division") / op_s, "ratio")
    m["commuting.evaluate.calls"] = (calls("commuting.evaluate"), "count/op")
    m["commuting.evaluate.s"] = (total("commuting.evaluate"), "s/op")
    kept = count("protocols.private_tuple.kept") + count("protocols.unchecked_tuple.kept")
    m["commuting.accept_ratio"] = (ratio(kept, calls("commuting.draw")), "ratio")
    m["weakkeys.screen.calls"] = (calls("weakkeys.screen"), "count/op")
    m["weakkeys.screen.s"] = (total("weakkeys.screen"), "s/op")
    m["weakkeys.accept_ratio"] = (
        ratio(count("weakkeys.screen.accepted"), calls("weakkeys.screen")), "ratio")
    for flow in ("generate", "kex_message", "kex_finalize", "three_pass_exchange",
                 "encrypt", "decrypt", "sign", "verify_signature", "run_zkp"):
        m[f"protocols.{flow}.self_s"] = (self_s(f"protocols.{flow}"), "s/op")
    for layer in ("encoding.encode", "encoding.decode"):
        m[f"{layer}.s"] = (total(layer), "s/op")
        m[f"{layer}.bytes"] = (count(f"{layer}.bytes"), "B/op")
    for layer in ("serial.parse", "serial.render"):
        m[f"{layer}.calls"] = (calls(layer), "count/op")
        m[f"{layer}.s"] = (total(layer), "s/op")
        m[f"{layer}.bytes"] = (count(f"{layer}.bytes"), "B/op")
    for sub in ("keygen", "encrypt", "decrypt", "sign", "verify", "zkp"):
        m[f"cli.{sub}.self_s"] = (self_s(f"cli.{sub}"), "s/op")
    # measured products per party against the paper's d^4/8-per-product model:
    # two pool evaluations, one message and one shared secret
    per_party = 0.0
    steps = ("commuting.evaluate", 2), ("protocols.kex_message", 1), ("protocols.kex_finalize", 1)
    if all(calls(span) for span, _ in steps):
        for span, times in steps:
            per_party += times * within(span, "backend.mul.coeff_ops") / calls(span)
        t = costs.SecurityTuple(*op.sizes)
        model = (costs.secret_param_steps(t) + costs.initial_message_steps(t)
                 + costs.shared_secret_steps(t))
        m["costs.model_ratio"] = (per_party / model, "ratio")
    else:
        m["costs.model_ratio"] = (0.0, "ratio")
    m["trace.op_s"] = (op_s, "s/op")
    m["trace.unattributed_frac"] = (1 - mean(r["root_s"] for r in records) / op_s, "ratio")
    return m


def _no_serial(m):
    return m["serial.parse.calls"] + m["serial.render.calls"] == 0


# the layer shares each workload was chosen for; reported, not gated
ISOLATION = {
    "kex": [("backend.mul.frac >= 0.85", lambda m: m["backend.mul.frac"] >= 0.85),
            ("serial calls == 0", _no_serial)],
    "three-pass": [("division.frac >= 0.35", lambda m: m["division.frac"] >= 0.35),
                   ("serial calls == 0", _no_serial)],
    "weyl": [("backend calls == 0", lambda m: m["backend.mul.calls"] + m["backend.rdiv.calls"]
              + m["backend.ldiv.calls"] == 0),
             ("serial calls == 0", _no_serial)],
}


def isolation(workload: str, metrics: dict) -> dict:
    values = {name: value for name, (value, _) in metrics.items()}
    return {claim: bool(test(values)) for claim, test in ISOLATION.get(workload, [])}


# -- entry points ----------------------------------------------------------------------

def run_workload(args) -> int:
    t_import = time.perf_counter()
    load_library()
    import ops

    reference = json.loads(REFERENCE.read_text())
    ring_name = ops.WORKLOADS[args.workload].ring_name
    import_s = time.perf_counter() - t_import
    WORKDIR.mkdir(exist_ok=True)
    pool, order = pool_order(args.seed, reference["op_s"][args.workload])
    runner = Runner(args.workload, reference["digests"][args.workload])
    if args.trace:
        import spans
        from orekex.fields import tables_for

        # build the field tables under the tracer: fields.tables_s
        tracer = spans.Tracer()
        tracer.install()
        try:
            if runner.op.ring.field is not None:
                tables_for(runner.op.ring.field)
        finally:
            tracer.uninstall()
        tables_s = tracer.total_s["fields.tables"]
    warm = runner.once(pool, order[0], warm=True)
    if warm[3]:
        print(f"perfbench: warm-up op failed: {warm[3]}", file=sys.stderr)
    if args.trace:
        metrics, info = traced(runner, order, pool, args.seconds)
        metrics["fields.tables_s"] = (tables_s, "s")
    else:
        setup = measure_setup(ring_name)
        metrics, info = end_to_end(runner, order, pool, args.seconds)
        metrics["setup_s"] = (statistics.median(setup), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        info["setup_samples_s"] = setup
        info["in_process_import_s"] = import_s
    info["failed"] += bool(warm[3])
    correct = info["failed"] == 0
    report = {"workload": args.workload, "seed": args.seed, "pool": pool,
              "seconds": args.seconds, "trace": args.trace, "env": env_stamp(),
              "correct": correct, **info}
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{args.workload:<11} {name:<34} {value:>14.6g} {unit}")
    for key in ("failed_frac", "op_p90_s", "op_p90_samples"):
        if key in info:
            print(f"{args.workload:<11} {key:<34} {info[key]:>14.6g}")
    for claim, met in info.get("isolation", {}).items():
        print(f"{args.workload:<11} isolation {claim}: {'met' if met else 'NOT MET'}")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"perfbench: workload {workload} exited {out.returncode}", file=sys.stderr)
            return out.returncode or 1
        print("\n".join(line for line in lines[:-1] if not line.startswith('{"report"')))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(merged))
    return 0


def record(args) -> int:
    """Run every pool entry once; store its digest as the reference and its
    time as the cost the pool order is banded by."""
    load_library()
    WORKDIR.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in names:
        runner = Runner(workload, None)
        digests, times = {}, {}
        for pool, size in POOL_SIZES.items():
            digests[pool], times[pool] = {}, {}
            for index in range(size):
                elapsed, digest, _, error = runner.once(pool, index)
                if digest is None:
                    print(f"perfbench: {workload} {pool}/{index} failed: {error}",
                          file=sys.stderr)
                    return 1
                digests[pool][str(index)] = digest
                times[pool][str(index)] = round(elapsed, 3)
                print(f"{workload} {pool}/{index} {elapsed:.2f}s {digest}", file=sys.stderr)
        reference = (json.loads(REFERENCE.read_text()) if REFERENCE.exists()
                     else {"digests": {}, "op_s": {}})
        reference["digests"][workload] = digests
        reference["op_s"][workload] = times
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite reference.json from every pool entry")
    args = parser.parse_args(argv)
    if args.record:
        return record(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
