"""Human-readable text serialization.

Every output file starts with the same header block::

    # ore-kex v1
    ring skew p=5 k=3 m=[3,3,0,1] sigma=[2,1]
    seed 7
    rng numpy-pcg64

followed by ``key value`` lines.  Transcript messages are ``msg <sender>
<label> <polynomial>`` lines.  The format round-trips exactly and equal
seeds produce byte-identical files.  Every integer of a file is an
``INT``, so each value has one text.

A polynomial is ``0`` or terms joined by `` + ``::

    poly  := "0" | term (" + " term)*
    term  := the ring's OreRing.term_format(), each "{}" an INT
    INT   := 0|[1-9][0-9]*  (ASCII digits, no sign, no leading zero)

so ``[a0,a1,a2]*d1^e1*d2^e2`` in f125-skew2 (base-p digits of the
coefficient, lowest first) and ``c*x1^e1*x2^e2*d1^f1*d2^f2`` in a weyl2
ring.  Output terms are grevlex-descending; input terms come in any
order.  A digit or weyl coefficient must be below p, an exponent below
2^63, and a monomial may not repeat; a zero coefficient drops its term.
A skew value whose exponent box is over ``backend.MAX_GRID_CELLS`` is
refused where it is parsed.

A line is checked and decoded in slabs of at most ``SLAB`` characters,
cut at `` + ``: one pattern match per slab, its integer fields read by
numpy from its bytes, then one check for repeats and one scatter for the
whole line.
"""

from __future__ import annotations

import re
from functools import lru_cache

import numpy as np

from . import backend
from .commuting import ConstantPolynomial
from .errors import ParseError
from .fields import MAX_CHARACTERISTIC, MAX_FIELD_ORDER, FieldSpec, tables_for
from .orepoly import OrePolynomial
from .rings import OreRing, skew_ring, weyl_ring

MAGIC = "# ore-kex v1"
RNG_NAME = "numpy-pcg64"


INT = "(0|[1-9][0-9]*)"


def parse_int(text: str, where: str) -> int:
    """The integer ``text`` in the grammar ``INT``; ParseError naming ``where``
    for any other text, or one past the interpreter's limit on digits."""
    if re.fullmatch(INT, text) is None:
        raise ParseError(f"bad integer {_quote(text)} {where}")
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"integer too long {where}") from None


def _parse_int_list(text: str, where: str) -> list[int]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(f"expected [..] list, got {_quote(text)}")
    body = text[1:-1]
    return [parse_int(x, where) for x in body.split(",")] if body else []


def ring_from_text(line: str) -> OreRing:
    parts = line.split()
    if len(parts) < 2 or parts[0] != "ring":
        raise ParseError(f"not a ring line: {_quote(line)}")
    kv = {}
    for part in parts[2:]:
        if "=" not in part:
            raise ParseError(f"bad ring attribute {_quote(part)}")
        key, val = part.split("=", 1)
        kv[key] = val
    where = "in the ring line"
    try:
        if parts[1] == "skew":
            p, k = parse_int(kv["p"], where), parse_int(kv["k"], where)
            _check_bounds(p, k)
            spec = FieldSpec(p, k, tuple(_parse_int_list(kv["m"], where)))
            return skew_ring(spec, tuple(_parse_int_list(kv["sigma"], where)))
        if parts[1] == "weyl":
            p = parse_int(kv["p"], where)
            _check_bounds(p)
            return weyl_ring(p, parse_int(kv["n"], where))
    except KeyError as exc:
        raise ParseError(f"ring line misses attribute {exc}") from exc
    raise ParseError(f"unknown ring kind {_quote(parts[1])}")


def _check_bounds(p: int, k: int | None = None) -> None:
    """ParseError when p, or a skew ring's field order p^k, is over its limit:
    checked before any primality, irreducibility or table work."""
    if p > MAX_CHARACTERISTIC:
        raise ParseError(f"characteristic {p} is over the limit {MAX_CHARACTERISTIC}")
    # p >= 2 in a field, so a k past the limit's bit length is over it too
    if k is not None and k >= 1 and (k > MAX_FIELD_ORDER.bit_length()
                                     or p ** k > MAX_FIELD_ORDER):
        raise ParseError(f"a field of order {p}^{k} is over the {MAX_FIELD_ORDER}-element "
                         f"limit of the lookup tables")


def poly_to_text(poly: OrePolynomial) -> str:
    return poly.to_text()


# Characters of a line one pattern match and decode take at a time: the
# match keeps about 35 bytes of backtracking state per character.
SLAB = 1 << 14


@lru_cache(maxsize=32)
def _grammar(template: str):
    """The patterns of one term and of a slab of terms, the positions of the
    fields among a term's digit runs (``d1`` has one of its own), and the
    number of those runs."""
    term = re.escape(template).replace(r"\{\}", INT.replace("(", "(?:", 1))
    own = [len(re.findall("[0-9]+", piece)) for piece in template.split("{}")]
    return (re.compile(term), re.compile(f"{term}(?: \\+ {term})*"),
            np.cumsum(own[:-1]) + np.arange(len(own) - 1), sum(own) + len(own) - 1)


def _slabs(text: str):
    """Whole terms of ``text``, SLAB characters at most unless a term is longer."""
    start = 0
    while len(text) - start > SLAB:
        cut = text.rfind(" + ", start, start + SLAB)
        if cut < 0 and (cut := text.find(" + ", start)) < 0:
            break
        yield text[start:cut]
        start = cut + 3
    yield text[start:]


def _digit_runs(slab: str) -> np.ndarray:
    """Every run of digits in an ASCII slab as uint64, by Horner's rule: one
    array operation across all runs per digit position."""
    b = np.frombuffer(slab.encode("ascii"), np.uint8) - np.uint8(48)
    start, stop = np.flatnonzero(np.diff(b < 10, prepend=False, append=False)).reshape(-1, 2).T
    width = stop - start
    if width.max() > 19:  # 19 digits stay below 2^64
        raise ParseError(f"integer too large in {_quote(slab)}")
    val = np.zeros(len(start), np.uint64)
    for j in range(width.max()):
        val = np.where(width > j, val * np.uint64(10) + b[np.minimum(start + j, stop - 1)], val)
    return val


def poly_from_text(ring: OreRing, text: str) -> OrePolynomial:
    """The polynomial of a line in the grammar of the module docstring;
    ParseError for any other line, OreKexError for a skew value whose box is
    over the cell limit."""
    text = text.strip()
    if text == "0":
        return ring.zero()
    template = ring.term_format()
    term, terms, fields, runs = _grammar(template)
    parts = []
    for slab in _slabs(text):
        if terms.fullmatch(slab) is None:
            bad = next((t for t in slab.split(" + ") if term.fullmatch(t) is None), slab)
            raise ParseError(f"bad term {_quote(bad)}")
        parts.append(_digit_runs(slab).reshape(-1, runs)[:, fields])
    values = np.concatenate(parts)  # a row of fields per term
    n, p = ring.exp_len, ring.p
    coeffs, exps = values[:, :-n], values[:, -n:]
    order = np.lexsort(exps.T)
    same = np.zeros(len(values), bool)
    same[order[1:]] = (exps[order[1:]] == exps[order[:-1]]).all(1)
    for bad, what in (((coeffs >= p).any(1), f"coefficient digit not below p={p}"),
                      (exps.max(1) >= np.uint64(1 << 63), "exponent too large (past 2^63 - 1)"),
                      (same, "duplicate monomial")):
        if bad.any():  # a term's text from its fields: an integer has one text
            shown = _quote(template.format(*values[bad.argmax()].tolist()))
            raise ParseError(f"{what} in {shown}")
    coeffs = coeffs.astype(np.int64) @ p ** np.arange(coeffs.shape[1], dtype=np.int64)
    exps = exps[coeffs != 0].astype(np.int64).T
    coeffs = coeffs[coeffs != 0]
    if ring.is_weyl:
        return OrePolynomial._of(ring, dict(zip(zip(*exps.tolist()), coeffs.tolist())))
    if not len(coeffs):
        return ring.zero()
    lo, grid = backend.coo_to_grid(exps, coeffs.astype(tables_for(ring.field).dtype))
    return OrePolynomial._of(ring, grid=grid, lo=lo)


def _quote(text: str) -> str:
    """The start of a bad input for an error message: a line may run to
    megabytes, and repr spends at most 10 characters on one of its own."""
    return repr(text[:24]) + ("..." if len(text) > 24 else "")


def constant_poly_from_text(p: int, text: str) -> ConstantPolynomial:
    return ConstantPolynomial(p, tuple(_parse_int_list(text, "in a constant polynomial")))


# -- whole files -----------------------------------------------------------------

def render_file(ring: OreRing, seed, lines: list[str]) -> str:
    seed_text = "withheld" if seed is None else str(seed)
    head = [MAGIC, ring.to_text(), f"seed {seed_text}", f"rng {RNG_NAME}"]
    return "\n".join(head + lines) + "\n"


def parse_file(text: str) -> tuple[OreRing, int | None, list[tuple[str, str]]]:
    """Returns (ring, seed-or-None, [(key, rest-of-line), ...])."""
    lines = [ln.rstrip("\n") for ln in text.splitlines()]
    if not lines or lines[0] != MAGIC:
        raise ParseError("missing or wrong magic header line")
    ring = None
    seed: int | None = None
    entries: list[tuple[str, str]] = []
    for ln in lines[1:]:
        if not ln.strip() or ln.startswith("#"):
            continue
        key, _, rest = ln.partition(" ")
        if key == "ring":
            ring = ring_from_text(ln)
        elif key == "seed":
            rest = rest.strip()
            seed = None if rest == "withheld" else parse_int(rest, "on the seed line")
        elif key == "rng":
            continue
        else:
            entries.append((key, rest.strip()))
    if ring is None:
        raise ParseError("file has no ring line")
    return ring, seed, entries


def entries_dict(entries: list[tuple[str, str]]) -> dict[str, str]:
    out = {}
    for key, rest in entries:
        if key in out:
            raise ParseError(f"duplicate key {_quote(key)}")
        out[key] = rest
    return out
