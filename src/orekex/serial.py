"""Human-readable text serialization.

Every output file starts with the same header block::

    # ore-kex v1
    ring skew p=5 k=3 m=[3,3,0,1] sigma=[2,1]
    seed 7
    rng numpy-pcg64

followed by ``key value`` lines.  Polynomials print as grevlex-descending
terms joined by `` + ``; skew coefficients as ``[a0,a1,a2]`` vectors,
weyl coefficients as scalars.  Transcript messages are ``msg <sender>
<label> <polynomial>`` lines.  The format round-trips exactly and equal
seeds produce byte-identical files.
"""

from __future__ import annotations

import re

from .commuting import ConstantPolynomial
from .errors import ParseError
from .fields import MAX_CHARACTERISTIC, MAX_FIELD_ORDER, FieldSpec
from .orepoly import OrePolynomial
from .rings import OreRing, skew_ring, weyl_ring

MAGIC = "# ore-kex v1"
RNG_NAME = "numpy-pcg64"


def _parse_int_list(text: str) -> list[int]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(f"expected [..] list, got {text!r}")
    body = text[1:-1].strip()
    if not body:
        return []
    try:
        return [int(x) for x in body.split(",")]
    except ValueError as exc:
        raise ParseError(f"bad integer list {text!r}") from exc


def ring_from_text(line: str) -> OreRing:
    parts = line.split()
    if len(parts) < 2 or parts[0] != "ring":
        raise ParseError(f"not a ring line: {line!r}")
    kv = {}
    for part in parts[2:]:
        if "=" not in part:
            raise ParseError(f"bad ring attribute {part!r}")
        key, val = part.split("=", 1)
        kv[key] = val
    try:
        if parts[1] == "skew":
            p, k = int(kv["p"]), int(kv["k"])
            _check_bounds(p, k)
            spec = FieldSpec(p, k, tuple(_parse_int_list(kv["m"])))
            return skew_ring(spec, tuple(_parse_int_list(kv["sigma"])))
        if parts[1] == "weyl":
            p = int(kv["p"])
            _check_bounds(p)
            return weyl_ring(p, int(kv["n"]))
    except KeyError as exc:
        raise ParseError(f"ring line misses attribute {exc}") from exc
    except ValueError as exc:
        raise ParseError(f"bad integer in ring line {line!r}") from exc
    raise ParseError(f"unknown ring kind {parts[1]!r}")


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


_SKEW_TERM = re.compile(r"^(\[[0-9, ]*\])\*(.+)$")


def poly_to_text(poly: OrePolynomial) -> str:
    return poly.to_text()


def poly_from_text(ring: OreRing, text: str) -> OrePolynomial:
    text = text.strip()
    if text == "0":
        return ring.zero()
    terms = {}
    for chunk in text.split(" + "):
        chunk = chunk.strip()
        if ring.is_skew:
            m = _SKEW_TERM.match(chunk)
            if not m:
                raise ParseError(f"bad skew term {chunk!r}")
            coeff = ring.field.element(_parse_int_list(m.group(1))).index
            mono = m.group(2)
        else:
            if "*" not in chunk:
                raise ParseError(f"bad term {chunk!r}")
            head, mono = chunk.split("*", 1)
            try:
                coeff = int(head)
            except ValueError as exc:
                raise ParseError(f"bad coefficient {head!r}") from exc
        exps = _parse_monomial(ring, mono)
        if exps in terms:
            raise ParseError(f"duplicate monomial in {text!r}")
        terms[exps] = coeff
    return OrePolynomial(ring, terms)


def _parse_monomial(ring: OreRing, mono: str) -> tuple[int, ...]:
    factors = mono.split("*")
    if len(factors) != ring.exp_len:
        raise ParseError(f"monomial {mono!r} has wrong variable count")
    exps = [0] * ring.exp_len
    for slot, factor in enumerate(factors):
        m = re.match(r"^([xd])(\d+)\^(\d+)$", factor)
        if not m:
            raise ParseError(f"bad monomial factor {factor!r}")
        kind, idx, e = m.group(1), int(m.group(2)), int(m.group(3))
        if ring.is_skew:
            expected_kind, expected_slot = "d", idx - 1
        elif slot < ring.n:
            expected_kind, expected_slot = "x", idx - 1
        else:
            expected_kind, expected_slot = "d", ring.n + idx - 1
        if kind != expected_kind or expected_slot != slot or not 1 <= idx <= ring.n:
            raise ParseError(f"variable {factor!r} out of order in {mono!r}")
        exps[slot] = e
    return tuple(exps)


def constant_poly_from_text(p: int, text: str) -> ConstantPolynomial:
    return ConstantPolynomial(p, tuple(_parse_int_list(text)))


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
            try:
                seed = None if rest.strip() == "withheld" else int(rest.strip())
            except ValueError as exc:
                raise ParseError(f"bad seed line {ln!r}") from exc
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
            raise ParseError(f"duplicate key {key!r}")
        out[key] = rest
    return out
