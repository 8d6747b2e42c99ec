"""Human-readable text serialization.

Every output file starts with the same header block::

    # ore-kex v1
    ring skew p=5 k=3 m=[3,3,0,1] sigma=[2,1]
    seed 7
    rng numpy-pcg64

followed by ``key value`` lines.  Transcript messages are ``msg <sender>
<label> <polynomial>`` lines.  The format round-trips exactly and equal
seeds produce byte-identical files.

A polynomial is ``0`` or terms joined by `` + ``::

    poly  := "0" | term (" + " term)*
    term  := the ring's OreRing.term_format(), each "{}" an ASCII decimal
             integer without leading zeros: 0|[1-9][0-9]*

so ``[a0,a1,a2]*d1^e1*d2^e2`` in f125-skew2 (base-p digits of the
coefficient, lowest first) and ``c*x1^e1*x2^e2*d1^f1*d2^f2`` in a weyl2
ring.  Output terms are grevlex-descending; input terms come in any
order.  A digit or weyl coefficient must be below p and a monomial may
not repeat; a zero coefficient drops its term.
"""

from __future__ import annotations

import re
from operator import mul

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
        raise ParseError(f"expected [..] list, got {_quote(text)}")
    body = text[1:-1].strip()
    if not body:
        return []
    try:
        return [int(x) for x in body.split(",")]
    except ValueError as exc:
        raise ParseError(f"bad integer list {_quote(text)}") from exc


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
        raise ParseError(f"bad integer in ring line {_quote(line)}") from exc
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


def poly_from_text(ring: OreRing, text: str) -> OrePolynomial:
    """The polynomial of a line in the grammar of the module docstring;
    ParseError for any other line."""
    text = text.strip()
    if text == "0":
        return ring.zero()
    term = re.compile(re.escape(ring.term_format()).replace(r"\{\}", "(0|[1-9][0-9]*)"))
    n, p = ring.exp_len, ring.p
    weights = [p ** j for j in range(term.groups - n)]
    terms = {}
    for chunk in text.split(" + "):
        m = term.fullmatch(chunk)
        if m is None:
            raise ParseError(f"bad term {_quote(chunk)}")
        try:
            fields = list(map(int, m.groups()))
        except ValueError:  # past the interpreter's limit on digits per int
            raise ParseError(f"integer too long in term {_quote(chunk)}") from None
        digits, exps = fields[:-n], tuple(fields[-n:])
        if max(digits) >= p:
            raise ParseError(f"coefficient digit not below p={p} in {_quote(chunk)}")
        if exps in terms:
            raise ParseError(f"duplicate monomial {_quote(chunk)}")
        terms[exps] = sum(map(mul, digits, weights))
    return OrePolynomial._raw(ring, {e: c for e, c in terms.items() if c})


def _quote(text: str) -> str:
    """The start of a bad input for an error message: a line may run to
    megabytes, and repr spends at most 10 characters on one of its own."""
    return repr(text[:24]) + ("..." if len(text) > 24 else "")


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
                raise ParseError(f"bad seed line {_quote(ln)}") from exc
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
