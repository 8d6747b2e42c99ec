"""Spans around the library's public functions, installed from outside.

``Tracer.install`` replaces each traced function at every name a caller
resolves: the module attribute in every ``orekex`` module that holds the
same function object (``division.left_cofactor`` and
``protocols.left_cofactor`` alike), and the class attribute for methods.
``uninstall`` puts the originals back, so untraced code runs unchanged.

Per span name the tracer keeps calls, total time (outermost calls only, so
nested calls of one name are not counted twice) and self time (duration
minus the time of the spans directly inside it).  Count hooks add exact
work counts at the same boundaries; every count a ``backend.mul`` call
adds is also booked to each span name enclosing it, so work can be
attributed to the protocol step that caused it.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

from orekex import cli, commuting, fields, orepoly, protocols


def _mul_counts(args, result):
    _ring, f, g = args[:3]
    return {"coeff_ops": len(f) * len(g), "out_terms": len(result)}


def _div_counts(args, result):
    # schoolbook work of exact division: |cofactor| * |known factor|
    return {"coeff_ops": len(result) * len(args[2])}


def _screen_counts(args, result):
    return {"accepted": int(result.accepted)}


def _tuple_counts(args, result):
    return {"kept": 2}


def _bytes_in(args, result):
    return {"bytes": len(args[1])}


def _bytes_out(args, result):
    return {"bytes": len(result)}


# (module, function name, span name, count hook)
MODULE_FUNCTIONS = [
    ("orekex.backend", "skew2_mul", "backend.mul", _mul_counts),
    ("orekex.backend", "skew2_right_cofactor", "backend.rdiv", _div_counts),
    ("orekex.backend", "skew2_left_cofactor", "backend.ldiv", _div_counts),
    ("orekex.orepoly", "_weyl_mul", "orepoly.weyl_mul", None),
    ("orekex.division", "right_cofactor", "division", None),
    ("orekex.division", "left_cofactor", "division", None),
    ("orekex.commuting", "random_constant_polynomial", "commuting.draw", None),
    ("orekex.weakkeys", "screen_private_key", "weakkeys.screen", _screen_counts),
    ("orekex.protocols", "_unchecked_tuple", "protocols.unchecked_tuple", _tuple_counts),
    ("orekex.encoding", "encode_bytes", "encoding.encode", _bytes_in),
    ("orekex.encoding", "decode_bytes", "encoding.decode", _bytes_out),
    ("orekex.serial", "poly_from_text", "serial.parse", _bytes_in),
] + [
    ("orekex.protocols", flow, f"protocols.{flow}", None)
    for flow in ("kex_message", "kex_finalize", "three_pass_exchange", "encrypt",
                 "decrypt", "sign", "verify_signature", "run_zkp")
] + [
    ("orekex.cli", name, "cli." + name[len("cmd_"):], None)
    for name in sorted(vars(cli)) if name.startswith("cmd_")
]

# (class, method name, span name, count hook)
METHODS = [
    (orepoly.OrePolynomial, "__mul__", "orepoly.mul", None),
    (orepoly.OrePolynomial, "__add__", "orepoly.add", None),
    (orepoly.OrePolynomial, "__eq__", "orepoly.eq", None),
    (orepoly.OrePolynomial, "commutes_with", "orepoly.commutes", None),
    (orepoly.OrePolynomial, "to_text", "serial.render", _bytes_out),
    (commuting.ConstantPolynomial, "evaluate_at", "commuting.evaluate", None),
    (fields.FieldTables, "__init__", "fields.tables", None),
]

# (class, classmethod name, span name, count hook)
CLASSMETHODS = [
    (protocols.PublicParameters, "generate", "protocols.generate", None),
    (protocols.PrivateTuple, "generate", "protocols.private_tuple", _tuple_counts),
]


class Tracer:
    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        # the wrappers hold these two objects, so reset clears them in place
        self._stack: list[list] = []  # [span name, time of direct children]
        self._depth: Counter = Counter()
        self.reset()

    def reset(self):
        """Forget everything recorded so far."""
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.within: defaultdict = defaultdict(Counter)  # span -> counts booked inside it
        self.root_s = 0.0  # time inside outermost spans, i.e. the sum of all self times
        self._stack.clear()
        self._depth.clear()

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, name, hook):
        stack, depth, perf = self._stack, self._depth, time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            outer = depth[name] == 0
            depth[name] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                depth[name] -= 1
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
                if outer:
                    self.total_s[name] += dur
                if stack:
                    stack[-1][1] += dur
                else:
                    self.root_s += dur
            if hook is not None:
                for key, value in hook(args, result).items():
                    self.counts[f"{name}.{key}"] += value
                    for span in {f[0] for f in stack}:
                        self.within[span][f"{name}.{key}"] += value
            return result

        return traced

    def install(self):
        if self._patches:
            return
        modules = [m for n, m in sys.modules.items()
                   if (n == "orekex" or n.startswith("orekex.")) and m is not None]
        for mod_name, attr, name, hook in MODULE_FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            traced = self._wrap(original, name, hook)
            for mod in modules:
                if vars(mod).get(attr) is original:
                    self._patch(mod, attr, traced)
        for cls, attr, name, hook in METHODS:
            original = cls.__dict__[attr]
            traced = self._wrap(original, name, hook)
            # aliases such as ConstantPolynomial.__call__ = evaluate_at
            for alias, value in list(vars(cls).items()):
                if value is original:
                    self._patch(cls, alias, traced)
        for cls, attr, name, hook in CLASSMETHODS:
            original = cls.__dict__[attr]
            self._patch(cls, attr, classmethod(self._wrap(original.__func__, name, hook)))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
