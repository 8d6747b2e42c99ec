"""The benchmark's tracer (``perfbench/spans.py``) wraps library functions
by module and name, so a renamed or moved function would otherwise fail
only a traced ``perfbench`` run.  Here every name it lists is replaced on
install, a traced call reaches its span, and uninstall puts the originals
back."""

import importlib.util
import sys
from pathlib import Path

from orekex import FieldSpec, weyl_ring
from orekex.fields import FieldTables

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_replaces_every_wrapped_name_and_restores_it():
    spans = _spans()
    functions = {(mod, attr): getattr(sys.modules[mod], attr)
                 for mod, attr, _, _ in spans.MODULE_FUNCTIONS}
    methods = {(cls, attr): cls.__dict__[attr]
               for cls, attr, _, _ in spans.METHODS + spans.CLASSMETHODS}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (mod, attr), original in functions.items():
            assert getattr(sys.modules[mod], attr) is not original, f"{mod}.{attr}"
        for (cls, attr), original in methods.items():
            assert cls.__dict__[attr] is not original, f"{cls.__name__}.{attr}"
        ring = weyl_ring(71, 2)
        ring.d(1) * ring.x(1)
        FieldTables(FieldSpec(2, 2, (1, 1, 1)))
        assert tracer.calls["orepoly.weyl_mul"] == 1 and tracer.calls["fields.tables"] == 1
    finally:
        tracer.uninstall()
    for (mod, attr), original in functions.items():
        assert getattr(sys.modules[mod], attr) is original, f"{mod}.{attr}"
    for (cls, attr), original in methods.items():
        assert cls.__dict__[attr] is original, f"{cls.__name__}.{attr}"
