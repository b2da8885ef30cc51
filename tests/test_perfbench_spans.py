"""The class methods that the perfbench tracer wraps exist where it looks
them up.

`perfbench/spans.py` names them in its `METHODS` dict, and
`Tracer.install` takes each one from its class's own `__dict__`, so a
renamed, removed or inherited method would make `perfbench/run.py
--trace 1` stop with a KeyError.  The file is parsed, not imported."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _methods() -> dict:
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "METHODS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no METHODS")


def test_traced_methods_are_defined_on_their_classes():
    traced = [(module, cls, meth)
              for module, classes in _methods().items()
              for cls, methods in classes.items()
              for meth in methods]
    missing = [f"{module}.{cls}.{meth}" for module, cls, meth in traced
               if meth not in vars(getattr(importlib.import_module(f"mbc.{module}"), cls))]
    assert traced and missing == []
