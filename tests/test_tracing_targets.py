"""Every function perfbench/tracing.py wraps still exists in the package.

A traced name that an inlining removes would make ``perfbench/run.py
--trace 1`` report it as absent from the package, so the guard is here.
``TARGETS`` is read from the file's syntax tree; nothing under
``perfbench/`` is imported or run.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _traced_names():
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return [(entry.elts[0].value, entry.elts[1].value)
                    for entry in node.value.elts]
    raise AssertionError("perfbench/tracing.py has no TARGETS list")


def test_every_traced_name_is_callable():
    names = _traced_names()
    assert ("reducer", "compress_step") in names and len(names) >= 20
    missing = [f"{layer}.{func}" for layer, func in names
               if not callable(getattr(importlib.import_module(f"rmtkd.{layer}"),
                                       func, None))]
    assert missing == []
