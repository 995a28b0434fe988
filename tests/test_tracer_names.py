"""The benchmark's tracer (perfbench/tracer.py) wraps package functions
by name, so a renamed or deleted one would fail only in traced runs.
Its LAYERS table is read from the source; the tracer is not imported."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_name_is_a_package_function():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets]
                  == ["LAYERS"])
    assert layers
    for layer, names in layers.items():
        module = importlib.import_module(f"multimorse.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), \
                f"multimorse.{layer}.{name}"
