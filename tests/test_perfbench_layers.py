"""The benchmark's traced layers name functions and methods that exist.

``perfbench/spans.py`` wraps each layer by module and name when a traced run
starts, so a renamed function would only show up as a crash of
``perfbench/run.py --trace 1``.  The file is read, not imported, so the
benchmark directory is left as it is.
"""

import importlib
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


def test_traced_layers_resolve_in_neutralrep():
    spans = load_spans()
    names = set()
    for module_name, fn_name, _ in spans.LAYERS:
        module = importlib.import_module(f"neutralrep.{module_name}")
        assert callable(getattr(module, fn_name, None)), (module_name, fn_name)
        names.add(f"{module_name}.{fn_name}")
    for module_name, cls_name, method in spans.METHOD_LAYERS:
        module = importlib.import_module(f"neutralrep.{module_name}")
        cls = getattr(module, cls_name, None)
        assert isinstance(cls, type), (module_name, cls_name)
        assert callable(getattr(cls, method, None)), (module_name, cls_name, method)
        names.add(f"{module_name}.{method}")
    assert set(spans.REPORTED) <= names
