"""The benchmark's traced layers, and the package names it reads, exist.

``perfbench/spans.py`` wraps each layer by module and name when a traced run
starts, so a renamed function would only show up as a crash of
``perfbench/run.py --trace 1``.  Likewise a name dropped from the package's
exports would only show up as a crash of the benchmark's workloads.  The
files are read, not imported, so the benchmark directory is left as it is.
"""

import ast
import importlib
import types
from pathlib import Path

import neutralrep
import neutralrep.cli  # the benchmark imports it, which binds neutralrep.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


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


def test_package_names_the_benchmark_reads_exist():
    # perfbench/child.py imports the package as ``nr`` and hands it to
    # perfbench/workloads.py, which reads ``nr.<name>`` throughout
    names = set()
    for filename in ("workloads.py", "child.py"):
        tree = ast.parse((PERFBENCH / filename).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "nr"
            ):
                names.add(node.attr)
    assert {"neutrality_report", "blended_decomposition", "verify_certificate"} <= names
    missing = sorted(name for name in names if not hasattr(neutralrep, name))
    assert missing == []


def test_blend_attributes_the_benchmark_reads_exist():
    # perfbench/workloads.py's _blend_summary reads these off each blend:
    # symmetries.order, and per orbit characters[*].coords, multiplicity and
    # det_character.coords
    group = neutralrep.FiniteAbelianGroup((2, 4))
    V = neutralrep.Representation.from_multiplicities(group, {(1, 1): 1, (0, 1): 1, (0, 2): 2})
    decomposition = neutralrep.blended_decomposition(V)
    assert decomposition.symmetries.order == 2
    # (a, b) -> (a + b, b) swaps (0, 1) with (1, 1) and (0, 3) with (1, 3)
    assert [comp.size for comp in decomposition.components] == [1, 2, 1, 2, 1, 1]
    for comp in decomposition.components:
        assert [ch.coords for ch in comp.characters] == list(comp.members)
        assert comp.multiplicity == V.multiplicity(comp.characters[0])
        total = [sum(column) for column in zip(*comp.members)]
        expected = [comp.multiplicity * a % d for a, d in zip(total, group.invariant_factors)]
        assert list(comp.det_character.coords) == expected
