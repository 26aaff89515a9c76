"""The mutation sets of ``tools/mutate_verify.py`` name functions that exist,
so a renamed function fails here instead of leaving its set short of
mutants; and the ``verify`` set's functions, certificate replay, read no
name of ``criteria.py`` beyond replay's stated trusted base."""

import ast
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutate_verify.py"


@pytest.fixture
def tool():
    spec = importlib.util.spec_from_file_location("mutate_verify", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_names_a_function(tool):
    for name in tool.SETS:
        assert tool.set_sources(name), name


def test_a_target_that_names_no_function_is_refused(tool, monkeypatch):
    targets = {"src/neutralrep/rep.py": ("rep_from_input", "Representation.__post_init__")}
    monkeypatch.setitem(tool.SETS, "renamed", {"targets": targets, "tests": ()})
    with pytest.raises(ValueError, match=r"rep\.py has no function Representation\.__post_init__"):
        tool.set_sources("renamed")


#: The module-level names of ``criteria.py`` that replay may read, as its
#: docstring states them: from the package's other modules the value types,
#: ``DEFAULT_CAP``, ``primary_projection``, ``mod_p_image``,
#: ``is_prime_divisor``, ``check_aut_order``, ``is_int_list`` and the error
#: it raises; from ``criteria.py`` itself ``Certificate``, the strategy
#: names and the witness type sets.  The standard library is not counted.
TRUSTED_BASE = {
    "Character",
    "FiniteAbelianGroup",
    "Representation",
    "DEFAULT_CAP",
    "primary_projection",
    "mod_p_image",
    "is_prime_divisor",
    "check_aut_order",
    "is_int_list",
    "MalformedCertificateError",
    "Certificate",
    "STRATEGY_EASY_CYCLIC",
    "STRATEGY_LARGE_PRIME",
    "STRATEGY_CYCLIC_GENERAL",
    "STRATEGY_LINES_AND_GENERATORS",
    "_NOT_INTEGRAL",
    "_CONTAINERS",
}


def test_replay_reads_only_its_trusted_base(tool):
    path = "src/neutralrep/criteria.py"
    replay = tool.SETS["verify"]["targets"][path]
    tree = ast.parse((TOOL.parent.parent / path).read_text())
    # names bound at module level, but not by an import from outside the package
    module_names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level:
            module_names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            module_names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            module_names.update(t.id for t in targets if isinstance(t, ast.Name))
    functions = dict(tool._functions(tree))
    loaded = {
        node.id
        for name in replay
        for node in ast.walk(functions[name])
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert (loaded & module_names) - set(replay) == TRUSTED_BASE
