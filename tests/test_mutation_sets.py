"""The mutation sets of ``tools/mutate_verify.py`` name functions that exist,
so a renamed function fails here instead of leaving its set short of
mutants."""

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
