"""Shared test set-up.

``pythonpath`` in ``pyproject.toml`` puts ``src`` on the suite's own import
path only; the fixture below hands the same directory to the interpreters
that the CLI and determinism tests start, so a bare ``pytest`` tests this
checkout in every process.
"""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True, scope="session")
def subprocesses_import_this_checkout():
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", path)
        yield
