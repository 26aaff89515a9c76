"""Mutation run over the certificate-replay (verify) functions of criteria.py.

Each mutant changes one thing in one verify function: it flips or shifts
one comparison, swaps one ``and``/``or``, drops one term of a condition,
flips one boolean ``return``, removes one ``not`` or wraps one test in
``not``: that of an ``if``, ``elif`` or ``while``, of a conditional
expression, or one filter of a comprehension.  The mutants are made
with the standard-library ``ast`` module, written into a temporary copy of
``src``, ``tests`` and ``pyproject.toml``, and tested there, so the checkout
itself is never touched.  A mutant that makes a test fail (or time out) is
killed; one that passes every test survives, which means no test pins the
check it changed.

Run from anywhere:

    python3 tools/mutate_verify.py          # run every mutant against TESTS
    python3 tools/mutate_verify.py --list   # print the mutants only

It prints one line per mutant and a summary, and exits 1 when a mutant
survives (2 when the unmutated copy already fails its tests).
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CRITERIA = Path("src/neutralrep/criteria.py")

#: The functions that replay a certificate.
TARGETS = (
    "verify_certificate",
    "_integral",
    "_need_keys",
    "_verify_easy_cyclic",
    "_closure_generates",
    "_verify_large_prime",
    "_recomputed_preserving_elements",
    "_orbit",
    "_verify_cyclic_general",
    "_fixes_every_line",
    "_verify_lines_generators",
)

#: The test files that exercise verify.
TESTS = (
    "tests/test_forged_certificates.py",
    "tests/test_criteria.py",
    "tests/test_replay_property.py",
    "tests/test_cli.py",
    "tests/test_differential.py",
)

#: Seconds before a mutant's test run is stopped and counted as killed.
TIMEOUT_S = 300

#: Each comparison's negation, and for an order its boundary shift.
COMPARE_SWAPS = {
    ast.Eq: (ast.NotEq,),
    ast.NotEq: (ast.Eq,),
    ast.Lt: (ast.GtE, ast.LtE),
    ast.LtE: (ast.Gt, ast.Lt),
    ast.Gt: (ast.LtE, ast.GtE),
    ast.GtE: (ast.Lt, ast.Gt),
    ast.In: (ast.NotIn,),
    ast.NotIn: (ast.In,),
    ast.Is: (ast.IsNot,),
    ast.IsNot: (ast.Is,),
}


def _key(node: ast.AST) -> tuple:
    return (type(node).__name__, node.lineno, node.col_offset, node.end_lineno, node.end_col_offset)


def _tests(node: ast.AST) -> list[ast.expr]:
    """The truth tests that ``node`` branches on: the test of an ``if``
    (an ``elif`` is an ``if`` of its own), a ``while`` or a conditional
    expression, or each filter of a comprehension."""
    if isinstance(node, (ast.If, ast.While, ast.IfExp)):
        return [node.test]
    if isinstance(node, ast.comprehension):
        return list(node.ifs)
    return []


def mutation_sites(source: str) -> list[tuple]:
    """Every (function, node key, kind, argument, source text) mutation of
    the target functions, in a fixed order."""
    sites = []
    for fn in ast.parse(source).body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name in TARGETS):
            continue
        for node in ast.walk(fn):
            for test in _tests(node):
                text = " ".join((ast.get_source_segment(source, test) or "").split())
                sites.append((fn.name, _key(test), "negate", None, text))
            found = []
            if isinstance(node, ast.Compare):
                for j, op in enumerate(node.ops):
                    found += [("compare", (j, type(op), new)) for new in COMPARE_SWAPS[type(op)]]
            elif isinstance(node, ast.BoolOp):
                found = [("swap", None)] + [("drop", j) for j in range(len(node.values))]
            elif (
                isinstance(node, ast.Return)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, bool)
            ):
                found = [("flip", None)]
            elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
                found = [("unnot", None)]
            text = " ".join((ast.get_source_segment(source, node) or "").split())
            sites += [(fn.name, _key(node), kind, arg, text) for kind, arg in found]
    return sites


class _Mutator(ast.NodeTransformer):
    def __init__(self, key: tuple, kind: str, arg):
        self.key, self.kind, self.arg = key, kind, arg

    def visit(self, node):
        node = self.generic_visit(node)
        if not hasattr(node, "lineno") or _key(node) != self.key:
            return node
        if self.kind == "compare":
            j, _, new = self.arg
            node.ops[j] = new()
        elif self.kind == "swap":
            node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
        elif self.kind == "drop":
            rest = node.values[: self.arg] + node.values[self.arg + 1 :]
            return rest[0] if len(rest) == 1 else ast.BoolOp(node.op, rest)
        elif self.kind == "flip":
            node.value = ast.Constant(not node.value.value)
        elif self.kind == "unnot":
            return node.operand
        elif self.kind == "negate":
            return ast.UnaryOp(ast.Not(), node)
        return node


def mutant_source(source: str, site: tuple) -> tuple[str, str]:
    """The mutated module and a one-line description of the change."""
    name, key, kind, arg, text = site
    tree = _Mutator(key, kind, arg).visit(ast.parse(source))
    if kind == "compare":
        label = f"{arg[1].__name__} -> {arg[2].__name__}"
    else:
        label = {"swap": "and/or swap", "drop": f"term {arg} dropped",
                 "flip": "boolean return flipped", "unnot": "not removed",
                 "negate": "test negated"}[kind]
    return ast.unparse(ast.fix_missing_locations(tree)), f"{name}:{key[1]} {label}: {text}"


def run_tests(workdir: Path) -> str:
    """'pass', 'fail' or 'timeout' for the test run in the copy.  No
    bytecode is cached, since a flipped operator leaves the module's size
    unchanged, and the copy's own ``src`` is the only one on the path."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "-o", "addopts=", *TESTS]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    try:
        done = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "pass" if done.returncode == 0 else "fail"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", action="store_true", help="print the mutants and stop")
    args = parser.parse_args(argv)

    source = (ROOT / CRITERIA).read_text()
    sites = mutation_sites(source)
    if args.list:
        for i, site in enumerate(sites):
            print(f"{i:3d} {mutant_source(source, site)[1]}")
        return 0

    with tempfile.TemporaryDirectory(prefix="mutate-verify-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        shutil.copy(ROOT / "pyproject.toml", work / "pyproject.toml")
        target = work / CRITERIA
        # the unmutated module goes through the same unparse as every mutant
        target.write_text(ast.unparse(ast.parse(source)))
        if run_tests(work) != "pass":
            print("the unmutated copy fails its tests; no mutant was run")
            return 2
        survivors = []
        for i, site in enumerate(sites):
            text, label = mutant_source(source, site)
            target.write_text(text)
            start = time.perf_counter()
            outcome = run_tests(work)
            verdict = "SURVIVED" if outcome == "pass" else f"killed ({outcome})"
            print(f"{i:3d} {verdict:17s} {time.perf_counter() - start:6.1f}s  {label}", flush=True)
            if outcome == "pass":
                survivors.append(label)
    print(f"{len(sites)} mutants, {len(sites) - len(survivors)} killed, {len(survivors)} survived")
    for label in survivors:
        print(f"  survivor: {label}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
