"""Mutation runs over sets of target functions: the certificate-replay
(verify) functions of criteria.py; the blend path's orbit walk,
determinant rule and decomposition in autgroup.py and rep.py; the
checker's automorphism layer in autgroup.py (|Aut(G)|, its generators and
closure, AutV by arithmetic on cyclic groups and by the row backtrack
above rank 1, and the mod-p line tests); and the checker's
strategies in criteria.py with the representation and group arithmetic
they read in rep.py and abelian.py (faithfulness, the pseudoreflection
count and listing by residue classes, primes, mod-p images and ranks,
generation); and the input and report boundary (io): the readers and
writers of documents and reports in rep.py and criteria.py, the CLI's
argument and file readers and verify's summary in cli.py, the group
constructors and Smith normal form in abelian.py, and the range checks of
the field-of-moduli data in geometry.py.

Each mutant changes one thing in one target function: it flips or shifts
one comparison, swaps one ``and``/``or``, drops one term of a condition,
flips one boolean ``return``, removes one ``not`` or wraps one test in
``not``: that of an ``if``, ``elif`` or ``while``, of a conditional
expression, or one filter of a comprehension.  The mutants are made
with the standard-library ``ast`` module, written into a temporary copy
of ``src``, ``tests``, ``perfbench`` and ``pyproject.toml``, and tested
there against their set's test files, so the checkout itself is never
touched.  A mutant that makes a test fail (or time out, or outgrow the
run's memory limit) is killed; one that passes every test survives, which
means no test pins the check it changed.

Run from anywhere:

    python3 tools/mutate_verify.py          # every set, each against its tests
    python3 tools/mutate_verify.py --list   # print every set's mutants only

It prints one line per mutant and a summary per set, and exits 1 when a
mutant survives (2 when the unmutated copy already fails a set's tests).
To run one set from Python, call ``run_set(name)``.
"""

from __future__ import annotations

import argparse
import ast
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent

#: Each set: its target functions, by module, a method named as
#: ``Class.method``; and the test files that pin them, in the order run.
SETS = {
    "verify": {
        "targets": {
            "src/neutralrep/criteria.py": (
                "verify_certificate",
                "_integral",
                "_need_keys",
                "_verify_easy_cyclic",
                "_index_generates",
                "_verify_large_prime",
                "_recomputed_preserving_elements",
                "_reduced_socle_rows",
                "_orbit",
                "_verify_cyclic_general",
                "_fixes_every_line",
                "_greedy_generators",
                "_verify_lines_generators",
            ),
        },
        "tests": (
            "tests/test_forged_certificates.py",
            "tests/test_criteria.py",
            "tests/test_replay_property.py",
            "tests/test_cli.py",
            "tests/test_differential.py",
        ),
    },
    "blend": {
        "targets": {
            "src/neutralrep/autgroup.py": (
                "_orbits",
                "orbit_partition",
                "support_orbits",
                "Orbit.det_character",
            ),
            "src/neutralrep/rep.py": (
                "blended_decomposition",
            ),
        },
        "tests": (
            "tests/test_rep.py",
            "tests/test_digests.py",
            "tests/test_perfbench_layers.py",
            "tests/test_autgroup.py",
        ),
    },
    "aut": {
        "targets": {
            "src/neutralrep/autgroup.py": (
                "aut_generators",
                "close_group",
                "_close_columns",
                "_extend_closure",
                "aut_v_subgroup",
                "_cyclic_aut_v",
                "_candidate_rows",
                "_preserving_matrices",
                "_mod_p_blocks",
                "_independence_test",
                "induced_mod_p_matrix",
                "is_scalar_matrix_mod_p",
                "acts_trivially_on_lines",
                "aut_order",
                "check_aut_order",
            ),
        },
        "tests": (
            "tests/test_digests.py",
            "tests/test_autgroup.py",
            "tests/test_criteria.py",
        ),
    },
    "checker": {
        "targets": {
            "src/neutralrep/criteria.py": (
                "check_easy_cyclic",
                "check_large_prime",
                "check_cyclic_general",
                "_cyclic_general",
                "check_lines_generators",
                "_generator_scalars",
                "check_prime",
                "neutrality_report",
            ),
            "src/neutralrep/rep.py": (
                "is_faithful",
                "pseudoreflection_count",
                "pseudoreflections",
                "_pseudoreflection_classes",
                "_prefix_points",
                "_meet",
            ),
            "src/neutralrep/abelian.py": (
                "is_prime",
                "is_prime_divisor",
                "prime_factorization",
                "generates",
                "rank_mod_p",
                "_reduce_mod_p",
                "_echelon_add",
                "primary_projection",
                "mod_p_image",
                "_primary_part",
            ),
        },
        "tests": (
            "tests/test_criteria.py",
            "tests/test_abelian.py",
            "tests/test_rep.py",
            "tests/test_digests.py",
            "tests/test_cli.py",
            "tests/test_differential.py",
        ),
    },
    # Two io mutants of smith_normal_form survive and are equivalent:
    # ``t < min(m, n)`` -> ``<=``, since _min_abs_entry finds no pivot once
    # t reaches min(m, n); and ``A[t][t] < 0`` -> ``<=``, since the pivot is
    # nonzero.
    "io": {
        "targets": {
            "src/neutralrep/rep.py": (
                "Representation.__init__",
                "rep_from_input",
                "is_int",
                "is_int_list",
                "group_from_input",
                "rep_to_dict",
            ),
            "src/neutralrep/criteria.py": (
                "verdict_to_dict",
                "_is_str_list",
                "verdict_from_dict",
                "certificate_from_dict",
                "report_to_dict",
                "report_from_dict",
            ),
            "src/neutralrep/cli.py": (
                "_checked_cap",
                "_load_json",
                "_parse_assignments",
                "_extract_certificates",
                "cmd_verify",
                "_bounded_vectors",
            ),
            "src/neutralrep/abelian.py": (
                "FiniteAbelianGroup.__init__",
                "FiniteAbelianGroup.from_relations",
                "Character.__init__",
                "smith_normal_form",
            ),
            "src/neutralrep/geometry.py": ("_check",),
        },
        "tests": (
            "tests/test_cli.py",
            "tests/test_rep.py",
            "tests/test_geometry.py",
            "tests/test_abelian.py",
            "tests/test_criteria.py",
            "tests/test_digests.py",
        ),
    },
}

#: A mutant's test run is stopped and counted as killed after this many
#: times the unmutated run's time, and never before TIMEOUT_FLOOR_S, which
#: only guards a set whose unmutated run takes a few seconds.
TIMEOUT_FACTOR = 3
TIMEOUT_FLOOR_S = 10

#: The address space a test run may take, so that a mutant whose loop
#: appends forever fails with ``MemoryError`` instead of filling memory.
MEMORY_LIMIT_BYTES = 1 << 30

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


def _functions(tree: ast.Module) -> Iterator[tuple[str, ast.FunctionDef]]:
    """The module's functions and its classes' methods, with their names,
    a method's as ``Class.method``, in source order."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    yield f"{node.name}.{fn.name}", fn


def _text(lines: list[bytes], node: ast.AST) -> str:
    """The node's source, as ``ast.get_source_segment`` gives it, on one
    line with its whitespace collapsed.  ``lines`` is the module split once
    into UTF-8 lines, since column offsets count bytes; a call of
    ``get_source_segment`` would split the whole module again."""
    first, last = node.lineno - 1, node.end_lineno - 1
    if first == last:
        chunks = [lines[first][node.col_offset : node.end_col_offset]]
    else:
        chunks = [lines[first][node.col_offset :], *lines[first + 1 : last],
                  lines[last][: node.end_col_offset]]
    return " ".join(b"".join(chunks).decode().split())


def mutation_sites(source: str, targets: tuple[str, ...]) -> list[tuple]:
    """Every (function, node key, kind, argument, source text) mutation of
    the target functions, in a fixed order."""
    sites = []
    lines = source.encode().splitlines(keepends=True)
    for name, fn in _functions(ast.parse(source)):
        if name not in targets:
            continue
        for node in ast.walk(fn):
            for test in _tests(node):
                sites.append((name, _key(test), "negate", None, _text(lines, test)))
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
            if found:  # a node without a mutation may have no source position
                text = _text(lines, node)
                sites += [(name, _key(node), kind, arg, text) for kind, arg in found]
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


def mutant_label(site: tuple) -> str:
    """A one-line description of the site's change."""
    name, key, kind, arg, text = site
    if kind == "compare":
        label = f"{arg[1].__name__} -> {arg[2].__name__}"
    else:
        label = {"swap": "and/or swap", "drop": f"term {arg} dropped",
                 "flip": "boolean return flipped", "unnot": "not removed",
                 "negate": "test negated"}[kind]
    return f"{name}:{key[1]} {label}: {text}"


def mutant_source(source: str, site: tuple) -> tuple[str, str]:
    """The mutated module and a one-line description of the change."""
    _, key, kind, arg, _ = site
    tree = _Mutator(key, kind, arg).visit(ast.parse(source))
    return ast.unparse(ast.fix_missing_locations(tree)), mutant_label(site)


def run_tests(workdir: Path, tests: tuple[str, ...], timeout: float | None = None) -> str:
    """'pass', 'fail' or 'timeout' for the run of ``tests`` in the copy.  No
    bytecode is cached, since a flipped operator leaves the module's size
    unchanged, and the copy's own ``src`` is the only one on the path."""

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT_BYTES, MEMORY_LIMIT_BYTES))

    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "-o", "addopts=", *tests]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    try:
        done = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, timeout=timeout,
                              preexec_fn=limit_memory)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "pass" if done.returncode == 0 else "fail"


def set_sources(name: str) -> dict[str, str]:
    """The set's target modules, path to source.  A target that names no
    function of its module raises ``ValueError``, so a renamed function is
    never silently left without mutants."""
    sources = {}
    for path, targets in SETS[name]["targets"].items():
        sources[path] = (ROOT / path).read_text()
        names = {fn for fn, _ in _functions(ast.parse(sources[path]))}
        missing = [target for target in targets if target not in names]
        if missing:
            raise ValueError(f"{name}: {path} has no function {', '.join(missing)}")
    return sources


def set_mutants(name: str) -> tuple[dict[str, str], list[tuple[str, tuple]]]:
    """The set's target modules, path to source, and its (path, site)
    mutations, module by module."""
    sources = set_sources(name)
    mutants = []
    for path, targets in SETS[name]["targets"].items():
        mutants += [(path, site) for site in mutation_sites(sources[path], targets)]
    return sources, mutants


def run_set(name: str) -> int:
    """Run every mutant of the set; 0 when all are killed, 1 when one
    survives, 2 when the unmutated copy fails the set's tests."""
    sources, mutants = set_mutants(name)
    tests = SETS[name]["tests"]
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        work = Path(tmp)
        # the benchmark's sources too, which a test reads
        for part in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache", "out"))
        shutil.copy(ROOT / "pyproject.toml", work / "pyproject.toml")
        # the unmutated modules go through the same unparse as every mutant
        plain = {path: ast.unparse(ast.parse(source)) for path, source in sources.items()}
        for path, text in plain.items():
            (work / path).write_text(text)
        start = time.perf_counter()
        if run_tests(work, tests) != "pass":
            print(f"{name}: the unmutated copy fails its tests; no mutant was run")
            return 2
        timeout = max(TIMEOUT_FLOOR_S, TIMEOUT_FACTOR * (time.perf_counter() - start))
        survivors = []
        for i, (path, site) in enumerate(mutants):
            text, label = mutant_source(sources[path], site)
            (work / path).write_text(text)
            start = time.perf_counter()
            outcome = run_tests(work, tests, timeout)
            (work / path).write_text(plain[path])
            verdict = "SURVIVED" if outcome == "pass" else f"killed ({outcome})"
            print(f"{name} {i:3d} {verdict:17s} {time.perf_counter() - start:6.1f}s  {label}",
                  flush=True)
            if outcome == "pass":
                survivors.append(label)
    print(f"{name}: {len(mutants)} mutants, {len(mutants) - len(survivors)} killed, "
          f"{len(survivors)} survived")
    for label in survivors:
        print(f"  survivor: {label}")
    return 1 if survivors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", action="store_true", help="print the mutants and stop")
    args = parser.parse_args(argv)
    if args.list:
        for name in SETS:
            for i, (_, site) in enumerate(set_mutants(name)[1]):
                print(f"{name} {i:3d} {mutant_label(site)}")
        return 0
    return max([run_set(name) for name in SETS])


if __name__ == "__main__":
    sys.exit(main())
