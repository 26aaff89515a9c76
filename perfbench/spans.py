"""Spans around the calls into neutralrep's layers, for the traced run.

A span records a name, a start, an end and the index of the span that was
open when it began (its parent).  The operation spans that the benchmark
opens are the roots, so all spans of one operation share a root.  Spans are
kept in memory and written out when the round ends.  A layer's self time is
its span's duration minus the durations of its child spans, which never
overlap because one caller drives the program.

Counts are taken at the same boundaries from arguments and results, so a
ratio such as certified/calls is measured where the work happens.  Calls
made outside an operation span, such as the benchmark's own checks of the
outputs, are neither recorded nor counted.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter

VERIFY = "criteria.verify_certificate"


def _certified(result, tracer):
    return int(result.certified)


def _closure_outside_verify(result, tracer):
    return 0 if tracer.inside(VERIFY) else len(result)


def _closure_inside_verify(result, tracer):
    return len(result) if tracer.inside(VERIFY) else 0


# (module, function, counters): each counter is (metric, f) and adds
# f(result, tracer) to the metric after a call returns.
LAYERS = [
    ("autgroup", "aut_v_subgroup", [("autgroup.aut_v_subgroup.kept", lambda r, t: r.order)]),
    ("autgroup", "orbit_partition", []),
    ("autgroup", "aut_generators", [("autgroup.aut_generators.gens", lambda r, t: len(r))]),
    (
        "autgroup",
        "close_group",
        [
            ("autgroup.close_group.elements", _closure_outside_verify),
            (f"{VERIFY}.closure_elements", _closure_inside_verify),
        ],
    ),
    ("criteria", "verify_certificate", []),
    ("criteria", "neutrality_report", []),
    ("criteria", "report_to_json", []),
    ("criteria", "check_easy_cyclic", [("criteria.check_easy_cyclic.certified", _certified)]),
    ("criteria", "check_large_prime", [("criteria.check_large_prime.certified", _certified)]),
    ("criteria", "check_cyclic_general", [("criteria.check_cyclic_general.certified", _certified)]),
    (
        "criteria",
        "check_lines_generators",
        [("criteria.check_lines_generators.certified", _certified)],
    ),
    ("abelian", "generates", []),
    ("abelian", "smith_normal_form", []),
    ("rep", "pseudoreflections", []),
    ("rep", "is_faithful", []),
    ("rep", "blended_decomposition", []),
    ("rep", "rep_from_input", []),
    ("cli", "main", []),
]
# FiniteAbelianGroup.primary_part is a method, so it is wrapped on its class.
METHOD_LAYERS = [("abelian", "FiniteAbelianGroup", "primary_part")]

# The per-layer metrics of the traced run; "calls" and "self_s" come from
# the spans, the other stats from the counters above.
REPORTED = {
    "autgroup.aut_v_subgroup": ("calls", "self_s", "kept"),
    "autgroup.orbit_partition": ("calls", "self_s"),
    "autgroup.aut_generators": ("calls", "gens", "self_s"),
    "autgroup.close_group": ("calls", "self_s", "elements"),
    VERIFY: ("calls", "self_s", "closure_elements"),
    "criteria.neutrality_report": ("self_s",),
    "criteria.report_to_json": ("self_s",),
    "criteria.check_easy_cyclic": ("calls", "certified"),
    "criteria.check_large_prime": ("calls", "certified"),
    "criteria.check_cyclic_general": ("calls", "certified"),
    "criteria.check_lines_generators": ("calls", "certified"),
    "abelian.generates": ("calls", "self_s"),
    "abelian.primary_part": ("calls",),
    "abelian.smith_normal_form": ("calls", "self_s"),
    "rep.pseudoreflections": ("self_s",),
    "rep.is_faithful": ("self_s",),
    "rep.blended_decomposition": ("self_s",),
    "rep.rep_from_input": ("self_s",),
    "cli.main": ("calls", "self_s"),
}


def reported_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    return [
        (f"{layer}.{stat}", "s" if stat == "self_s" else "count")
        for layer, stats in REPORTED.items()
        for stat in stats
    ]


class Tracer:
    """Spans and counts of one round, recorded in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []  # (name id, start, end, parent index)
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.open_by_name: dict[str, int] = defaultdict(int)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def inside(self, name: str) -> bool:
        return self.open_by_name[name] > 0

    def _open(self, name: str) -> tuple[int, int]:
        index = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(index)
        self.open_by_name[name] += 1
        return index, parent

    def _close(self, name: str, name_id: int, index: int, parent: int, start: float, end: float):
        self.open_by_name[name] -= 1
        self.stack.pop()
        self.spans[index] = (name_id, start, end, parent)

    def wrap(self, name: str, fn, counters):
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.stack:  # outside the operations, e.g. the output checks
                return fn(*args, **kwargs)
            index, parent = self._open(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, name_id, index, parent, start, perf_counter())
            for key, f in counters:
                self.counts[key] += f(result, self)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A root span around one operation."""
        name_id = self._name_id(name)
        index, parent = self._open(name)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(name, name_id, index, parent, start, perf_counter())

    def install(self) -> None:
        """Patch each layer function's name in every neutralrep module that
        looks it up, and each traced method on its class."""
        modules = [
            m
            for key, m in list(sys.modules.items())
            if key == "neutralrep" or key.startswith("neutralrep.")
        ]
        for module_name, fn_name, counters in LAYERS:
            original = getattr(sys.modules[f"neutralrep.{module_name}"], fn_name)
            traced = self.wrap(f"{module_name}.{fn_name}", original, counters)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
        for module_name, cls_name, method in METHOD_LAYERS:
            cls = getattr(sys.modules[f"neutralrep.{module_name}"], cls_name)
            traced = self.wrap(f"{module_name}.{method}", getattr(cls, method), [])
            setattr(cls, method, traced)

    def layer_metrics(self) -> dict[str, float]:
        """Every reported per-layer metric over the spans recorded so far."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name_id, start, end, _) in enumerate(self.spans):
            name = self.names[name_id]
            self_s[name] += (end - start) - child_time[i]
            calls[name] += 1
        out: dict[str, float] = {}
        for layer, stats in REPORTED.items():
            for stat in stats:
                if stat == "self_s":
                    out[f"{layer}.{stat}"] = self_s.get(layer, 0.0)
                elif stat == "calls":
                    out[f"{layer}.{stat}"] = calls.get(layer, 0)
                else:
                    out[f"{layer}.{stat}"] = self.counts.get(f"{layer}.{stat}", 0)
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent"],
                    "names": self.names,
                    "spans": self.spans,
                },
                handle,
                separators=(",", ":"),
            )
