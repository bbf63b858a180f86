"""Spans and profile counts for the traced run.

`Tracer` rebinds the names `check_source` calls, plus the benchmark's own
expectation check, to wrappers that record spans (name, start, end,
parent, program id) in memory, and it profiles each check with cProfile.
Everything it rebinds is restored on exit; `assert_untraced` proves that
before an untraced run.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
import types as pytypes
from contextlib import contextmanager

from shapecheck import checker, engine, solver, types
import workloads

# (owner, attribute, span name). The owner is a module or a class.
REBOUND = (
    (checker, "parse_program", "syntax.parse_program"),
    (checker, "infer_program", "gen.infer_program"),
    (checker, "solve_gen", "solver.solve_gen"),
    (checker, "_list_from_term", "checker.report"),
    (checker, "ty_from_term", "checker.report"),
    (checker.Report, "render_bindings", "checker.report"),
    (workloads, "parse_type", "types.compare"),
    (workloads, "types_equal", "types.compare"),
)
ORIGINALS = {(owner, attr): getattr(owner, attr) for owner, attr, _ in REBOUND}

MODULES = ("syntax", "gen", "solver", "engine", "types", "checker")
COUNT_KEYS = ("gen.constraints", "solver.dispatched", "engine.steps", "engine.unifications")


def assert_untraced():
    """Every rebound name is its original object again."""
    for (owner, attr), original in ORIGINALS.items():
        if getattr(owner, attr) is not original:
            raise AssertionError(f"{owner.__name__}.{attr} is still rebound")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, program id]
        self.counters = []  # (program id, engine Counters) per solve
        self.profile = cProfile.Profile(builtins=False)
        self._open = []  # indices of the spans that are running
        self.program = None

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), None, parent, self.program]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def _wrap(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if name == "solver.solve_gen":
                tracer.counters.append((tracer.program, result[1]))
            return result

        return wrapper

    @contextmanager
    def installed(self):
        try:
            for owner, attr, name in REBOUND:
                setattr(owner, attr, self._wrap(ORIGINALS[(owner, attr)], name))
            yield self
        finally:
            for (owner, attr), original in ORIGINALS.items():
                setattr(owner, attr, original)

    @contextmanager
    def profiled(self):
        self.profile.enable()
        try:
            yield
        finally:
            self.profile.disable()

    # -- summaries --------------------------------------------------------

    def self_ms(self) -> dict:
        """Span name -> total self time in ms (duration minus the time
        its child spans cover)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start - child[i]) * 1e3
        return out

    def exact_counts(self) -> dict:
        """Program id -> the engine's deterministic counts, summed over
        every solve of that program."""
        out = {}
        for pid, c in self.counters:
            row = out.setdefault(pid, dict.fromkeys(COUNT_KEYS, 0))
            for key, value in zip(COUNT_KEYS, (c.generated, c.dispatched, c.steps, c.unifications)):
                row[key] += value
        return out


# ---------------------------------------------------------------------------
# cProfile aggregation.
# ---------------------------------------------------------------------------


def _code_keys(fn) -> list:
    """pstats keys of a function, first, and of every function nested in it."""
    todo = [fn.__code__]
    keys = []
    while todo:
        code = todo.pop()
        keys.append((code.co_filename, code.co_firstlineno, code.co_name))
        todo += [c for c in code.co_consts if isinstance(c, pytypes.CodeType)]
    return keys


# Functions ROADMAP item 1 names as engine layers, timed where they run.
TARGETS = {
    "engine.pmap_get": engine.PMap.get,
    "engine.pmap_set": engine.PMap.set,
    "engine.pmap_assoc": engine.PMap._assoc,
    "engine.shallow_walk": engine.shallow_walk,
    "engine.occurs": engine.occurs,
    "engine.unify_terms": engine._unify_terms,
    "engine.mplus": engine.mplus,
    "engine.mbind": engine.mbind,
    "engine.force": engine._force,
    "solver.constraint_weight": solver.constraint_weight,
    "types.eq_t": types.eq_t,
    "types.apply_type_subst": types.apply_type_subst,
}


def profile_summary(profile: cProfile.Profile) -> dict:
    """Per-module self time (a function belongs to the file defining it)
    and per-target calls and self time."""
    stats = pstats.Stats(profile).stats
    src = os.path.dirname(checker.__file__)
    total = sum(row[2] for row in stats.values()) or 1.0
    module_s = dict.fromkeys(MODULES, 0.0)
    for (filename, _, _), row in stats.items():
        if os.path.dirname(filename) == src:
            mod = os.path.splitext(os.path.basename(filename))[0]
            if mod in module_s:
                module_s[mod] += row[2]
    out = {f"{m}.self_share": s / total for m, s in module_s.items()}
    for name, fn in TARGETS.items():
        keys = _code_keys(fn)
        out[f"{name}.calls"] = stats.get(keys[0], (0, 0))[1]
        out[f"{name}.self_ms"] = sum(stats[k][2] for k in keys if k in stats) * 1e3
    return out
