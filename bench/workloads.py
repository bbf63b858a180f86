"""The four workloads and the known-answer check.

A workload is a list of `Case`s, built from the seed alone. The check of
a report against its case never consults the checker's own output for
the answer: corpus answers come from the `.expected` files, generated
answers from how the programs were built.
"""

from __future__ import annotations

import random
from dataclasses import replace
from pathlib import Path

from shapecheck.syntax import parse_program
from shapecheck.types import parse_type, types_equal

import programs
from programs import Case

CORPUS_PROGRAMS = ("case_list", "closure_chain", "heterogeneous", "sexp_assign", "sort")
FUEL_PROGRAM = "self_array"
# Three step budgets spanning 10x; the largest costs about 1 s.
FUEL_BUDGETS = (5_000, 15_000, 50_000)

WORKLOADS = ("corpus", "straight_line", "synth_mixed", "fuel_burn")


class SetupError(Exception):
    """The checkout lacks what a workload needs."""


def _read_expected(path: Path):
    """First non-empty line: the verdict; further lines: `name : type`."""
    lines = [ln.strip() for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]
    verdict, rest = lines[0], lines[1:]
    pairs = []
    for ln in rest:
        name, _, ty = ln.partition(":")
        pairs.append((name.strip(), ty.strip()))
    return verdict, tuple(pairs)


def _corpus_case(root: Path, program: str, **changes) -> Case:
    lama = root / "corpus" / f"{program}.lama"
    expected = root / "corpus" / f"{program}.expected"
    if not (lama.is_file() and expected.is_file()):
        raise SetupError(f"missing {lama} or {expected}")
    verdict, pairs = _read_expected(expected)
    case = Case(name=program, source=lama.read_text(encoding="utf-8"), verdict=verdict, types=pairs)
    return replace(case, **changes)


def build(workload: str, seed: int, root: Path) -> list:
    """The workload's cases, each with its top-level statement count."""
    if workload == "corpus":
        cases = [_corpus_case(root, n) for n in CORPUS_PROGRAMS]
        random.Random(f"corpus:{seed}").shuffle(cases)
    elif workload == "straight_line":
        cases = programs.straight_line_cases(seed)
    elif workload == "synth_mixed":
        cases = programs.synth_mixed_cases(seed)
    elif workload == "fuel_burn":
        cases = [
            _corpus_case(root, FUEL_PROGRAM, name=f"{FUEL_PROGRAM}@{b}", fuel=b)
            for b in FUEL_BUDGETS
        ]
        random.Random(f"fuel_burn:{seed}").shuffle(cases)
    else:
        raise SetupError(f"unknown workload {workload!r}")
    return [replace(c, stmts=len(parse_program(c.source).body.items)) for c in cases]


def mismatch(case: Case, report) -> str | None:
    """None when the report gives the case's known answer; otherwise
    what differs. Types are compared modulo mu-unfolding and renaming,
    as `shapecheck corpus` compares them."""
    if report.verdict != case.verdict:
        return f"verdict {report.verdict}, expected {case.verdict}"
    got = dict(report.bindings)
    if case.exact_bindings and set(got) != {name for name, _ in case.types}:
        return f"bindings {sorted(got)}, expected {sorted(n for n, _ in case.types)}"
    for name, text in case.types:
        if name not in got:
            return f"no binding for {name}"
        if not types_equal(got[name], parse_type(text, report.table)):
            return f"{name} differs from {text}"
    return None
