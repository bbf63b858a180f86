"""Tests of the benchmark's seeded program generator."""

import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import programs  # noqa: E402
import workloads  # noqa: E402
from shapecheck.syntax import parse_program  # noqa: E402
from shapecheck.types import TagTable, parse_type  # noqa: E402

GENERATED = ("straight_line", "synth_mixed")


@pytest.mark.parametrize("workload", GENERATED)
def test_same_seed_same_bytes_other_seed_other_programs(workload):
    first = workloads.build(workload, 7, HERE.parent)
    again = workloads.build(workload, 7, HERE.parent)
    other = workloads.build(workload, 8, HERE.parent)
    assert [c.source.encode() for c in first] == [c.source.encode() for c in again]
    assert all(a.source != b.source for a, b in zip(first, other))


@pytest.mark.parametrize("workload", GENERATED)
def test_every_program_parses_at_its_stated_size(workload):
    sizes = {"straight_line": programs.STRAIGHT_SIZES,
             "synth_mixed": [n for n in programs.MIXED_SIZES for _ in range(programs.MIXED_PER_SIZE)]}
    cases = workloads.build(workload, 3, HERE.parent)
    assert [len(parse_program(c.source).body.items) for c in cases] == list(sizes[workload])


@pytest.mark.parametrize("workload", GENERATED)
def test_every_expected_type_parses(workload):
    for case in workloads.build(workload, 5, HERE.parent):
        for _, text in case.types:
            parse_type(text, TagTable())


def test_a_quarter_of_mixed_programs_index_an_int():
    int_index = re.compile(r"\bi\d+ := i\d+\[i\d+\]")
    for seed in range(4):
        cases = programs.synth_mixed_cases(seed)
        ill = [c for c in cases if c.verdict == programs.ILL_TYPED]
        assert len(ill) * 4 == len(cases)
        for case in cases:
            assert bool(int_index.search(case.source)) == (case in ill)
            assert bool(case.types) == (case not in ill)
