"""The names the benchmark's traced run hooks into still exist.

`bench/tracing.py` rebinds checker functions to timing wrappers, profiles
engine layers by function, and reads the engine's counters by field name.
A rename in `src/shapecheck/` that none of the other tests notice would
break the traced run; these tests notice it.
"""

import inspect
import sys
from pathlib import Path

import pytest

from shapecheck import checker

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "shapecheck"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import tracing
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return tracing


def _defined_in_package(fn) -> bool:
    return inspect.isfunction(fn) and Path(fn.__code__.co_filename).resolve().parent == PACKAGE


def test_every_rebound_name_is_a_checker_function(tracing):
    for owner, attr, _ in tracing.REBOUND:
        fn = getattr(owner, attr)
        assert _defined_in_package(fn), f"{owner.__name__}.{attr}"
        assert fn.__name__ == attr, f"{owner.__name__}.{attr} is {fn.__name__}"


def test_every_profiled_target_is_a_checker_function(tracing):
    for name, fn in tracing.TARGETS.items():
        assert _defined_in_package(fn), name


def test_a_traced_check_reads_every_count(tracing):
    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.program = 0
        report = checker.check_source("var x = [1]; x [0]")
    tracing.assert_untraced()
    counts = tracer.exact_counts()[0]
    assert list(counts) == list(tracing.COUNT_KEYS)
    assert counts["gen.constraints"] == report.stats["constraints-generated"]
    assert counts["solver.dispatched"] == report.stats["constraints-dispatched"]
    assert counts["engine.steps"] == report.stats["fuel-used"]
    assert counts["engine.unifications"] == report.stats["engine-unifications"]
    assert {span[0] for span in tracer.spans} >= {"syntax.parse_program", "gen.infer_program", "solver.solve_gen"}
