"""The reference interpreter (`interp.py`) against the checker's verdicts:
a `Typed` program runs without a shape fault."""

import sys
from pathlib import Path

import pytest

from shapecheck.checker import ILL_TYPED, TYPED, check_source
from shapecheck.syntax import parse_program

from interp import ShapeError, run

ROOT = Path(__file__).resolve().parent.parent


def outcome(source, **bounds):
    return run(parse_program(source), **bounds)


@pytest.mark.parametrize(
    "source",
    [
        "var x = 1; x [0]",
        'var x = [1]; x ["a"]',
        'var s = "ab"; s [0] := "c"',
        "var f = 1; f (2)",
        "fun f (x) { x } f (1, 2)",
        'var y = 1 + "a"',
        'var y = [1] < 2',
        'if "s" then 1 else 2 fi',
        "while [] do 1 od",
        'write ("s")',
        "var x = 1; x.length",
        "var y = [1, 2].length; y [0]",
    ],
)
def test_each_shape_fault_raises_a_shape_error(source):
    with pytest.raises(ShapeError):
        outcome(source)
    assert check_source(source).verdict == ILL_TYPED


@pytest.mark.parametrize(
    "source, ending",
    [
        ("var x = A (1); var y = case x of B (z) -> z esac", "no match"),
        ("var x; var y = x + 1", "unset"),
        ("var x = []; var y = x [0]", "out of range"),
        ("while 1 do 0 od", "out of steps"),
        ("fun f (n) { f (n) } f (1)", "too deep"),
        # An index wraps; a division by zero gives 0; integers wrap.
        ("var x = [1, 2]; x [5] := 3; var y = x [0 - 1] / 0 + 9223372036854775807 * 2", "done"),
        ('var s = "ab"; s [1] := 99; var n = s.length + s [3] + (fun () { 0 }).length', "done"),
    ],
)
def test_what_is_not_a_shape_fault_ends_the_run(source, ending):
    assert outcome(source) == ending


def test_a_case_with_no_matching_branch_is_typed_and_not_a_shape_fault():
    # The subject's type admits every pattern's constructor; no branch
    # need match (see `interp.py`).
    source = "var x = A (1); var y = case x of B (z) -> z esac"
    report = check_source(source)
    assert (report.verdict, report.render_bindings()[0]) == (TYPED, "x : A(Int) | B(a)")
    assert outcome(source) == "no match"


def _bench_cases():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import programs
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return [case for seed in (1, 2) for case in programs.straight_line_cases(seed) + programs.synth_mixed_cases(seed)]


def test_every_typed_program_runs_without_a_shape_fault():
    # The corpus, the goldens and the bench programs at seeds 1-2: each
    # one the checker calls Typed runs to its end.
    paths = [*sorted((ROOT / "corpus").glob("*.lama")), *sorted((ROOT / "tests" / "golden").glob("*.lama"))]
    sources = [path.read_text(encoding="utf-8") for path in paths] + [case.source for case in _bench_cases()]
    typed = [source for source in sources if check_source(source).verdict == TYPED]
    assert len(typed) == 4 + 1 + 18 + 36
    assert [outcome(source) for source in typed] == ["done"] * len(typed)


def test_every_ill_typed_bench_program_faults():
    # Each injected conflict, an index into an integer, is a real fault.
    ill = [case.source for case in _bench_cases() if case.verdict == ILL_TYPED]
    assert len(ill) == 12
    for source in ill:
        with pytest.raises(ShapeError, match="indexing a int"):
            outcome(source)


TOTAL = "fun total (xs) { case xs of Nil -> 0 | Cons (h, t) -> h + total (t) esac }\n"


@pytest.mark.parametrize(
    "source, ending",
    [
        # ROADMAP item 3: recursion. None is Typed today; none faults.
        ("fun f (n) { if n == 0 then 0 else f (n - 1) fi } var r = f (3)", "done"),
        (TOTAL + "var n = total (Cons (1, Nil))", "done"),
        (TOTAL + "var n = total (Nil)", "done"),
        ((ROOT / "corpus" / "self_array.lama").read_text(encoding="utf-8"), "too deep"),
        ("fun f (g) { g (g) } f (f)", "too deep"),
        ("var x = [fun () { x [1] () }, fun () { x [0] () }]; x [0] ()", "too deep"),
        (
            "fun fix (f) { fun (x) { f (fix (f)) (x) } }\n"
            "var fact = fix (fun (self) { fun (n) { if n == 0 then 1 else n * self (n - 1) fi } });\n"
            "var r = fact (5)",
            "done",
        ),
        # ROADMAP item 4: lists through a row tail. The first two are
        # IllTyped, the third Typed; all are shape-safe.
        ("var l = Cons (1, Nil); l := Cons (2, l)", "done"),
        ("var l = Cons (1, Nil); var m = Cons (2, l); l := m", "done"),
        ("var l = Nil; l := Cons (2, l)", "done"),
    ],
)
def test_the_recursion_and_list_programs_run_without_a_shape_fault(source, ending):
    assert outcome(source) == ending
