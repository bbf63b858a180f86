"""Command-line behavior: verdicts, exit codes, stats, corpus mode."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from shapecheck import cli, types
from shapecheck.checker import EXIT_CODES
from shapecheck.cli import EXIT_IO_ERROR, main
from shapecheck.syntax import MAX_NESTING, ParseError, parse_program

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture
def write(tmp_path):
    def w(name, text):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return str(p)

    return w


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_typed_program(write):
    path = write("p.lama", "var x = 1;\nx + 1")
    code, out = run_cli("check", path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Typed"
    assert "x : Int" in lines


def test_check_ill_typed_program(write):
    path = write("p.lama", 'var a = [1, "2", 3];\nwrite (a[0])')
    code, out = run_cli("check", path)
    assert code == 1
    assert out.splitlines()[0] == "IllTyped"
    # A failing constraint is named.
    assert len(out.splitlines()) >= 2


def test_check_malformed_program(write):
    path = write("p.lama", "var = ;")
    code, out = run_cli("check", path)
    assert code == 3
    assert out.splitlines()[0] == "Malformed"


def test_check_unknown_on_tiny_budget(write):
    path = write("p.lama", "var x = [fun () { x [0] () }] ;\nx [0] ()")
    code, out = run_cli("check", path, "--max-steps", "2000")
    assert code == 2
    assert out.splitlines()[0] == "Unknown"


def test_check_unbound_name_is_malformed(write):
    path = write("p.lama", "y + 1")
    code, out = run_cli("check", path)
    assert code == 3


def test_stats_key_value_lines(write):
    path = write("p.lama", "1 + 2")
    code, out = run_cli("check", path, "--stats")
    assert code == 0
    stats = dict(
        ln.split("=", 1) for ln in out.splitlines() if "=" in ln and not ln.startswith(" ")
    )
    for key in (
        "constraints-generated",
        "constraints-dispatched",
        "engine-unifications",
        "answers-requested",
        "answers-found",
        "fuel-used",
    ):
        assert key in stats, key
        int(stats[key])  # numeric


def test_constructor_case_golden_counters(write):
    # Each constructor cell the solver scans records a disequality, so
    # the fuel and unification counts pin the disequality store's work.
    branches = " | ".join(f"C{i} (x) -> x" for i in range(12))
    path = write("p.lama", f"fun f (s) {{ case s of {branches} esac }} ;\nf (C3 (1))\n")
    code, out = run_cli("check", path, "--stats")
    lines = out.splitlines()
    assert (code, lines[0]) == (0, "Typed")
    stats = dict(ln.split("=", 1) for ln in lines if "=" in ln)
    assert (stats["fuel-used"], stats["engine-unifications"]) == ("9073", "2487")


def _nested_tags(k):
    return "var x;\nx := " + "A (" * k + "1" + ")" * k


def _nested_funs(k):
    return "fun f (x) { " * k + "x" + " }" * k + ";\nf (1)"


@pytest.mark.parametrize(
    "source, where",
    [
        # The 65th level opens at the 63rd `A (`, and at the 32nd `(`
        # (a parenthesized block and its expression are one level each).
        (_nested_tags(300), "2:192"),
        ("(" * 3000 + "1" + ")" * 3000, "1:33"),
    ],
)
def test_too_deep_nesting_is_malformed(write, source, where):
    code, out = run_cli("check", write("p.lama", source))
    assert code == EXIT_CODES["Malformed"]
    assert out.splitlines() == ["Malformed", f"{where}: nesting deeper than {MAX_NESTING} levels"]


@pytest.mark.parametrize(
    "build, k",
    [
        # Levels: the top block, the assignment, its right side, k tags.
        (_nested_tags, MAX_NESTING - 3),
        # Levels: the top block, k function bodies, the innermost expression.
        (_nested_funs, MAX_NESTING - 2),
    ],
)
def test_program_at_the_nesting_bound_still_checks(tmp_path, build, k):
    with pytest.raises(ParseError):
        parse_program(build(k + 1))
    path = tmp_path / "p.lama"
    path.write_text(build(k), encoding="utf-8")
    # A fresh interpreter, whose recursion limit no earlier run raised.
    proc = subprocess.run(
        [sys.executable, "-m", "shapecheck", "check", str(path)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "Typed"


_LONG_BODY = "\n".join(f"x := x + {i};" for i in range(1500))
LONG_PROGRAMS = (
    "\n".join(f"var v{i} = {i};" for i in range(3000)) + "\nv0",
    f"fun f (y) {{ var x = y;\n{_LONG_BODY}\nx }} ;\nf (1)",
    "\n".join(f"fun f{i} (x) {{ x + {i} }}" for i in range(2000)) + "\nf0 (1)",
    f"fun outer (z) {{ fun f (y) {{ var x = y;\n{_LONG_BODY}\nx }} ;\nf }} ;\nouter (1) (2)",
)


def test_long_programs_check_under_the_default_recursion_limit():
    # A fresh interpreter: each program reaches its verdict with Python's
    # default recursion limit, and checking leaves that limit as it was.
    code = (
        "import sys\n"
        "from shapecheck.checker import check_source\n"
        "limit = sys.getrecursionlimit()\n"
        "for src in sys.stdin.read().split('\\0'):\n"
        "    print(check_source(src).verdict)\n"
        "print(sys.getrecursionlimit() == limit)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        input="\0".join(LONG_PROGRAMS),
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["Typed"] * len(LONG_PROGRAMS) + ["True"]


def test_check_missing_file_is_an_io_error(tmp_path, capsys):
    missing = tmp_path / "missing.lama"
    code, out = run_cli("check", str(missing))
    assert code == EXIT_IO_ERROR
    assert code not in EXIT_CODES.values()
    assert out == ""
    err = capsys.readouterr().err
    assert err == f"shapecheck: cannot read {missing}: No such file or directory\n"


def test_check_directory_is_an_io_error(tmp_path, capsys):
    code, out = run_cli("check", str(tmp_path))
    assert code == EXIT_IO_ERROR
    err = capsys.readouterr().err
    assert err == f"shapecheck: cannot read {tmp_path}: Is a directory\n"


NOT_UTF8 = b"x\xff\xfe"
NOT_UTF8_REASON = "not UTF-8: invalid start byte at offset 1"


def test_check_non_utf8_file_is_an_io_error(tmp_path, capsys):
    path = tmp_path / "p.lama"
    path.write_bytes(NOT_UTF8)
    code, out = run_cli("check", str(path))
    assert code == EXIT_IO_ERROR
    assert out == ""
    assert capsys.readouterr().err == f"shapecheck: cannot read {path}: {NOT_UTF8_REASON}\n"


@pytest.mark.parametrize(
    "program, steps, verdict, dispatched, unifications, fuel",
    [
        ("case_list", None, "Typed", 37, 230, 659),
        ("closure_chain", None, "Typed", 22, 64, 123),
        ("heterogeneous", None, "IllTyped", 2, 2, 5),
        ("sexp_assign", None, "Typed", 5, 37, 108),
        ("sort", None, "Typed", 59, 39, 163),
        ("self_array", 50_000, "Unknown", 9094, 27273, 50000),
    ],
)
def test_corpus_golden_counters(program, steps, verdict, dispatched, unifications, fuel):
    # The counters follow the solver's pick order exactly; a change of
    # order moves them even where the verdict stays.
    argv = ["check", f"corpus/{program}.lama", "--stats"]
    if steps is not None:
        argv += ["--max-steps", str(steps)]
    code, out = run_cli(*argv)
    lines = out.splitlines()
    assert lines[0] == verdict
    stats = dict(ln.split("=", 1) for ln in lines if "=" in ln)
    got = (stats["constraints-dispatched"], stats["engine-unifications"], stats["fuel-used"])
    assert got == (str(dispatched), str(unifications), str(fuel))


@pytest.mark.parametrize(
    "program, steps",
    [
        ("case_list", None),
        ("closure_chain", None),
        ("heterogeneous", None),
        ("self_array", 50_000),
        ("sexp_assign", None),
        ("sort", None),
    ],
)
def test_corpus_golden_output(program, steps):
    # The exact text of `check --emit-constraints --stats`, rendered
    # constraints and types included, as stored in tests/golden/.
    argv = ["check", f"corpus/{program}.lama", "--emit-constraints", "--stats"]
    if steps is not None:
        argv += ["--max-steps", str(steps)]
    _, out = run_cli(*argv)
    with open(f"tests/golden/{program}.out", encoding="utf-8", newline="") as fh:
        assert out == fh.read()


def test_emit_constraints(write):
    path = write("p.lama", "var a = [1];\na [0]")
    code, out = run_cli("check", path, "--emit-constraints")
    assert code == 0
    assert any(ln.startswith("constraint: ") for ln in out.splitlines())
    assert any("Ind(" in ln for ln in out.splitlines())


def test_no_prune_flag_still_finds_ground_answer(write):
    path = write("p.lama", "var x = 1;\nx + 1")
    code, out = run_cli("check", path, "--no-prune")
    assert code == 0
    assert out.splitlines()[0] == "Typed"


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


def test_corpus_empty_dir(tmp_path):
    code, out = run_cli("corpus", str(tmp_path))
    assert code == 0
    assert out.strip() == "checked=0 failed=0"


def test_corpus_missing_dir_is_an_io_error(tmp_path, capsys):
    missing = tmp_path / "nonexistent_dir"
    code, out = run_cli("corpus", str(missing))
    assert code == EXIT_IO_ERROR
    assert out == ""
    err = capsys.readouterr().err
    assert err == f"shapecheck: cannot read {missing}: No such file or directory\n"


def test_corpus_non_utf8_program_is_an_io_error(write, tmp_path, capsys):
    path = tmp_path / "a.lama"
    path.write_bytes(NOT_UTF8)
    write("a.expected", "Typed\n")
    code, out = run_cli("corpus", str(tmp_path))
    assert code == EXIT_IO_ERROR
    assert out == ""
    assert capsys.readouterr().err == f"shapecheck: cannot read {path}: {NOT_UTF8_REASON}\n"


def test_corpus_skips_missing_expectation(write, tmp_path):
    write("a.lama", "1")
    code, out = run_cli("corpus", str(tmp_path))
    assert code == 0
    assert "a.lama: SKIP" in out
    assert "checked=0 failed=0" in out


def test_corpus_skips_bad_expectation(write, tmp_path):
    write("a.lama", "1")
    write("a.expected", "NotAVerdict")
    code, out = run_cli("corpus", str(tmp_path))
    assert code == 0
    assert "a.lama: SKIP" in out


def test_corpus_pass_and_fail(write, tmp_path):
    write("good.lama", "var x = 1;\nx")
    write("good.expected", "Typed\nx : Int\n")
    write("bad.lama", "var x = 1;\nx")
    write("bad.expected", "IllTyped\n")
    code, out = run_cli("corpus", str(tmp_path))
    assert code == 1
    assert "good.lama: PASS (Typed)" in out
    assert "bad.lama: FAIL" in out
    assert "checked=2 failed=1" in out


def test_corpus_type_mismatch_fails(write, tmp_path):
    write("a.lama", "var x = 1;\nx")
    write("a.expected", "Typed\nx : Str\n")
    code, out = run_cli("corpus", str(tmp_path))
    assert code == 1
    assert "a.lama: FAIL" in out


def test_corpus_type_compared_modulo_unfolding(write, tmp_path):
    import pathlib

    # The checker reports the list type in unfolded form; folded and
    # unfolded expectations must both be accepted.
    src = pathlib.Path("corpus/case_list.lama").read_text(encoding="utf-8")
    write("a.lama", src)
    write("a.expected", "Typed\ny : mu a. Nil | Cons(Int, a)\n")
    write("b.lama", src)
    write("b.expected", "Typed\ny : Nil | Cons(Int, (mu a. Nil | Cons(Int, a)))\n")
    code, out = run_cli("corpus", str(tmp_path))
    assert code == 0, out
    assert "a.lama: PASS (Typed)" in out
    assert "b.lama: PASS (Typed)" in out


def test_corpus_comparison_out_of_fuel_fails_by_name(write, tmp_path, monkeypatch):
    import pathlib

    # An undecided comparison is a failure that says so, not a mismatch.
    monkeypatch.setattr(cli, "types_equal", lambda a, b: types.types_equal(a, b, fuel=3))
    write("a.lama", pathlib.Path("corpus/case_list.lama").read_text(encoding="utf-8"))
    write("a.expected", "Typed\ny : mu a. Nil | Cons(Int, a)\n")
    code, out = run_cli("corpus", str(tmp_path))
    assert code == 1
    assert "a.lama: FAIL (y: type comparison ran out of budget)" in out


def test_shipped_corpus_passes():
    code, out = run_cli("corpus", "corpus")
    assert code == 0, out
    assert "checked=6 failed=0" in out
