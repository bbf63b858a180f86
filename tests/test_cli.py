"""Command-line behavior: verdicts, exit codes, stats, corpus mode."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from shapecheck.checker import EXIT_CODES, CheckOptions, check_source
from shapecheck.cli import EXIT_CLOSED_OUTPUT, EXIT_IO_ERROR, EXIT_USAGE, main
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


@pytest.mark.parametrize(
    "source, message",
    [
        # `²` passes str.isdigit but int() cannot read it.
        ("var x = ²", "1:9: unexpected character '²'"),
        ("var x = 1²", "1:10: unexpected character '²'"),
        # More digits than int() converts by default.
        ("var x;\nx := " + "9" * 5000, "2:6: integer literal too long"),
    ],
)
def test_unreadable_integer_literal_is_malformed(write, source, message):
    code, out = run_cli("check", write("p.lama", source))
    assert (code, out.splitlines()) == (EXIT_CODES["Malformed"], ["Malformed", message])


def test_non_ascii_decimal_digits_are_an_integer(write):
    code, out = run_cli("check", write("p.lama", "var x = ٣ + 1"))
    assert (code, out.splitlines()) == (0, ["Typed", "x : Int"])


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
    # The fuel and unification counts pin the work of scanning the
    # subject's constructor row and of the labeling step that closes it.
    branches = " | ".join(f"C{i} (x) -> x" for i in range(12))
    path = write("p.lama", f"fun f (s) {{ case s of {branches} esac }} ;\nf (C3 (1))\n")
    code, out = run_cli("check", path, "--stats")
    lines = out.splitlines()
    assert (code, lines[0]) == (0, "Typed")
    stats = dict(ln.split("=", 1) for ln in lines if "=" in ln)
    assert (stats["fuel-used"], stats["engine-unifications"]) == ("70", "41")


FUEL_BURNERS = {
    # A recursive function over a list (ROADMAP item 2).
    "total": (
        "fun total (xs) { case xs of Nil -> 0 | Cons (h, t) -> h + total (t) esac }\n"
        "var n = total (Cons (1, Nil))\n",
        97,
    ),
    # An equality between two mu types (ROADMAP item 4).
    "mu-vs-mu": (
        "var x, y, z; fun f (p) { p [0] } fun g (q) { case q of A (r) -> r | _ -> q esac }\n"
        "z := case y of A (u) -> u | B (u, w) -> w | _ -> y esac; x := B (y, z); y := g (y); y := B (z, x);\n",
        98,
    ),
}


@pytest.mark.parametrize("name", sorted(FUEL_BURNERS))
def test_fuel_exhaustion_reports_one_step_count(write, name):
    # The fuel is checked before each forcing, and one forcing can take
    # several steps, so a run may pass its budget. The message and
    # `fuel-used` both give the steps taken.
    source, steps = FUEL_BURNERS[name]
    code, out = run_cli("check", write("p.lama", source), "--max-steps", "97", "--stats")
    lines = out.splitlines()
    assert (code, lines[:2]) == (2, ["Unknown", f"fuel exhausted after {steps} steps"])
    assert f"fuel-used={steps}" in lines


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


def _check_in_fresh_interpreter(path):
    """`shapecheck check` in a fresh interpreter, whose recursion limit no earlier run raised."""
    return subprocess.run(
        [sys.executable, "-m", "shapecheck", "check", str(path)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )


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
    proc = _check_in_fresh_interpreter(path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "Typed"


# Each statement declares a fresh variable, so the body's 3000
# constraints are distinct and none is dropped as a repeat.
_LONG_BODY = "\n".join(f"var v{i} = [x];" for i in range(1500))
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


def _array_chain(n):
    """v0 is an Int and each later v{i} the array of the one before: the
    type of v{n - 1} is nested n levels deep."""
    return "var v0 = 1;\n" + "\n".join(f"var v{i} = [v{i - 1}];" for i in range(1, n))


def _nested_array(depth):
    return "[" * depth + "Int" + "]" * depth


def test_instantiating_a_deep_type_checks_under_the_default_recursion_limit(tmp_path):
    # A call instantiates the 400-level result type of f.
    path = tmp_path / "p.lama"
    path.write_text(_array_chain(400) + "\nfun f (x) { v399 } var r = f (1);\n", encoding="utf-8")
    proc = _check_in_fresh_interpreter(path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "Typed"
    assert lines[1:] == [f"v{i} : {_nested_array(i)}" for i in range(400)] + [
        f"f : forall a. (a) -> {_nested_array(399)}",
        f"r : {_nested_array(399)}",
    ]


def test_reporting_a_deep_type_needs_no_deep_recursion(tmp_path):
    path = tmp_path / "p.lama"
    path.write_text(_array_chain(1200) + "\n", encoding="utf-8")
    proc = _check_in_fresh_interpreter(path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "Typed"
    assert len(lines) == 1201
    assert f"v1199 : {_nested_array(1199)}" in lines


def test_repeated_index_into_a_deep_instance_needs_no_deep_recursion(tmp_path):
    # Both `r [0]` index the same 1,200-level instance, a term that the
    # set of dispatched constraints hashes and compares as a key.
    path = tmp_path / "p.lama"
    path.write_text(_array_chain(1200) + "\nfun f (x) { v1199 } var r = f (1); var p = r [0]; var q = r [0];\n", encoding="utf-8")
    proc = _check_in_fresh_interpreter(path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "Typed"
    assert f"q : {_nested_array(1198)}" in lines


def _local_chain(name, first, n):
    """Declarations of a function body: {name}0 is first and each later
    {name}{i} the array of the one before, n levels in all."""
    return "; ".join([f"var {name}0 = {first}", *(f"var {name}{i} = [{name}{i - 1}]" for i in range(1, n))])


@pytest.mark.parametrize(
    "program, last",
    [
        # f's scheme keeps an Ind of a 1,500-level array of its parameter.
        (f"fun f (p) {{ {_local_chain('a', 'p', 1500)}; a1499 [0] }}\nvar r = f (1)\n", f"r : {_nested_array(1498)}"),
        # f's Eq of two 1,500-level arrays is split, level by level, down
        # to p and q before f is generalized.
        (
            f"fun f (p, q) {{ {_local_chain('a', 'p', 1500)}; {_local_chain('b', 'q', 1500)}; a1499 := b1499 }}\n"
            "var r = f (1, 2)\n",
            "r : Int",
        ),
    ],
    ids=["index", "assign"],
)
def test_generalizing_a_deep_type_needs_no_deep_recursion(tmp_path, program, last):
    # Generalizing hashes each constraint that moves into the scheme.
    path = tmp_path / "p.lama"
    path.write_text(program, encoding="utf-8")
    proc = _check_in_fresh_interpreter(path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "Typed"
    assert lines[-1] == last


def _top_chain(name, first, n):
    """Top-level declarations: {name}0, declared with first as its
    initializer (or none), and each later {name}{i} the array of the one
    before, n levels in all."""
    init = f" = {first}" if first is not None else ""
    return f"var {name}0{init};\n" + "\n".join(f"var {name}{i} = [{name}{i - 1}];" for i in range(1, n))


@pytest.mark.parametrize(
    "first, elem",
    [
        # Ground chains: the presolve binds both to the same shared terms.
        ((1, 2), "Int"),
        # Chains of free variables: the equality is split 1,500 levels down.
        ((None, None), "a"),
    ],
    ids=["ground", "free"],
)
def test_a_deep_top_level_array_equality_needs_no_deep_recursion(tmp_path, first, elem):
    path = tmp_path / "p.lama"
    path.write_text(f"{_top_chain('a', first[0], 1500)}\n{_top_chain('b', first[1], 1500)}\na1499 := b1499\n", encoding="utf-8")
    proc = _check_in_fresh_interpreter(path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "Typed"
    assert lines[-1] == f"b1499 : {'[' * 1499}{elem}{']' * 1499}"


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--max-answers", "0"),
        ("--max-answers", "-1"),
        ("--max-steps", "0"),
        ("--max-steps", "-5"),
        ("--max-constructors", "-1"),
        ("--max-steps", "many"),
    ],
)
@pytest.mark.parametrize("command", ["check", "corpus"])
def test_option_out_of_range_is_a_usage_error(write, capsys, command, flag, value):
    # Before this was a usage error, `--max-answers 0` printed IllTyped
    # for a well-typed program and `--max-steps -5` printed Unknown.
    path = write("p.lama", "var x = 1; x")
    target = path if command == "check" else str(Path(path).parent)
    with pytest.raises(SystemExit) as exc:
        main([command, target, flag, value])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage: shapecheck ")
    assert f"error: argument {flag}: " in err


def test_usage_error_code_is_no_verdict_code(capsys):
    assert EXIT_USAGE not in EXIT_CODES.values() and EXIT_USAGE != EXIT_IO_ERROR
    with pytest.raises(SystemExit) as exc:
        main(["check"])
    assert exc.value.code == EXIT_USAGE
    assert "required: file" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "corpus"])
def test_closed_stdout_exits_quietly_with_its_own_code(command):
    # Standard output is a pipe whose reading end is already closed, so
    # the first write fails, as in `shapecheck check FILE | head -1` once
    # head has exited.
    assert EXIT_CLOSED_OUTPUT not in EXIT_CODES.values()
    assert EXIT_CLOSED_OUTPUT not in (EXIT_IO_ERROR, EXIT_USAGE)
    target = "corpus/case_list.lama" if command == "check" else "corpus"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "shapecheck", command, target, "--emit-constraints", "--stats"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            cwd=SRC.parent,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (EXIT_CLOSED_OUTPUT, "")


def test_option_at_its_bound_is_accepted(write):
    path = write("p.lama", "var x = 1; x")
    code, out = run_cli("check", path, "--max-answers", "1", "--max-steps", "1000", "--max-constructors", "0")
    assert (code, out.splitlines()) == (0, ["Typed", "x : Int"])


@pytest.mark.parametrize(
    "options",
    [
        CheckOptions(max_answers=0),
        CheckOptions(max_answers=-1),
        CheckOptions(fuel=0),
        CheckOptions(fuel=-5),
        CheckOptions(max_constructors=-1),
    ],
)
def test_check_source_rejects_options_out_of_range(options):
    with pytest.raises(ValueError):
        check_source("var x = 1; x", options)


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
        pytest.param(*case, id=f"{case[0]}-{case[1]}")
        for case in [
            ("case_list", None, "Typed", 17, 24, 47),
            ("closure_chain", None, "Typed", 15, 16, 37),
            ("heterogeneous", None, "IllTyped", 1, 1, 1),
            ("sexp_assign", None, "Typed", 5, 6, 10),
            ("sort", None, "Typed", 7, 4, 11),
            ("self_array", 50_000, "Unknown", 5, 5, 14),
        ]
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


def test_golden_output_of_a_mixed_program():
    # A list (a `mu` type), a polymorphic call, an S-expression row and
    # array indexing in one program, so every constraint handler runs
    # under an exact golden: `tests/golden/mixed.lama` and its output.
    _, out = run_cli("check", "tests/golden/mixed.lama", "--emit-constraints", "--stats")
    with open("tests/golden/mixed.out", encoding="utf-8", newline="") as fh:
        assert out == fh.read()


def test_corpus_output_does_not_depend_on_the_hash_seed():
    # Constraint sets and the substitution a function's own equalities
    # solve keep insertion order, never hash order: each corpus program,
    # and the golden program with two polymorphic functions and a pattern
    # binder, prints the same bytes under two string-hash seeds.
    runs = []
    for seed in ("1", "2"):
        outs = []
        for path in [*sorted(Path("corpus").glob("*.lama")), Path("tests/golden/mixed.lama")]:
            proc = subprocess.run(
                [sys.executable, "-m", "shapecheck", "check", str(path), "--emit-constraints", "--stats"],
                capture_output=True,
                env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed),
            )
            outs.append((path.name, proc.returncode, proc.stdout, proc.stderr))
        runs.append(outs)
    assert runs[0] == runs[1]
    assert all(out and not err for _, _, out, err in runs[0])


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


def test_corpus_comparison_out_of_fuel_fails_by_name(write, tmp_path):
    # y is A((mu a. [a]), (mu b. [b])). Against the expected type, the
    # second pair of mu types unfolds into itself: met again, it counts
    # as equal, and the comparison needs no budget.
    write("a.lama", "var x; x := [x];\nvar z; z := [z];\nvar y = A (x, z)\n")
    write("a.expected", "Typed\ny : A(mu c. [c], mu c. [c])\n")
    code, out = run_cli("corpus", str(tmp_path))
    assert code == 0, out
    assert "a.lama: PASS (Typed)" in out


def test_corpus_expected_type_nested_too_deep_fails_by_name(write, tmp_path):
    write("a.lama", "var x = 1\n")
    write("a.expected", "Typed\nx : " + "[" * 3000 + "Int" + "]" * 3000 + "\n")
    code, out = run_cli("corpus", str(tmp_path))
    assert code == 1
    assert f"a.lama: FAIL (bad expected type for x: nesting deeper than {MAX_NESTING} levels" in out
    # The message quotes the text around the offset, not all of it.
    fail = next(line for line in out.splitlines() if line.startswith("a.lama: FAIL"))
    assert len(fail) < 200, fail


def test_corpus_reads_back_constructors_named_as_constraints(write, tmp_path):
    src = "var x = Call (1); var y = Nil; y := x\n"
    code, out = run_cli("check", write("p.lama", src))
    assert "x : Call(Int) | Nil" in out.splitlines()
    write("a.lama", src)
    write("a.expected", "Typed\nx : Call(Int) | Nil\n")
    code, out = run_cli("corpus", str(tmp_path))
    assert code == 0, out
    assert "a.lama: PASS (Typed)" in out


def test_shipped_corpus_passes():
    code, out = run_cli("corpus", "corpus")
    assert code == 0, out
    assert "checked=6 failed=0" in out
