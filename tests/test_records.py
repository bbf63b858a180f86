"""The public records (`CheckOptions`, `Report`) and what importing the
package loads."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from shapecheck import DEFAULT_FUEL, CheckOptions, Report, syntax as S

SRC = Path(__file__).resolve().parent.parent / "src"


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


def test_check_options_defaults():
    opts = CheckOptions()
    got = (opts.fuel, opts.max_answers, opts.max_constructors, opts.prune, opts.emit_constraints)
    assert got == (DEFAULT_FUEL, 1, None, True, False)


def test_check_options_by_position_and_by_keyword():
    assert CheckOptions(5, 2, 0, False, True) == CheckOptions(
        fuel=5, max_answers=2, max_constructors=0, prune=False, emit_constraints=True
    )
    assert CheckOptions(fuel=5) != CheckOptions(fuel=6)
    with pytest.raises(TypeError):
        CheckOptions(steps=5)


@pytest.mark.parametrize(
    "changes, error",
    [
        ({"fuel": 0}, "fuel must be at least 1, not 0"),
        ({"max_answers": -1}, "max_answers must be at least 1, not -1"),
        ({"max_constructors": -1}, "max_constructors must be at least 0, not -1"),
        ({"fuel": 0, "max_answers": 0}, "fuel must be at least 1, not 0"),
    ],
)
def test_check_options_validate_names_the_first_option_out_of_range(changes, error):
    with pytest.raises(ValueError, match=f"^{error}$"):
        CheckOptions(**changes).validate()


def test_check_options_at_their_bounds_are_valid():
    CheckOptions(fuel=1, max_answers=1, max_constructors=0).validate()


def test_check_options_repr_names_every_field():
    assert repr(CheckOptions(fuel=7)) == (
        "CheckOptions(fuel=7, max_answers=1, max_constructors=None, prune=True, emit_constraints=False)"
    )


def test_report_defaults_are_fresh_per_instance():
    a, b = Report("Typed"), Report("Typed")
    assert (a.bindings, a.table, a.message, a.stats, a.constraints_rendered) == ([], None, "", {}, [])
    assert a.bindings is not b.bindings
    assert a.stats is not b.stats
    assert a.constraints_rendered is not b.constraints_rendered
    a.bindings.append(("x", None))
    assert b.bindings == []


def test_report_equality_and_repr():
    assert Report("Typed") == Report("Typed", [], None, "", {}, [])
    assert Report("Typed") != Report("IllTyped")
    assert Report("Unknown", message="m") != Report("Unknown", message="n")
    assert repr(Report("IllTyped", message="m")) == (
        "Report(verdict='IllTyped', bindings=[], table=None, message='m', stats={}, constraints_rendered=[])"
    )


def test_records_are_unhashable_and_equal_only_within_their_class():
    for record in (CheckOptions(), Report("Typed"), S.IntLit(1), S.PWild()):
        with pytest.raises(TypeError):
            hash(record)
    assert S.IntLit(1) == S.IntLit(1)
    assert S.IntLit(1) != S.PInt(1)
    assert S.PWild() == S.PWild()
    assert S.VarRef("x") == S.VarRef("x", 0, 0, -1)
    assert repr(S.VarRef("x", 1, 2, 3)) == "VarRef(name='x', line=1, col=2, binder=3)"


def test_records_take_no_undeclared_attribute():
    with pytest.raises(AttributeError):
        S.IntLit(1).type = None


# ---------------------------------------------------------------------------
# What importing the package loads
# ---------------------------------------------------------------------------


def _modules_after(statement: str) -> set:
    """The modules a fresh interpreter has loaded after `statement`."""
    code = f"import sys\n{statement}\nprint(' '.join(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=SRC.parent,
        check=True,
    )
    return set(proc.stdout.split())


def test_importing_the_package_loads_no_dataclasses_inspect_or_argparse():
    assert not {"dataclasses", "inspect", "argparse"} & _modules_after("import shapecheck")


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    loaded = _modules_after("import shapecheck.cli")
    assert "argparse" in loaded
    assert not {"dataclasses", "inspect"} & loaded


def test_main_is_still_an_attribute_of_the_package():
    import shapecheck
    from shapecheck.cli import main

    assert shapecheck.main is main
    assert "main" in shapecheck.__all__
    with pytest.raises(AttributeError):
        shapecheck.no_such_name


def test_module_help_exits_zero():
    proc = subprocess.run(
        [sys.executable, "-m", "shapecheck", "--help"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=SRC.parent,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage:")


IMPORTS_DATACLASSES = re.compile(r"^\s*(import|from)\s+dataclasses\b", re.M)


def test_no_source_module_imports_dataclasses():
    paths = sorted((SRC / "shapecheck").glob("*.py"))
    assert paths
    for path in paths:
        assert not IMPORTS_DATACLASSES.search(path.read_text(encoding="utf-8")), path.name


def _unused_definitions(package: Path) -> list:
    """The top-level functions and classes of the package's modules that
    no other top-level statement of the package names (as a name, an
    attribute or an import); dunders are not counted."""
    statements = [
        (path.name, stmt)
        for path in sorted(package.glob("*.py"))
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    named = [
        {n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.name
         for n in ast.walk(stmt) if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}
        for _, stmt in statements
    ]
    unused = []
    for i, (module, stmt) in enumerate(statements):
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        dunder = stmt.name.startswith("__") and stmt.name.endswith("__")
        if not dunder and not any(stmt.name in names for j, names in enumerate(named) if j != i):
            unused.append(f"{module}:{stmt.name}")
    return unused


def test_every_top_level_definition_is_used_in_the_package():
    # A helper only tests use belongs with the tests (`tests/oracles.py`).
    assert _unused_definitions(SRC / "shapecheck") == []
