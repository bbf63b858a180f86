"""Source language: tokenizing, parsing, scope resolution."""

import sys
from pathlib import Path

import pytest

import oracles
from shapecheck import syntax as S
from shapecheck.syntax import ParseError, ResolveError, parse_program

BENCH = Path(__file__).resolve().parent.parent / "bench"


def first(prog):
    return prog.body.items[0]


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def test_int_literal():
    assert isinstance(first(parse_program("42")), S.IntLit)


def test_string_literal_with_escapes():
    e = first(parse_program('"a\\"b\\\\c"'))
    assert isinstance(e, S.StrLit)
    assert e.value == 'a"b\\c'


def test_index_then_call_shape():
    # x [0] ()  parses as a call whose callee is an index expression.
    prog = parse_program("var x = [fun () { 1 }] ;\nx [0] ()")
    call = prog.body.items[1]
    assert isinstance(call, S.CallE)
    assert call.args == []
    assert isinstance(call.fn, S.Index)
    assert isinstance(call.fn.subject, S.VarRef) and call.fn.subject.name == "x"


def test_call_with_args_and_nesting():
    prog = parse_program("fun f (a, b) { a } ;\nf (1, f (2, 3))")
    call = prog.body.items[1]
    assert isinstance(call, S.CallE)
    assert len(call.args) == 2
    assert isinstance(call.args[1], S.CallE)


def test_operator_precedence():
    e = first(parse_program("1 + 2 * 3 == 7"))
    assert isinstance(e, S.Binop) and e.op == "=="
    lhs = e.left
    assert isinstance(lhs, S.Binop) and lhs.op == "+"
    assert isinstance(lhs.right, S.Binop) and lhs.right.op == "*"


def test_assignment_is_right_associative_and_loosest():
    prog = parse_program("var x = 0; var y = 0;\nx := y := 1 + 2")
    e = prog.body.items[2]
    assert isinstance(e, S.Assign)
    assert isinstance(e.rhs, S.Assign)
    assert isinstance(e.rhs.rhs, S.Binop)


def test_array_and_sexp_literals():
    prog = parse_program('var a = [1, "x"]; var s = Cons (1, Nil);\ns')
    a, s = prog.body.items[0], prog.body.items[1]
    assert isinstance(a.init, S.ArrayLit) and len(a.init.elems) == 2
    assert isinstance(s.init, S.SexpLit) and s.init.label == "Cons" and len(s.init.args) == 2
    assert isinstance(s.init.args[1], S.SexpLit) and s.init.args[1].args == []


def test_length_postfix():
    prog = parse_program("var a = [1];\na.length")
    e = prog.body.items[1]
    assert isinstance(e, S.Length)


def test_if_elif_else():
    e = first(parse_program("if 1 then 2 elif 3 then 4 else 5 fi"))
    assert isinstance(e, S.If)
    assert isinstance(e.orelse, S.If)
    assert isinstance(e.orelse.orelse, S.Scope)
    assert isinstance(e.orelse.orelse.items[0], S.IntLit)


def test_if_without_else():
    e = first(parse_program("if 1 then 2 fi"))
    assert isinstance(e, S.If) and e.orelse is None


def test_while_and_for():
    prog = parse_program("var i = 0;\nwhile i < 3 do i := i + 1 od;\nfor i := 0, i < 3, i := i + 1 do 0 od")
    w, f = prog.body.items[1], prog.body.items[2]
    assert isinstance(w, S.While)
    assert isinstance(f, S.For)


def test_case_with_patterns():
    src = """
    fun size (s) {
      case s of
        Nil        -> 0
      | Cons (_, t) -> 1 + size (t)
      esac
    } ;
    size (Nil)
    """
    prog = parse_program(src)
    fd = prog.body.items[0]
    assert isinstance(fd, S.FunDecl)
    case = fd.fun.body
    while not isinstance(case, S.Case):
        case = case.items[0]
    assert len(case.branches) == 2
    (p1, _), (p2, _) = case.branches
    assert isinstance(p1, S.PSexp) and p1.label == "Nil" and p1.args == []
    assert isinstance(p2, S.PSexp) and p2.label == "Cons"
    assert isinstance(p2.args[0], S.PWild)
    assert isinstance(p2.args[1], S.PBind)


def test_shape_and_at_patterns():
    src = """
    var x = 1;
    case x of
      #box          -> 0
    | y @ #str      -> 1
    | [a, _]        -> 2
    | 7             -> 3
    | _             -> 4
    esac
    """
    prog = parse_program(src)
    case = prog.body.items[1]
    pats = [p for p, _ in case.branches]
    assert isinstance(pats[0], S.PShape) and pats[0].kind == "box"
    assert isinstance(pats[1], S.PAt) and isinstance(pats[1].pat, S.PShape) and pats[1].pat.kind == "str"
    assert isinstance(pats[2], S.PArray) and len(pats[2].elems) == 2
    assert isinstance(pats[3], S.PInt)
    assert isinstance(pats[4], S.PWild)


def test_string_pattern_rejected():
    with pytest.raises(ParseError):
        parse_program('case 1 of "s" -> 0 esac')


def test_comments_both_kinds():
    prog = parse_program("-- line comment\n(* block (* nests *) comment *) 1; 2")
    assert len(prog.body.items) == 2


def test_unterminated_block_comment():
    with pytest.raises(ParseError):
        parse_program("(* never closed\n1")


def test_multi_var_declaration_visible_later():
    prog = parse_program("var a = 1, b = 2;\na + b")
    e = prog.body.items[-1]
    assert isinstance(e, S.Binop)
    assert e.left.binder is not None and e.right.binder is not None
    assert e.left.binder != e.right.binder


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as ei:
        parse_program("var = 3")
    assert ei.value.line >= 1


def test_unbound_variable_is_resolve_error():
    with pytest.raises(ResolveError) as ei:
        parse_program("x + 1")
    assert ei.value.name == "x"


def test_unterminated_string():
    with pytest.raises(ParseError):
        parse_program('"abc')


def test_missing_esac():
    with pytest.raises(ParseError):
        parse_program("case 1 of _ -> 2")


# ---------------------------------------------------------------------------
# Scope resolution
# ---------------------------------------------------------------------------


def test_builtins_are_predeclared():
    prog = parse_program("write (read ())")
    call = prog.body.items[0]
    assert isinstance(call.fn, S.VarRef) and call.fn.binder in prog.builtins.values()


def test_var_visible_in_own_initializer():
    prog = parse_program("var x = [fun () { x [0] () }] ;\nx [0] ()")
    decl = prog.body.items[0]
    # Every x inside the initializer refers to the declaration itself.
    refs = []

    def walk(n):
        if isinstance(n, S.VarRef):
            refs.append(n)
        for f in getattr(n, "__dataclass_fields__", {}):
            v = getattr(n, f)
            for item in v if isinstance(v, list) else [v]:
                if isinstance(item, S.Node) or isinstance(item, S.Scope):
                    walk(item)

    walk(decl.init)
    assert refs and all(r.binder == decl.binder for r in refs if r.name == "x")


def test_fun_visible_in_own_body():
    prog = parse_program("fun f (n) { f (n) } ;\nf (1)")
    assert isinstance(prog.body.items[0], S.FunDecl)


def test_case_binders_are_per_branch():
    src = """
    case 1 of
      a -> a
    | a -> a + 1
    esac
    """
    prog = parse_program(src)
    case = prog.body.items[0]
    (p1, b1), (p2, b2) = case.branches
    assert p1.binder != p2.binder


def test_shadowing_inner_scope():
    prog = parse_program("var x = 1;\nvar y = { var x = 2; x };\nx")
    outer = prog.body.items[0]
    last = prog.body.items[-1]
    assert isinstance(last, S.VarRef) and last.binder == outer.binder


def test_parse_error_wins_over_an_earlier_unbound_name():
    with pytest.raises(ParseError):
        parse_program("y + 1;\nvar = 3")


def test_first_unbound_name_is_reported():
    with pytest.raises(ResolveError) as ei:
        parse_program("x + y")
    assert (ei.value.name, ei.value.line, ei.value.col) == ("x", 1, 1)


# ---------------------------------------------------------------------------
# The parser's resolution against the reference walk
# ---------------------------------------------------------------------------


def _binders(node, out=None) -> list:
    """Every binder id in the tree, in field order, with its node kind and
    name: references, declarations, parameters and pattern binders."""
    out = [] if out is None else out
    if isinstance(node, (list, tuple)):
        for x in node:
            _binders(x, out)
        return out
    if isinstance(node, S.FunLit):
        out += [("param", name, b) for name, b in node.params]
    elif hasattr(node, "binder"):
        out.append((type(node).__name__, node.name, node.binder))
    for f in getattr(node, "__dataclass_fields__", {}):
        v = getattr(node, f)
        if isinstance(v, (S.Node, list, tuple)):
            _binders(v, out)
    return out


def _assert_resolves_as_reference(src):
    prog = parse_program(src)
    got = (_binders(prog.body), dict(prog.builtins))
    oracles.resolve_scopes(prog)
    assert got == (_binders(prog.body), prog.builtins)


HAND_WRITTEN = {
    "shadowing": "var x = 1;\nvar y = { var x = x + 2; x };\n{ var y = x; y } + y",
    "var in its own initializer": "var x = [fun () { x [0] () }] ;\nx [0] ()",
    "recursive fun": "fun f (n) { if n then f (n - 1) else 0 fi } ;\nf (3)",
    "per-branch case binders": (
        "var s = Cons (1, Nil), h = 0, a = 0;\n"
        "case s of Cons (h, t @ Cons (_, _)) -> h | Cons (h, t) -> t | a -> a | [b, c] -> a + b esac;\n"
        "h + a"
    ),
    "multi-var": "var a = 1, b = a, c;\nc := a + b",
    "nested functions": (
        "fun outer (x, y) { fun inner (y) { fun (x) { x + y } } ;\n"
        "var g = inner (x); g (y) } ;\nouter (1, 2) + write (read ())"
    ),
    "builtins shadowed": "var read = 1;\nfun write (write) { write } ;\nwrite (read)",
    "loops": "var i = 0;\nfor i := 0, i < 3, i := i + 1 do var j = i; j od;\nwhile i do var i = 0; i od",
}


@pytest.mark.parametrize("name", sorted(HAND_WRITTEN))
def test_binders_match_the_reference_on_hand_written_cases(name):
    _assert_resolves_as_reference(HAND_WRITTEN[name])


def test_binders_match_the_reference_on_the_corpus():
    paths = sorted(Path("corpus").glob("*.lama"))
    assert paths
    for path in paths:
        _assert_resolves_as_reference(path.read_text(encoding="utf-8"))


def test_binders_match_the_reference_on_bench_programs():
    sys.path.insert(0, str(BENCH))
    try:
        import programs
    finally:
        sys.path.remove(str(BENCH))
    for seed in (1, 2, 3):
        for case in programs.straight_line_cases(seed) + programs.synth_mixed_cases(seed):
            _assert_resolves_as_reference(case.source)
