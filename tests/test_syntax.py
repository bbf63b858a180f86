"""Source language: tokenizing, parsing, scope resolution."""

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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


def test_constructor_argument_lists_are_never_empty():
    with pytest.raises(ParseError, match="1:4: unexpected token '\\)'$"):
        parse_program("C ()")
    with pytest.raises(ParseError, match="1:14: unexpected token '\\)' in pattern$"):
        parse_program("case 1 of C () -> 1 esac")
    call = parse_program("var f;\nf ()").body.items[-1]
    assert isinstance(call, S.CallE) and call.args == []


def test_elif_links_count_as_nesting_levels():
    def chain(k):
        return "if 1 then 1\n" + "elif 1 then 1\n" * k + "fi"

    assert isinstance(first(parse_program(chain(S.MAX_NESTING - 4))), S.If)
    with pytest.raises(ParseError) as ei:
        parse_program(chain(S.MAX_NESTING - 3))
    # The then-block of the 61st link opens the 65th level.
    assert (ei.value.line, ei.value.col) == (62, 13)


def test_unterminated_block_comment():
    # Reported where the comment opens, past any newline inside it.
    for source, where in (("(* never closed\n1", (1, 1)), ("1;\n  (* never\n closed", (2, 3))):
        with pytest.raises(ParseError) as ei:
            parse_program(source)
        assert (ei.value.line, ei.value.col, ei.value.message) == (*where, "unterminated comment")


def test_multi_var_declaration_visible_later():
    prog = parse_program("var a = 1, b = 2;\na + b")
    e = prog.body.items[-1]
    assert isinstance(e, S.Binop)
    assert e.left.binder is not None and e.right.binder is not None
    assert e.left.binder != e.right.binder


# Binary operators and their levels, higher binding tighter.
LEVELS = {
    "==": 1, "!=": 1, "<": 1, "<=": 1, ">": 1, ">=": 1,
    "+": 2, "-": 2,
    "*": 3, "/": 3, "%": 3,
}


def _shape(e):
    """An expression tree as nested tuples, variables by name."""
    if isinstance(e, S.VarRef):
        return e.name
    if isinstance(e, S.Binop):
        return (e.op, _shape(e.left), _shape(e.right))
    if isinstance(e, S.Assign):
        return (":=", _shape(e.lhs), _shape(e.rhs))
    if isinstance(e, S.CallE):
        return ("call", _shape(e.fn), *map(_shape, e.args))
    if isinstance(e, S.Index):
        return ("index", _shape(e.subject), _shape(e.index))
    if isinstance(e, S.Length):
        return ("length", _shape(e.subject))
    raise AssertionError(f"unexpected node {e!r}")


def _parse_expr(text):
    return _shape(parse_program(f"var a, b, c, d;\n{text}").body.items[-1])


@pytest.mark.parametrize("op1", sorted(LEVELS))
def test_binary_operators_group_by_level_then_to_the_left(op1):
    for op2 in LEVELS:
        if LEVELS[op2] > LEVELS[op1]:
            expected = (op1, "a", (op2, "b", "c"))
        else:
            expected = (op2, (op1, "a", "b"), "c")
        assert _parse_expr(f"a {op1} b {op2} c") == expected, (op1, op2)


@pytest.mark.parametrize("op", sorted(LEVELS))
def test_assignment_is_loosest_and_postfix_binds_tightest(op):
    assert _parse_expr(f"a := b := c {op} d") == (":=", "a", (":=", "b", (op, "c", "d")))
    assert _parse_expr(f"a {op} b (c)") == (op, "a", ("call", "b", "c"))
    assert _parse_expr(f"a [b] {op} c") == (op, ("index", "a", "b"), "c")
    assert _parse_expr(f"a.length {op} b.length") == (op, ("length", "a"), ("length", "b"))
    with pytest.raises(ParseError, match="assignment target"):
        parse_program(f"var a, b, c;\na {op} b := c")


@pytest.mark.parametrize("src", ["var a, b, c;\na + b := c\n;c", "var a;\n1 := a + a + a"])
def test_bad_assignment_target_is_reported_at_the_target(src):
    with pytest.raises(ParseError, match="^2:1: assignment target must be a variable or an index$"):
        parse_program(src)


def test_error_in_assigned_value_wins_over_a_bad_target():
    with pytest.raises(ParseError, match="^2:9: unexpected token .eof.$"):
        parse_program("var a;\n1 := a +")


# ---------------------------------------------------------------------------
# Tokens and positions
# ---------------------------------------------------------------------------


def test_tokens_are_kind_value_line_col_tuples():
    assert S.tokenize("var x = 12;\n  Nil") == [
        ("var", "var", 1, 1), ("ident", "x", 1, 5), ("=", "=", 1, 7), ("int", 12, 1, 9),
        (";", ";", 1, 11), ("tag", "Nil", 2, 3), ("eof", None, 2, 6),
    ]


@pytest.mark.parametrize(
    "source, where",
    [
        ("(* long\n comment *) y", (2, 13)),
        ('var s = "a\nb"; y', (2, 5)),
        ("(* a (* b\n *) c\n*) y", (3, 4)),
        ('"x\n\ny" + y', (3, 6)),
    ],
)
def test_positions_count_newlines_inside_comments_and_strings(source, where):
    with pytest.raises(ResolveError) as ei:
        parse_program(source)
    assert (ei.value.name, ei.value.line, ei.value.col) == ("y", *where)


# The lexical alphabet: every character class the tokenizer tells apart,
# the two-character punctuators and comment marks, and a few words.
LEXICAL_PIECES = (
    list("abxyzABXYZ0123456789")
    + list(":=-<>!()[]{},;.+*/%|@_")
    + [":=", "->", "==", "!=", "<=", ">=", "--", "(*", "*)", '"', "\\", "#", " ", "  ", "\n"]
    + ["\u00b2", "\u0663", "\u00e9", "\xa0", "\t", "var", "fi", "box", "#str", "Cons"]
)


def _reference_tokens(src):
    return [(t.kind, t.value, t.line, t.col) for t in oracles.reference_tokenize(src)]


def _outcome(tokenize, src):
    try:
        return "tokens", tokenize(src)
    except ParseError as exc:
        return "error", (exc.line, exc.col, exc.message)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(LEXICAL_PIECES), max_size=40).map("".join))
def test_tokenizer_agrees_with_the_reference(src):
    try:
        expected = _outcome(_reference_tokens, src)
    except ValueError:  # a digit run int() cannot read
        with pytest.raises(ParseError, match="unexpected character|integer literal too long"):
            S.tokenize(src)
        return
    got = _outcome(S.tokenize, src)
    # A newline after the first string or block comment opens may fall
    # inside one, where the reference's positions go wrong.
    opens = [src.index(mark) for mark in ('"', "(*") if mark in src]
    if not opens or "\n" not in src[min(opens):]:
        assert got == expected
    elif got[0] == "tokens":
        assert expected[0] == "tokens"
        assert [t[:2] for t in got[1]] == [t[:2] for t in expected[1]]
    else:
        assert expected[0] == "error" and got[1][2] == expected[1][2]


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
        for f in n.__slots__:
            v = getattr(n, f)
            for item in v if isinstance(v, list) else [v]:
                if isinstance(item, S.Node):
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
    for f in node.__slots__ if isinstance(node, S.Node) else ():
        v = getattr(node, f)
        if isinstance(v, (S.Node, list, tuple)):
            _binders(v, out)
    return out


def _assert_resolves_as_reference(src):
    prog = parse_program(src)
    got = (_binders(prog.body), dict(prog.builtins))
    assert got[0], "the walk found no binder"
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
