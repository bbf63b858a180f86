"""Constraint extraction from resolved programs."""

import inspect
import re
import sys
from pathlib import Path

from shapecheck import gen as G
from shapecheck.checker import ILL_TYPED, TYPED, CheckOptions, check_source
from shapecheck.engine import Compound, Var
from shapecheck.gen import infer_program
from shapecheck.syntax import parse_program
from shapecheck.types import (
    LNIL,
    T_INT,
    T_STR,
    TagTable,
    _list_from_term,
    c_eq,
    c_ind,
    pretty_type,
    t_array,
    t_name,
    types_equal,
)

from oracles import canonicalize, reference_generalize, reference_presolving_generalize
from test_solver import LOOP_PROGRAMS

ROOT = Path(__file__).resolve().parent.parent


def gen(src):
    return infer_program(parse_program(src))


def of_kind(g, tag):
    return [c for c in g.constraints if c.tag == tag]


def items(lst):
    return _list_from_term(lst)[0]


def root_type(g, name):
    for n, ty in g.roots:
        if n == name:
            return ty
    raise KeyError(name)


def declared_arrow(g, name):
    # A declaration's root type is a linkage variable; the generalized
    # arrow sits on the other side of its equality constraint.
    var = root_type(g, name)
    for c in of_kind(g, "Eq"):
        left, right = c.args
        if left == var and isinstance(right, Compound) and right.tag == "TArrow":
            return right
    raise KeyError(name)


# ---------------------------------------------------------------------------
# Per-form constraints
# ---------------------------------------------------------------------------


def test_int_literal_generates_nothing():
    assert gen("42").constraints == []


def test_array_literal_equates_elements():
    g = gen('var s;\n[s, "b"]')
    eqs = of_kind(g, "Eq")
    assert len(eqs) == 2
    elem = eqs[0].args[1]
    assert [c.args for c in eqs] == [(root_type(g, "s"), elem), (T_STR, elem)]


def test_sexp_literal_emits_membership():
    g = gen("A (1)")
    cs = of_kind(g, "SexpC")
    assert len(cs) == 1
    tag, _, args = cs[0].args
    assert (g.table.label(tag), g.table.arity(tag)) == ("A", 1)
    assert items(args) == [T_INT]


def test_two_assignments_accumulate_on_one_variable():
    # Both constructor memberships constrain the same subject variable.
    g = gen('var x = A (42);\nx := B ("s")')
    cs = of_kind(g, "SexpC")
    assert len(cs) == 2
    # x's type variable appears via Eq links; solving must merge them.
    labels = sorted(g.table.label(c.args[0]) for c in cs)
    assert labels == ["A", "B"]


def test_indexing_emits_ind_and_int_index():
    g = gen("var a = [1];\na [0]")
    inds = of_kind(g, "Ind")
    assert len(inds) == 1
    # The index expression itself is pinned to Int.
    assert any(T_INT in c.args for c in of_kind(g, "Eq"))


def test_call_emits_call_constraint():
    g = gen("fun f (x) { x } ;\nf (1)")
    calls = of_kind(g, "Call")
    assert len(calls) == 1
    assert len(items(calls[0].args[1])) == 1


def test_length_emits_box_match():
    g = gen("var a = [1];\na.length")
    ms = of_kind(g, "Match")
    assert len(ms) == 1
    (p,) = items(ms[0].args[1])
    assert p.tag == "PShape" and p.args == ("box",)


def test_case_emits_match_and_branch_equations():
    g = gen(
        """
        var s = A (1);
        case s of
          A (n) -> n
        | _     -> 0
        esac
        """
    )
    ms = of_kind(g, "Match")
    assert len(ms) == 1
    assert len(items(ms[0].args[1])) == 2


def test_binop_pins_operands_to_int():
    g = gen("var a, b;\na + b")
    assert g.constraints == [c_eq(root_type(g, "a"), T_INT), c_eq(root_type(g, "b"), T_INT)]


# ---------------------------------------------------------------------------
# Constraint sets
# ---------------------------------------------------------------------------


def test_a_repeated_constraint_is_emitted_once_in_first_occurrence_order():
    g = gen("var x, y;\nx := y + 1;\nx := y + 1")
    # Each statement emits Eq(y, Int) and Eq(x, Int).
    assert g.constraints == [c_eq(root_type(g, "y"), T_INT), c_eq(root_type(g, "x"), T_INT)]


def test_an_equality_of_one_term_with_itself_is_not_emitted():
    # `1 + 1` equates the one Int object with itself twice; `x := x`
    # equates x's variable with itself.
    g = gen("var x;\nx := 1 + 1;\nx := x")
    assert g.constraints == [c_eq(root_type(g, "x"), T_INT)]


def test_a_function_residual_equal_to_an_outer_constraint_is_emitted_once():
    # f's body quantifies nothing, so its constraints join the top level,
    # which already has them (first program) or gets them again later
    # (second program).
    for src in (
        "var y;\ny := y + 1;\nfun f () { y := y + 1 } ;\nf ()",
        "var y;\nfun f () { y := y + 1 } ;\ny := y + 1;\nf ()",
    ):
        g = gen(src)
        y, f = root_type(g, "y"), root_type(g, "f")
        arrow = declared_arrow(g, "f")
        assert arrow.args[1] == LNIL
        assert g.constraints[:2] == [c_eq(y, T_INT), c_eq(f, arrow)]
        assert [c.tag for c in g.constraints[2:]] == ["Call"]


# ---------------------------------------------------------------------------
# Generalization
# ---------------------------------------------------------------------------


def test_identity_function_generalizes():
    g = gen("fun id (x) { x } ;\nid")
    ty = canonicalize(declared_arrow(g, "id"))
    assert pretty_type(ty, g.table) == "forall a. (a) -> a"


def test_indexing_function_keeps_constraint_in_arrow():
    g = gen("fun get (a) { a [0] } ;\nget")
    ty = declared_arrow(g, "get")
    assert ty.tag == "TArrow"
    assert pretty_type(canonicalize(ty), g.table) == "forall a b. Ind(a, b) => (a) -> b"


def test_monomorphic_parameterless_body_not_quantified():
    g = gen("fun one () { 1 } ;\none")
    ty = canonicalize(declared_arrow(g, "one"))
    assert pretty_type(ty, g.table) == "() -> Int"


def test_generalization_skips_environment_variables():
    # y is bound outside f, so f's arrow may not quantify y's variable.
    g = gen("var y = [1];\nfun f (i) { y [i] } ;\nf")
    ty = declared_arrow(g, "f")
    assert ty.tag == "TArrow"
    # The container variable stays free (referenced, not bound).
    free_vars = _free_tyvars(ty)
    assert free_vars, "expected f's type to mention the outer variable"


def _free_tyvars(t):
    if isinstance(t, Var):
        return {t}
    if isinstance(t, Compound):
        return set().union(*map(_free_tyvars, t.args))
    return set()


def test_long_inner_function_generalizes_in_little_stack():
    # The inner arrow's constraint list is an engine list as long as its
    # body; the outer generalization walks it without a frame per item.
    # Each statement indexes into a fresh element variable, so no two
    # constraints are equal.
    body = "\n".join(f"var v{i} = x [{i}];" for i in range(1500))
    g_src = f"fun outer (z) {{ fun f (y) {{ var x = y;\n{body}\nx }} ;\nf (z) }} ;\nouter"
    prog = parse_program(g_src)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 200)
    try:
        g = infer_program(prog)
        text = pretty_type(canonicalize(declared_arrow(g, "outer")), g.table)
    finally:
        sys.setrecursionlimit(limit)
    # One indexing per statement stays in f's scheme; the equalities
    # (each statement's, the copy of y, the outer link) are solved.
    assert text.count("Ind(") == 1500
    assert "Eq(" not in text


def test_generalization_does_not_rescan_the_environment(monkeypatch):
    # Each function quantifies the variables newer than itself, so the
    # work per function (the variables its one rewrite meets) does not
    # grow with the functions declared before.
    calls = [0]
    walk = G.rebuild_term

    def counting(t, subst, leaf, *rest):
        def counted(v):
            calls[0] += 1
            return leaf(v)

        return walk(t, subst, counted, *rest)

    monkeypatch.setattr(G, "rebuild_term", counting)

    def leaf_calls(n):
        calls[0] = 0
        infer_program(parse_program("\n".join(f"fun f{i} (x) {{ x + {i} }}" for i in range(n))))
        return calls[0]

    small, large = leaf_calls(200), leaf_calls(400)
    assert large <= 2.2 * small, (small, large)


def test_generalization_shares_what_it_does_not_rename():
    # A body constraint without a function variable joins the enclosing
    # body as the same object; a moved one keeps its closed parts, and so
    # does the term that a solved equality puts in.
    def generalize(g, how):
        outer = g.fresh()
        env_top = g.counter
        param, result, elem = g.fresh(), g.fresh(), g.fresh()
        body = [c_eq(outer, T_INT), c_eq(elem, CLOSED), c_ind(param, elem), c_ind(param, result)]
        return how(g, env_top, [param], result, dict.fromkeys(body)), body[0]

    g = G._Gen(TagTable())
    arrow, stays = generalize(g, G._Gen.generalize)
    assert list(g.out) == [stays] and next(iter(g.out)) is stays
    bvars, constrs, params, res = arrow.args
    assert (items(bvars), items(params), res) == (["q1", "q2"], [t_name("q1")], t_name("q2"))
    moved = items(constrs)
    assert moved == [c_ind(t_name("q1"), CLOSED), c_ind(t_name("q1"), t_name("q2"))]
    assert moved[0].args[1] is CLOSED
    # One type name object per variable, however often it occurs.
    assert moved[0].args[0] is moved[1].args[0] is items(params)[0]
    # The copying presolve and generalizer give the same arrow and the
    # same enclosing set.
    ref = G._Gen(TagTable())
    assert generalize(ref, reference_presolving_generalize)[0] == arrow
    assert list(ref.out) == [stays]


CLOSED = t_array(t_array(T_INT))


def _reference_cases():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import programs
    finally:
        sys.path.remove(str(ROOT / "bench"))
    paths = [*sorted((ROOT / "corpus").glob("*.lama")), *sorted((ROOT / "tests" / "golden").glob("*.lama"))]
    sources = [path.read_text(encoding="utf-8") for path in paths]
    for seed in (1, 2):
        sources += [case.source for case in programs.straight_line_cases(seed)]
        sources += [case.source for case in programs.synth_mixed_cases(seed)]
    return sources


def test_generalization_agrees_with_the_copying_one(monkeypatch):
    # Constraints and roots equal those of the copying presolve and
    # generalizer (`oracles.reference_presolving_generalize`) on the
    # corpus, the goldens, the bench programs and the programs below.
    for source in [*_reference_cases(), *STAYS]:
        got = gen(source)
        with monkeypatch.context() as m:
            m.setattr(G._Gen, "generalize", reference_presolving_generalize)
            want = gen(source)
        assert (got.constraints, got.roots, got.var_count) == (want.constraints, want.roots, want.var_count)


def _reason(message):
    """A report message's leading words: the reason for Unknown, the
    kind of the failed constraint for IllTyped."""
    return re.match(r"[A-Za-z ]*", message).group()


def test_solving_before_generalizing_keeps_every_verdict(monkeypatch):
    # The copying generalizer without the presolve
    # (`oracles.reference_generalize`) gives the same verdicts, the same
    # types to every binding that is not a function, and messages with
    # the same reason, pruned and unpruned.
    sources = [*_reference_cases(), *(source for source, _, _ in LOOP_PROGRAMS), *STAYS]
    for prune in (True, False):
        options = CheckOptions(prune=prune)
        for source in sources:
            got = check_source(source, options)
            with monkeypatch.context() as m:
                m.setattr(G._Gen, "generalize", reference_generalize)
                want = check_source(source, options)
            assert got.verdict == want.verdict, source
            assert [name for name, _ in got.bindings] == [name for name, _ in want.bindings]
            for (name, ty), (_, ref) in zip(got.bindings, want.bindings):
                if ty.tag != "TArrow":
                    assert types_equal(ty, ref), (source, name)
            assert _reason(got.message) == _reason(want.message), source


# Each keeps an equality the presolve must not solve.
STAYS = [
    # t's Eq binds the outer y: it travels in g's scheme, which nothing
    # calls, not to the top level, where y is Int.
    'var y = 1; fun g () { var t = y; t := "s" }',
    # An equality that fails holds no variable and joins the top level.
    'fun g (x) { 1 + "a" }',
    # An equality that fails the occurs check builds a mu when solved.
    "fun f (x) { x := [x]; x }",
]


def test_what_the_presolve_leaves_keeps_its_meaning():
    outer, fails, cyclic = (check_source(source) for source in STAYS)
    assert outer.verdict == TYPED
    assert outer.render_bindings() == ["y : Int", "g : Eq(Int, Str) => () -> Int"]
    assert (fails.verdict, fails.message) == (ILL_TYPED, "Eq(Str, Int)")
    assert cyclic.verdict == TYPED
    assert cyclic.render_bindings() == ["f : forall a. Eq(a, [a]) => (a) -> a"]


def test_a_function_solves_its_own_equalities():
    # sort's equalities among its own variables are solved before it is
    # generalized; its scheme keeps the shape checks.
    g = gen((ROOT / "corpus" / "sort.lama").read_text(encoding="utf-8"))
    text = pretty_type(canonicalize(declared_arrow(g, "sort")), g.table)
    assert text == "forall a b c. Match(a; #box) & Ind(a, Int) & Ind(a, b) & Ind(a, c) => (a) -> a"


def test_recursive_function_sees_monomorphic_self():
    g = gen(
        """
        fun size (s) {
          case s of
            Nil -> 0
          | Cons (_, t) -> 1 + size (t)
          esac
        } ;
        size
        """
    )
    # The recursive call constrains the declaration's own linkage
    # variable (monomorphic self), carried inside the arrow's bound
    # constraints after generalization.
    arrow = declared_arrow(g, "size")
    inner_calls = [c for c in items(arrow.args[1]) if c.tag == "Call"]
    assert len(inner_calls) == 1
    assert inner_calls[0].args[0] == root_type(g, "size")


def test_builtins_have_ground_arrows():
    g = gen("write (read ())")
    calls = of_kind(g, "Call")
    assert len(calls) == 2
    fn_types = {c.args[0].tag for c in calls}
    assert fn_types == {"TArrow"}
    for c in calls:
        bound_vars, _, _, result = c.args[0].args
        assert bound_vars == LNIL
        assert result == T_INT


# ---------------------------------------------------------------------------
# Roots and golden counts
# ---------------------------------------------------------------------------


def test_roots_in_declaration_order():
    g = gen("var a = 1;\nfun f (x) { x } ;\nvar b = 2;\nb")
    assert [n for n, _ in g.roots] == ["a", "f", "b"]


def test_golden_constraint_counts_for_corpus():
    import pathlib

    # Pinned totals: a change here means generation itself changed.
    golden = {}
    for path in sorted(pathlib.Path("corpus").glob("*.lama")):
        golden[path.name] = len(gen(path.read_text()).constraints)
    assert golden == {
        "case_list.lama": 9,
        "closure_chain.lama": 6,
        "heterogeneous.lama": 5,
        "self_array.lama": 4,
        "sexp_assign.lama": 4,
        "sort.lama": 11,
    }
