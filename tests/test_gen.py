"""Constraint extraction from resolved programs."""

import inspect
import sys

from shapecheck import gen as G
from shapecheck.engine import Compound, Var
from shapecheck.gen import infer_program
from shapecheck.syntax import parse_program
from shapecheck.types import LNIL, T_INT, T_STR, _list_from_term, canonicalize, pretty_type


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
    g = gen('["a", "b"]')
    eqs = of_kind(g, "Eq")
    assert len(eqs) == 2
    assert all(T_STR in c.args for c in eqs)


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
    g = gen("1 + 2")
    eqs = of_kind(g, "Eq")
    assert len(eqs) == 2


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
    body = "\n".join(f"x := x + {i};" for i in range(1500))
    g_src = f"fun outer (z) {{ fun f (y) {{ var x = y;\n{body}\nx }} ;\nf (z) }} ;\nouter"
    prog = parse_program(g_src)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 200)
    try:
        g = infer_program(prog)
        text = pretty_type(canonicalize(declared_arrow(g, "outer")), g.table)
    finally:
        sys.setrecursionlimit(limit)
    # Two equalities per statement, the copy of y, and the outer link.
    assert text.count("Eq(") == 2 * 1500 + 2


def test_generalization_does_not_rescan_the_environment(monkeypatch):
    # Each function quantifies the variables newer than itself, so the
    # work per function does not grow with the functions declared before.
    calls = [0]
    walk = G._vars

    def counting(t, out):
        calls[0] += 1
        return walk(t, out)

    monkeypatch.setattr(G, "_vars", counting)

    def vars_calls(n):
        calls[0] = 0
        infer_program(parse_program("\n".join(f"fun f{i} (x) {{ x + {i} }}" for i in range(n))))
        return calls[0]

    small, large = vars_calls(200), vars_calls(400)
    assert large <= 2.2 * small, (small, large)


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
        "case_list.lama": 15,
        "closure_chain.lama": 7,
        "heterogeneous.lama": 7,
        "self_array.lama": 6,
        "sexp_assign.lama": 4,
        "sort.lama": 29,
    }
