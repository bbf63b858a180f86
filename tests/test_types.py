"""Type terms: interning, unfolding, equality, rendering, parsing."""

import pytest
from hypothesis import given, settings, strategies as st

from shapecheck.checker import check_source
from shapecheck.engine import Compound, FreeVar, PMap, Var, conj, fresh_with, run, unify
from shapecheck.types import (
    LNIL,
    T_INT,
    T_STR,
    ComparisonExhausted,
    TagTable,
    TypeParseError,
    apply_type_subst,
    c_eq,
    c_ind,
    canonicalize,
    eq_t,
    llist,
    parse_type,
    pretty_type,
    render_constraint,
    set_type_hook,
    t_array,
    t_arrow,
    t_ctor,
    t_mu,
    t_name,
    t_sexp,
    ty_from_term,
    types_equal,
    unmu,
)

import oracles as O


def ok(goal_of_var, **kw):
    return run(lambda q: conj(goal_of_var(q), unify(q, Compound("ok", ()))), **kw).answers == [
        Compound("ok", ())
    ]


# ---------------------------------------------------------------------------
# Tag interning
# ---------------------------------------------------------------------------


def test_intern_is_bijective_per_label_arity():
    tb = TagTable()
    a1 = tb.intern("A", 1)
    b2 = tb.intern("B", 2)
    a2 = tb.intern("A", 2)
    assert tb.intern("A", 1) == a1
    assert len({a1, b2, a2}) == 3
    assert tb.label(b2) == "B" and tb.arity(b2) == 2
    assert tb.sexp_max_length == 3
    assert tb.all_ids() == [a1, b2, a2]


def test_intern_same_label_different_arity_distinct():
    tb = TagTable()
    assert tb.intern("Cons", 2) != tb.intern("Cons", 1)


# ---------------------------------------------------------------------------
# unmu / apply_type_subst
# ---------------------------------------------------------------------------


def mu_int_list(binder="x"):
    # mu x. Nil | Cons(Int, x) over a fixed table
    tb = TagTable()
    nil = tb.intern("Nil", 0)
    cons = tb.intern("Cons", 2)
    cells = llist(
        [
            t_ctor(nil, llist([])),
            t_ctor(cons, llist([T_INT, t_name(binder)])),
        ]
    )
    return tb, t_mu(binder, t_sexp(cells))


def test_unmu_unfolds_one_level():
    tb, m = mu_int_list()
    res = run(lambda q: unmu(m, q))
    (ans,) = res.answers
    # Top is now a plain Sexp whose Cons tail is the original mu.
    assert ans.tag == "TSexp"
    text = pretty_type(ty_from_term(ans), tb)
    assert text == "Nil | Cons(Int, (mu a. Nil | Cons(Int, a)))"


def test_unmu_on_non_mu_is_identity():
    res = run(lambda q: unmu(t_array(T_INT), q))
    assert res.answers == [t_array(T_INT)]


def test_unmu_on_fresh_var_is_identity():
    def goal(q):
        return fresh_with(lambda x: conj(unmu(x, q), unify(x, T_STR)))

    assert run(goal).answers == [T_STR]


def test_apply_type_subst_replaces_names_capture_avoiding():
    # [x -> Int] over  (x, mu x. x)  touches only the free occurrence.
    t = Compound("TArray", (t_name("x"),))
    assert apply_type_subst({"x": T_INT}, t, PMap()) == t_array(T_INT)

    shadowed = t_mu("x", t_array(t_name("x")))
    assert apply_type_subst({"x": T_INT}, shadowed, PMap()) == shadowed


# ---------------------------------------------------------------------------
# eq_t
# ---------------------------------------------------------------------------


def test_eq_t_ground_identical():
    assert ok(lambda q: eq_t(t_array(T_INT), t_array(T_INT)))


def test_eq_t_ground_distinct_fails():
    assert not ok(lambda q: eq_t(T_INT, T_STR))


def test_eq_t_mu_same_body_different_binders():
    # mu x1. Int  ==  mu x2. Int
    assert ok(lambda q: eq_t(t_mu("x1", T_INT), t_mu("x2", T_INT)))


def test_eq_t_mu_folded_vs_unfolded():
    tb, m = mu_int_list()
    unfolded = run(lambda q: unmu(m, q)).answers[0]
    assert ok(lambda q: eq_t(m, unfolded))
    assert ok(lambda q: eq_t(unfolded, m))


def test_mu_alpha_variants_equal_after_canonicalization():
    # Raw structural equality needs matching binder names; the public
    # comparison canonicalizes first, so alpha-variants compare equal.
    tb, m1 = mu_int_list("x")
    tb2, m2 = mu_int_list("y")
    assert types_equal(ty_from_term(m1), ty_from_term(m2))


def test_eq_t_binds_free_side():
    def goal(q):
        return eq_t(q, t_array(T_STR))

    assert run(goal).answers == [t_array(T_STR)]


def test_eq_t_cyclic_equation_builds_mu():
    # x = [x] resolves to mu r. [r] through the occurs hook.
    def goal(q):
        return eq_t(q, t_array(q))

    (ans,) = run(goal).answers
    assert ans.tag == "TMu"
    binder, body = ans.args
    assert body == t_array(t_name(binder))
    # And the result still equates with its own unfolding.
    assert ok(lambda q: eq_t(ans, t_array(ans)))


def test_occurs_hook_output_matches_oracle():
    # Independent check with the brute-force oracle: mu r.[r] is teq to
    # its unfolding [mu r.[r]].
    m = O.mu("r", O.arr(O.name("r")))
    assert O.teq(m, O.arr(m))
    assert not O.teq(m, O.arr(O.arr(O.INT)))


def test_set_type_hook_without_cycle_is_transparent():
    def goal(q):
        return conj(set_type_hook(q), unify(q, T_INT))

    assert run(goal).answers == [T_INT]


def test_eq_t_ground_agrees_with_oracle_on_samples():
    tb = TagTable()
    a = tb.intern("A", 1)
    pairs = [
        (T_INT, O.INT),
        (T_STR, O.STR),
        (t_array(T_INT), O.arr(O.INT)),
        (t_array(t_array(T_STR)), O.arr(O.arr(O.STR))),
        (t_sexp(llist([t_ctor(a, llist([T_INT]))])), O.sexp(("A", (O.INT,)))),
        (t_mu("r", t_array(t_name("r"))), O.mu("r", O.arr(O.name("r")))),
    ]
    for (et, ot) in pairs:
        for (eu, ou) in pairs:
            got = ok(lambda q, a=et, b=eu: eq_t(a, b), fuel=50_000)
            want = O.teq(ot, ou)
            assert got == want, (ot, ou)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def test_pretty_atoms():
    tb = TagTable()
    assert pretty_type(T_INT, tb) == "Int"
    assert pretty_type(T_STR, tb) == "Str"
    assert pretty_type(t_array(T_INT), tb) == "[Int]"


def test_pretty_sexp_union():
    tb = TagTable()
    nil = tb.intern("Nil", 0)
    cons = tb.intern("Cons", 2)
    ty = t_sexp(llist([t_ctor(nil, LNIL), t_ctor(cons, llist([T_INT, Var(7)]))]))
    assert pretty_type(ty, tb) == "Nil | Cons(Int, a)"


def test_pretty_identity_arrow():
    tb = TagTable()
    ty = t_arrow(llist(["a"]), LNIL, llist([t_name("a")]), t_name("a"))
    assert pretty_type(ty, tb) == "forall a. (a) -> a"


def test_pretty_arrow_with_constraints():
    tb = TagTable()
    ty = t_arrow(
        llist(["a", "b"]),
        llist([c_ind(t_name("a"), t_name("b"))]),
        llist([t_name("a")]),
        t_name("b"),
    )
    assert pretty_type(ty, tb) == "forall a b. Ind(a, b) => (a) -> b"


def test_pretty_mu():
    tb = TagTable()
    assert pretty_type(t_mu("r", t_array(t_name("r"))), tb) == "mu a. [a]"


def test_pretty_vars_numbered_in_first_occurrence_order():
    tb = TagTable()
    u, v = Var(5), Var(2)
    ty = t_arrow(LNIL, LNIL, llist([u, v, u]), v)
    assert pretty_type(ty, tb) == "(a, b, a) -> b"


def test_pretty_reified_special_forms():
    # Reified answers can hold forms the generator never builds: a
    # constructor whose tag is still free, an open union, a free binder
    # in an arrow's binder list, and a constraint that is still a variable.
    tb = TagTable()
    a = tb.intern("A", 0)
    x, y = FreeVar(0, 11), FreeVar(1, 12)
    union = t_sexp(llist([t_ctor(a, LNIL), t_ctor(x, llist([T_INT]))], y))
    assert pretty_type(union, tb) == "A | a | b"
    # A tail that is neither a list nor a variable is not shown.
    assert pretty_type(t_sexp(llist([t_ctor(a, LNIL)], t_name("r"))), tb) == "A"
    arrow = t_arrow(llist([x]), llist([y]), llist([x]), T_INT)
    assert pretty_type(arrow, tb) == "forall a. Eq(b, b) => (c) -> Int"


def test_render_constraint_forms():
    tb = TagTable()
    a = tb.intern("A", 1)
    assert render_constraint(c_ind(t_array(T_INT), T_INT), tb) == "Ind([Int], Int)"
    assert render_constraint(c_eq(T_INT, T_STR), tb) == "Eq(Int, Str)"


# ---------------------------------------------------------------------------
# Parsing and round-trips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "Int",
        "Str",
        "[Int]",
        "[[Str]]",
        "mu a. Nil | Cons(Int, a)",
        "forall a. (a) -> a",
        "forall a b. Ind(a, b) => (a) -> b",
        "(Int, Str) -> [Int]",
        "A(Int) | B(Str)",
    ],
)
def test_parse_render_round_trip(text):
    tb = TagTable()
    tb.intern("Nil", 0)
    tb.intern("Cons", 2)
    tb.intern("A", 1)
    tb.intern("B", 1)
    ty = parse_type(text, tb)
    assert pretty_type(canonicalize(ty), tb) == text


def test_parse_rejects_garbage():
    tb = TagTable()
    with pytest.raises(TypeParseError):
        parse_type("mu . x", tb)
    with pytest.raises(TypeParseError):
        parse_type("[Int", tb)


def test_ty_term_round_trip():
    # A parsed type goes through the engine and comes back reified equal;
    # ty_from_term checks a reified type and hands the term back.
    tb = TagTable()
    nil = tb.intern("Nil", 0)
    cons = tb.intern("Cons", 2)
    for text in ["Int", "[Str]", "mu a. Nil | Cons(Int, a)", "forall a. (a) -> a", "Nil | a"]:
        ty = parse_type(text, tb)
        (term,) = run(lambda q: unify(q, ty)).answers
        back = ty_from_term(term)
        assert back is term
        assert types_equal(ty, back)
    with pytest.raises(ValueError):
        ty_from_term(c_eq(T_INT, T_INT))


def test_types_equal_mu_folded_unfolded():
    tb = TagTable()
    tb.intern("Nil", 0)
    tb.intern("Cons", 2)
    folded = parse_type("mu a. Nil | Cons(Int, a)", tb)
    unfolded = parse_type("Nil | Cons(Int, (mu a. Nil | Cons(Int, a)))", tb)
    assert types_equal(folded, unfolded)
    assert not types_equal(folded, parse_type("Nil | Cons(Str, (mu a. Nil | Cons(Str, a)))", tb))


def test_types_equal_out_of_fuel_raises():
    # Undecided is not "not equal": a comparison that runs out of fuel
    # says so instead of answering False.
    tb = TagTable()
    tb.intern("Nil", 0)
    tb.intern("Cons", 2)
    folded = parse_type("mu a. Nil | Cons(Int, a)", tb)
    unfolded = parse_type("Nil | Cons(Int, (mu a. Nil | Cons(Int, a)))", tb)
    with pytest.raises(ComparisonExhausted):
        types_equal(folded, unfolded, fuel=3)


def test_types_equal_alpha_invariant():
    tb = TagTable()
    assert types_equal(parse_type("mu a. [a]", tb), parse_type("mu b. [b]", tb))
    assert types_equal(parse_type("forall a. (a) -> a", tb), parse_type("forall z. (z) -> z", tb))


def test_nested_arrows_with_differently_named_binders_are_equal():
    tb = TagTable()
    a = parse_type("forall x. (x) -> forall x. (x) -> x", tb)
    b = parse_type("forall x. (x) -> forall v. (v) -> v", tb)
    assert types_equal(a, b) and types_equal(b, a)


def test_renaming_binders_captures_no_free_name():
    # Renaming one side's binders to the other's would capture u here.
    tb = TagTable()
    a = parse_type("forall x. (x) -> forall v. (v) -> v", tb)
    b = parse_type("forall x. (x) -> forall x. (x) -> u", tb)
    assert not types_equal(a, b)
    assert not types_equal(b, a)
    # Nor may an inner renaming capture an outer binder.
    c = parse_type("forall a. (a) -> forall b. (b) -> a", tb)
    d = parse_type("forall c. (c) -> forall d. (d) -> d", tb)
    assert not types_equal(c, d) and not types_equal(d, c)


def test_arrows_with_different_binder_counts_are_unequal():
    tb = TagTable()
    a = parse_type("forall a b. (a) -> a", tb)
    b = parse_type("forall c. (c) -> c", tb)
    assert not types_equal(a, b) and not types_equal(b, a)


def test_two_polymorphic_functions_in_one_array_are_typed():
    # Generated binder names are unique per function, so the two arrows
    # meet with different binder names.
    src = "fun f (x) { x + 1 } fun g (x) { x + 2 } var h = [f, g]; h[0] (1)"
    assert check_source(src).verdict == "Typed"


# ---------------------------------------------------------------------------
# Property: rendering of canonical ground types parses back equal
# ---------------------------------------------------------------------------

_ground = st.deferred(
    lambda: st.one_of(
        st.just(T_INT),
        st.just(T_STR),
        st.builds(t_array, _ground),
        st.builds(lambda p, r: t_arrow(LNIL, LNIL, llist([p]), r), _ground, _ground),
    )
)


@settings(max_examples=150, deadline=None)
@given(_ground)
def test_ground_render_parse_round_trip(ty):
    tb = TagTable()
    text = pretty_type(ty, tb)
    assert types_equal(ty, parse_type(text, tb))


def test_nested_arrow_results_parse_back():
    # Each level renders its result in parentheses; parsing once took
    # time doubling per level, so 40 levels did not finish.
    ty = T_STR
    for _ in range(40):
        ty = t_arrow(LNIL, LNIL, llist([T_STR]), ty)
    tb = TagTable()
    assert parse_type(pretty_type(ty, tb), tb) == ty


@settings(max_examples=150, deadline=None)
@given(_ground, _ground)
def test_types_equal_is_syntactic_on_mufree_ground(a, b):
    assert types_equal(a, b) == (a == b)
