"""Type terms: interning, unfolding, equality, rendering, parsing."""

import itertools
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from shapecheck.checker import check_source
from shapecheck.syntax import MAX_NESTING
from shapecheck.engine import (
    Compound,
    FreeVar,
    PMap,
    Var,
    conj,
    empty_state,
    fresh_many,
    reify_term,
    run,
    shallow_walk,
    unify,
)
from shapecheck.types import (
    LNIL,
    P_WILD,
    T_INT,
    T_STR,
    TagTable,
    TypeParseError,
    apply_type_subst,
    c_eq,
    c_ind,
    c_match,
    eq_t,
    lcons,
    llist,
    p_at,
    p_sexp,
    p_shape,
    parse_type,
    pretty_type,
    render_constraint,
    t_array,
    t_arrow,
    t_ctor,
    t_mu,
    t_name,
    t_sexp,
    ty_from_term,
    type_occurs_hook,
    types_equal,
)

import oracles as O
from oracles import canonicalize, fresh_with, map_args, unmu
from shapecheck import engine, types

ROOT = Path(__file__).resolve().parent.parent


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


def _shared_chain(n, leaf):
    """Var(n) under a substitution binding Var(i) to a pair of Var(i - 1)
    for i = 1 .. n, and Var(0) to leaf: 2 ** n leaves as a tree, n + 1
    nodes as a graph."""
    subst = PMap().set(0, leaf)
    for i in range(1, n + 1):
        subst = subst.set(i, Compound("TPair", (Var(i - 1), Var(i - 1))))
    return Var(n), subst


def _leftmost(t, depth):
    for _ in range(depth - 1):
        assert t.args[0] is t.args[1]  # the rewrite stays shared
        t = t.args[0]
    return t.args[0]


def _counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_apply_type_subst_rewrites_a_shared_term_once(monkeypatch):
    top, subst = _shared_chain(16, t_name("x"))
    gets = _counting(monkeypatch, PMap, "get")
    out = apply_type_subst({"x": T_INT}, top, subst)
    assert len(gets) <= 2 * 17
    assert _leftmost(out, 16) == T_INT
    # Under a binder of the same name the shared term is left alone.
    shadowed = t_mu("x", top)
    assert apply_type_subst({"x": T_INT}, shadowed, subst) is shadowed


def test_rewriters_do_not_enter_what_cannot_change(monkeypatch):
    # Beside a variable, a closed term (no variable, no name) is not
    # entered by a rewrite of names, nor a var-free one by reification:
    # only the pair above them is rebuilt.
    closed, named = T_INT, t_name("x")
    for _ in range(100):
        closed, named = t_array(closed), t_array(named)
    rebuilds = _counting(monkeypatch, engine, "rebuilt")
    out = apply_type_subst({"x": T_STR}, Compound("TPair", (closed, named, Var(0))), PMap())
    assert (len(rebuilds), out.args[0] is closed) == (101, True)
    rebuilds.clear()
    out = reify_term(Compound("TPair", (named, Var(0))), PMap())
    assert (len(rebuilds), out.args[0] is named) == (1, True)


def test_occurs_hook_converts_a_shared_term_once(monkeypatch):
    # The hook closes the walked term in one rewrite, which builds each
    # of the 16 shared pairs once and pays a unit of fuel for each.
    top, subst = _shared_chain(16, Var(99))
    rewrites = _counting(monkeypatch, types, "rebuild_term")
    hooked, built = type_occurs_hook(99, top, subst)
    assert (len(rewrites), built) == (1, 16)
    assert _leftmost(hooked.args[1], 16) == t_name("r99")


# The rewriters against the copying ones (`oracles.reference_*`), on terms
# over names, atoms, free variables and variables bound by the case's
# substitution. Each step of a recipe makes a compound over terms made
# before it, so later terms share earlier ones.
_NAMES = ("x", "y", "z")
_FREE = [Var(i) for i in range(4)]
_BOUND = [Var(i) for i in range(4, 8)]
_STEP = st.tuples(
    st.sampled_from(["TArray", "TPair", "TMu", "TArrow", "Match"]),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.sampled_from(_NAMES),
)


def _made(pool, steps):
    pool = list(pool)
    for kind, i, j, name in steps:
        a, b = pool[i % len(pool)], pool[j % len(pool)]
        if kind == "TArray":
            t = t_array(a)
        elif kind == "TPair":
            t = Compound("TPair", (a, b))
        elif kind == "TMu":
            t = t_mu(name, a)
        elif kind == "TArrow":
            t = t_arrow(llist([name]), llist([c_eq(a, b), c_ind(b, t_name(name))]), llist([a]), b)
        else:
            t = c_match(a, llist([p_at(b, P_WILD), p_sexp(0, llist([p_shape("box")]))]))
        pool.append(t)
    return pool


@st.composite
def _rewrite_cases(draw):
    """(term, substitution, mapping of names). The bound variables name
    terms of a first pool, made without them, or an earlier bound
    variable; the term is the last of a second pool over both. Some cases
    put a 300-deep chain of fresh compounds in the first pool."""
    leaves = [T_INT, T_STR, Compound("TInt", ()), *map(t_name, _NAMES), *_FREE]
    first = _made(leaves, draw(st.lists(_STEP, max_size=10)))
    if draw(st.booleans()):
        deep = first[draw(st.integers(0, 10**6)) % len(first)]
        for _ in range(300):
            deep = Compound("TArray", (deep,))
        first.append(deep)
    subst = PMap()
    for k, v in enumerate(_BOUND):
        options = first + _BOUND[:k]
        subst = subst.set(v.id, options[draw(st.integers(0, 10**6)) % len(options)])
    second = _made(first + _BOUND, draw(st.lists(_STEP, min_size=1, max_size=10)))
    names = draw(st.lists(st.sampled_from(_NAMES), unique=True))
    mapping = {n: second[draw(st.integers(0, 10**6)) % len(second)] for n in names}
    return second[-1], subst, mapping


def _assert_shared(term, subst, out, kept):
    """Walk term under subst and out side by side: a subterm that kept(x)
    says cannot change comes back as itself, and so does a compound whose
    parts all come back as they were."""
    todo, seen = [(term, out)], set()
    while todo:
        a, b = todo.pop()
        a = shallow_walk(a, subst)
        if not isinstance(a, Compound) or b is a or (id(a), id(b)) in seen:
            continue
        seen.add((id(a), id(b)))
        assert not kept(a), a
        if isinstance(b, Compound) and b.tag == a.tag and len(b.args) == len(a.args):  # else a replaced name
            assert not all(x is y for x, y in zip(b.args, a.args)), a
            todo.extend(zip(a.args, b.args))


def _compounds(t, subst=None) -> dict:
    """id -> compound, for every compound in reach of t (under subst)."""
    found, todo = {}, [t]
    while todo:
        x = todo.pop()
        if subst is not None:
            x = shallow_walk(x, subst)
        if isinstance(x, Compound) and id(x) not in found:
            found[id(x)] = x
            todo.extend(x.args)
    return found


def _closed(t):
    return engine.flags(t) == engine.CLOSED


@settings(max_examples=300, deadline=None)
@given(_rewrite_cases())
def test_rewriters_agree_with_the_copying_ones_and_keep_what_cannot_change(case):
    term, subst, mapping = case
    out = apply_type_subst(mapping, term, subst)
    assert out == O.reference_apply_type_subst(mapping, term, subst)
    _assert_shared(term, subst, out, _closed)

    reified = reify_term(term, subst)
    assert reified == O.reference_reify_term(term, subst)
    _assert_shared(term, subst, reified, engine.var_free)

    before = _compounds(term, subst)
    for v in _FREE:
        hooked, built = type_occurs_hook(v.id, term, subst)
        assert hooked == O.reference_type_occurs_hook(v.id, term, subst)[0]
        _assert_shared(term, subst, hooked.args[1], engine.var_free)
        # A unit of fuel per compound built: every compound of the result
        # that the term does not reach, but for the mu's name.
        new = [x for i, x in _compounds(hooked.args[1]).items() if i not in before]
        assert built == sum(x != t_name(f"r{v.id}") for x in new)


# ---------------------------------------------------------------------------
# eq_t
# ---------------------------------------------------------------------------


def test_eq_t_ground_identical():
    assert ok(lambda q: eq_t(t_array(T_INT), t_array(T_INT)))


def test_eq_t_ground_distinct_fails():
    assert not ok(lambda q: eq_t(T_INT, T_STR))


def test_eq_t_mu_same_body_different_binders():
    # mu x1. Int  ==  mu x2. Int: both sides unfold in place, so the one
    # answer is mature and no unification is made.
    assert ok(lambda q: eq_t(t_mu("x1", T_INT), t_mu("x2", T_INT)))
    state = empty_state()
    s = eq_t(t_mu("x1", T_INT), t_mu("x2", T_INT))(state)
    assert not callable(s) and s[1] is None
    assert (state.counters.unifications, state.counters.steps) == (0, 0)


def test_eq_t_mu_folded_vs_unfolded():
    tb, m = mu_int_list()
    unfolded = run(lambda q: unmu(m, q)).answers[0]
    assert ok(lambda q: eq_t(m, unfolded))
    assert ok(lambda q: eq_t(unfolded, m))


def test_mu_alpha_variants_equal_after_canonicalization():
    # Raw structural equality needs matching binder names; types_equal
    # unfolds mu types, so alpha-variants compare equal.
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


def _row_of(n, tail=LNIL):
    return llist([t_ctor(i, llist([T_INT, T_STR])) for i in range(n)], tail)


def test_equal_ground_rows_are_walked_without_streams_or_fresh_variables():
    state = empty_state()
    s = eq_t(t_sexp(_row_of(50)), t_sexp(_row_of(50)))(state)
    # One answer, mature: there is no stream step to force.
    assert s is not None and s[1] is None
    assert s[0].counter == state.counter
    assert (state.counters.steps, state.counters.unifications) == (0, 0)


def test_free_row_gets_a_ground_row_by_one_binding():
    v, state = empty_state().fresh_var()
    (st, more) = eq_t(t_sexp(v), t_sexp(_row_of(50)))(state)
    assert more is None and st.counter == state.counter
    assert state.counters.unifications == 1
    assert reify_term(v, st.subst) == _row_of(50)


def test_free_row_gets_two_fresh_variables_per_cell_of_an_open_row():
    (v, tail), state = empty_state().fresh_vars(2)
    s = eq_t(t_sexp(v), t_sexp(_row_of(50, tail)))(state)
    while callable(s):  # a stream step per 64 tasks of the walk
        s = s()
    st, more = s
    assert more is None
    assert st.counter == state.counter + 2 * 50
    # A binding per cell, each cell's ground constructor by one binding,
    # and the tails unified.
    assert state.counters.unifications == 50 + 50 + 1
    assert reify_term(v, st.subst) == reify_term(_row_of(50, tail), st.subst)


def test_occurs_hook_output_matches_oracle():
    # Independent check with the brute-force oracle: mu r.[r] is teq to
    # its unfolding [mu r.[r]].
    m = O.mu("r", O.arr(O.name("r")))
    assert O.teq(m, O.arr(m))
    assert not O.teq(m, O.arr(O.arr(O.INT)))


def test_set_type_hook_without_cycle_is_transparent():
    def goal(q):
        return conj(O.set_type_hook(q), unify(q, T_INT))

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
        # Constructors named as constraints are told apart by what
        # follows their arguments.
        "Call(Int) | Nil",
        "Ind(Int)",
        "[Call(Int)]",
        "forall a. Eq(a, Call(Int)) & Call(a; Ind(Int); a) => (Eq(Int, Str)) -> (Call(Int) | Nil)",
        # Every pattern form; a pattern `t @ p` is told by its `@`.
        "forall a b. Match(a; Nil, Cons(b @ _, _), #box, [_, A(_)]) => (a) -> b",
        "forall a. Match(a; [Int] @ [_], Nil | Cons(Int, a) @ Cons(_, Nil), (a) -> a @ #fun) => (a) -> a",
        "forall a b. Match(b; a @ b @ _) & Eq(a, b) => (a) -> b",
    ],
)
def test_parse_render_round_trip(text):
    tb = TagTable()
    tb.intern("Nil", 0)
    tb.intern("Cons", 2)
    tb.intern("A", 1)
    tb.intern("B", 1)
    tb.intern("Call", 1)
    tb.intern("Ind", 1)
    tb.intern("Eq", 2)
    ty = parse_type(text, tb)
    assert pretty_type(canonicalize(ty), tb) == text


def test_parse_rejects_garbage():
    tb = TagTable()
    with pytest.raises(TypeParseError):
        parse_type("mu . x", tb)
    with pytest.raises(TypeParseError):
        parse_type("[Int", tb)
    # A union has at most one open tail.
    with pytest.raises(TypeParseError, match="bad union member"):
        parse_type("a | b", tb)
    with pytest.raises(TypeParseError, match="bad union member"):
        parse_type("A | a | b", tb)
    # A pattern names no variable unless a type before `@` does.
    with pytest.raises(TypeParseError, match="expected a pattern at offset 19"):
        parse_type("forall a. Match(a; x) => (a) -> a", tb)


def test_parse_bounds_nesting():
    # Parentheses around a whole type add no level; brackets, binders and
    # arrows do.
    tb = TagTable()
    at_bound = "[" * (MAX_NESTING - 1) + "Int" + "]" * (MAX_NESTING - 1)
    assert parse_type(at_bound, tb) == parse_type(f"(({at_bound}))", tb)
    for deep in (
        "[" * 3000 + "Int" + "]" * 3000,
        "mu a. " * 3000 + "Int",
        "(Int) -> " * 3000 + "Int",
        "forall a. Match(a; " + "[" * 3000 + "_" + "]" * 3000 + ") => (a) -> a",
        "forall a. Match(a; " + "a @ " * 3000 + "_) => (a) -> a",
    ):
        with pytest.raises(TypeParseError, match=f"nesting deeper than {MAX_NESTING} levels"):
            parse_type(deep, tb)
    with pytest.raises(TypeParseError, match=f"nesting deeper than {MAX_NESTING} levels"):
        parse_type("[" * MAX_NESTING + "Int" + "]" * MAX_NESTING, tb)


_GOLDEN_SOURCES = {
    **{p.stem: p for p in (ROOT / "corpus").glob("*.lama")},
    "mixed": ROOT / "tests" / "golden" / "mixed.lama",
}


@pytest.mark.parametrize("program", sorted(_GOLDEN_SOURCES))
def test_golden_bindings_parse_back_to_their_reports(program):
    # Every `name : type` line a golden stores, schemes with a `Match`
    # constraint included, parses back to the type its report binds.
    lines = (ROOT / "tests" / "golden" / f"{program}.out").read_text(encoding="utf-8").splitlines()
    printed = [ln.split(" : ", 1) for ln in lines if " : " in ln and not ln.startswith("constraint: ")]
    report = check_source(_GOLDEN_SOURCES[program].read_text(encoding="utf-8"))
    assert [name for name, _ in printed] == [name for name, _ in report.bindings]
    for (name, text), (_, bound) in zip(printed, report.bindings):
        assert types_equal(parse_type(text, report.table), bound), name


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
    # The second pair of mu types has binders that differ on each side
    # and unfold into each other; the reference search unfolds them until
    # its fuel ends. Met again, the pair counts as equal.
    tb = TagTable()
    tb.intern("A", 2)
    a = parse_type("A(mu a. [a], mu b. [b])", tb)
    b = parse_type("A(mu c. [c], mu c. [c])", tb)
    assert types_equal(a, b) and types_equal(b, a)
    assert O.reference_types_equal(a, b, fuel=1000) is None


def test_types_equal_on_a_non_contractive_type_runs_out_of_fuel():
    # `mu a. a` unfolds only to itself: it equals another such mu, and
    # nothing else. The reference search unfolds it until its fuel ends.
    tb = TagTable()
    loop = parse_type("mu a. a", tb)
    assert not types_equal(loop, T_INT) and not types_equal(T_INT, loop)
    assert types_equal(loop, parse_type("mu b. b", tb))
    assert types_equal(loop, parse_type("mu b. mu c. b", tb))
    assert not types_equal(parse_type("A(mu a. a)", tb), parse_type("A(mu b. [b])", tb))
    assert O.reference_types_equal(loop, T_INT, fuel=1000) is None


def test_found_pairs_are_equal_within_milliseconds():
    # Equal regular types on which the reference answers False (binders
    # numbered apart on each side meet as names) or runs out of fuel.
    tb = TagTable()
    tb.intern("Nil", 0)
    tb.intern("Cons", 2)
    tb.intern("A", 2)
    pairs = [
        ("mu a. [a]", "mu b. [[b]]"),
        ("mu a. Nil | Cons(Int, a)", "mu b. Nil | Cons(Int, mu c. Nil | Cons(Int, c))"),
        ("A(mu a. [a], mu b. [b])", "A(mu c. [c], mu c. [c])"),
    ]
    for x, y in pairs:
        a, b = parse_type(x, tb), parse_type(y, tb)
        start = time.perf_counter()
        assert types_equal(a, b) and types_equal(b, a)
        assert time.perf_counter() - start < 0.05
        assert O.reference_types_equal(a, b, fuel=1000) is not True


def test_a_row_that_holds_its_own_tail_ends_by_fuel():
    # Sexp(B(Sexp(r)) | B(Sexp(r)) | r) against Sexp(r): r grows a cell at
    # a time, and each cell's occurs hook closes a term about 1.6 times the
    # last. The closings once overflowed the Python stack; each now costs
    # fuel by its size, so the search ends at the budget within moments.
    tb = TagTable()
    b = tb.intern("B", 1)

    def query(q):
        def k(vs):
            r = vs[0]
            cell = t_ctor(b, llist([t_sexp(r)]))
            return conj(unify(q, llist(vs)), eq_t(t_sexp(lcons(cell, lcons(cell, r))), t_sexp(r)))

        return fresh_many(1, k)

    start = time.perf_counter()
    res = run(query, max_answers=2, fuel=3000)
    assert res.answers == [] and res.fuel_exhausted
    assert time.perf_counter() - start < 2.0


def test_types_equal_decides_folded_vs_unfolded_without_a_stream_step():
    tb = TagTable()
    tb.intern("Nil", 0)
    tb.intern("Cons", 2)
    folded = parse_type("mu a. Nil | Cons(Int, a)", tb)
    unfolded = parse_type("Nil | Cons(Int, (mu a. Nil | Cons(Int, a)))", tb)
    state = empty_state()
    s = eq_t(canonicalize(folded), canonicalize(unfolded))(state)
    assert s is not None and s[1] is None
    assert types_equal(folded, unfolded)


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


# ---------------------------------------------------------------------------
# Properties of types_equal and parse_type on random regular types
# ---------------------------------------------------------------------------

# A type is described as a tuple and built with fresh binder names, so a
# description built twice with other names, or other free variables, is
# an alpha-variant. ("name", k) is the k-th binder in scope counting out
# from the innermost one, and a free variable where fewer are in scope.
_LABELS = (("Nil", 0), ("Call", 1), ("Eq", 2), ("Cons", 2))
_PER_PAIR_S = 0.25  # the comparison of one pair ends within this time


def _grow_random_types(inner):
    def args(n):
        return st.lists(inner, min_size=n, max_size=n)

    cell = st.sampled_from(range(len(_LABELS))).flatmap(lambda i: st.tuples(st.just(i), args(_LABELS[i][1])))
    constraint = st.one_of(
        st.tuples(st.sampled_from(["Eq", "Ind"]), inner, inner),
        st.tuples(st.just("Call"), inner, st.lists(inner, max_size=2), inner),
        st.sampled_from(range(len(_LABELS))).flatmap(
            lambda i: st.tuples(st.just("Sexp"), st.just(i), inner, args(_LABELS[i][1]))
        ),
    )
    return st.one_of(
        st.tuples(st.just("arr"), inner),
        st.tuples(st.just("sexp"), st.lists(cell, min_size=1, max_size=3), st.one_of(st.none(), st.integers(0, 2))),
        st.tuples(st.just("mu"), inner),
        st.tuples(
            st.just("arrow"),
            st.integers(0, 2),
            st.lists(constraint, max_size=2),
            st.lists(inner, max_size=2),
            inner,
        ),
    )


_random_types = st.recursive(
    st.one_of(
        st.sampled_from([("int",), ("str",), ("loop", 1), ("loop", 2)]),
        st.tuples(st.just("name"), st.integers(0, 2)),
    ),
    _grow_random_types,
    max_leaves=8,
)


def _realize(d, binder="b", free=(0, 1, 2)):
    """The term a description stands for: binders named binder + a
    number, free variable i numbered free[i]."""
    numbers = itertools.count()

    def fresh():
        return f"{binder}{next(numbers)}"

    def var(i):
        return FreeVar(free[i], free[i])

    def go(d, scope):
        kind = d[0]
        if kind == "int":
            return T_INT
        if kind == "str":
            return T_STR
        if kind == "name":
            return t_name(scope[d[1]]) if d[1] < len(scope) else var(d[1] - len(scope))
        if kind == "loop":  # a mu that only unfolds to a mu
            names = [fresh() for _ in range(d[1])]
            body = t_name(names[0])
            for n in reversed(names):
                body = t_mu(n, body)
            return body
        if kind == "arr":
            return t_array(go(d[1], scope))
        if kind == "sexp":
            cells = [t_ctor(tag, llist([go(a, scope) for a in items])) for tag, items in d[1]]
            return t_sexp(llist(cells, LNIL if d[2] is None else var(d[2])))
        if kind == "mu":
            n = fresh()
            return t_mu(n, go(d[1], (n,) + scope))
        bound = tuple(fresh() for _ in range(d[1]))
        inner = bound[::-1] + scope
        constraints = [constraint(c, inner) for c in d[2]]
        return t_arrow(llist(list(bound)), llist(constraints), llist([go(p, inner) for p in d[3]]), go(d[4], inner))

    def constraint(c, scope):
        if c[0] == "Call":
            return Compound("Call", (go(c[1], scope), llist([go(a, scope) for a in c[2]]), go(c[3], scope)))
        if c[0] == "Sexp":
            return Compound("SexpC", (c[1], go(c[2], scope), llist([go(a, scope) for a in c[3]])))
        return Compound(c[0], (go(c[1], scope), go(c[2], scope)))

    return go(d, ())


def _unfold_some(t, rng, budget):
    """t with up to budget[0] mu types, picked by rng, unfolded once."""
    if isinstance(t, Compound) and t.tag == "TMu" and budget[0] and rng.random() < 0.5:
        budget[0] -= 1
        t = types.unfold_mu(t, PMap())
    if not isinstance(t, Compound):
        return t
    return map_args(t, lambda a: _unfold_some(a, rng, budget))


def _timed_equal(a, b) -> bool:
    start = time.perf_counter()
    same = types_equal(a, b)
    assert time.perf_counter() - start < _PER_PAIR_S
    return same


@settings(max_examples=150, deadline=None)
@given(_random_types, _random_types, st.permutations([0, 1, 2]), st.randoms(use_true_random=False))
def test_types_equal_is_an_equivalence_up_to_unfolding_and_renaming(d, e, perm, rng):
    t, u = _realize(d), _realize(e)
    assert _timed_equal(t, t)
    assert _timed_equal(t, u) == _timed_equal(u, t)
    variant = _realize(d, binder="z", free=perm)
    assert _timed_equal(t, variant) and _timed_equal(variant, t)
    unfolded = _unfold_some(variant, rng, [3])
    assert _timed_equal(t, unfolded) and _timed_equal(unfolded, t)


@settings(max_examples=100, deadline=None)
@given(_random_types, _random_types, st.randoms(use_true_random=False))
def test_types_equal_holds_wherever_the_reference_does(d, e, rng):
    # The reference also answers False for some equal types, and runs out
    # of fuel on others (a mu that only unfolds to a mu); only its True
    # is checked. Half the pairs are a type and an unfolding of it.
    t = _realize(d)
    u = _unfold_some(_realize(d, binder="z"), rng, [2]) if rng.random() < 0.5 else _realize(e)
    if O.reference_types_equal(t, u, fuel=1000):
        assert _timed_equal(t, u)


@settings(max_examples=150, deadline=None)
@given(_random_types)
def test_rendered_random_types_parse_back(d):
    # Rendering letters binders and free variables in first-occurrence
    # order, so a type parses back to itself once it is named that way.
    tb = TagTable()
    for label, arity in _LABELS:
        tb.intern(label, arity)
    t = _realize(d)
    named = parse_type(pretty_type(t, tb), tb)
    assert types_equal(t, named)
    assert parse_type(pretty_type(named, tb), tb) == named


# ---------------------------------------------------------------------------
# eq_t against the relational reference (oracles.reference_eq_t)
# ---------------------------------------------------------------------------

# A type is described as a tuple and built over seven shared variables:
# 0-2 stand for types, 3-4 for open row tails, 5-6 for type lists.
_TYPE_VARS, _ROW_TAILS, _LIST_VARS = (0, 1, 2), (3, 4), (5, 6)
_TAGS = ((0, 0), (1, 1), (2, 2))  # (tag id, arity)


def _build(d, vs):
    kind = d[0]
    if kind == "int":
        return T_INT
    if kind == "str":
        return T_STR
    if kind == "var":
        return vs[d[1]]
    if kind == "name":
        return t_name(d[1])
    if kind == "arr":
        return t_array(_build(d[1], vs))
    if kind == "mu":
        return t_mu(d[1], _build(d[2], vs))
    if kind == "sexp":
        cells = [t_ctor(tag, _build_list(args, vs)) for tag, args in d[1]]
        return t_sexp(llist(cells, LNIL if d[2] is None else vs[d[2]]))
    if kind == "arrow":
        constraints = [Compound(c, (_build(x, vs), _build(y, vs))) for c, x, y in d[2]]
        return t_arrow(llist(list(d[1])), llist(constraints), _build_list(d[3], vs), _build(d[4], vs))
    raise ValueError(d)


def _build_list(items, vs):
    return vs[items] if isinstance(items, int) else llist([_build(x, vs) for x in items])


def _grow_types(inner):
    items = st.one_of(st.sampled_from(_LIST_VARS), st.lists(inner, max_size=2))

    def cells(n):
        return st.tuples(st.just(n), st.lists(inner, min_size=n, max_size=n))

    row = st.tuples(
        st.just("sexp"),
        st.lists(st.sampled_from(_TAGS).flatmap(lambda t: st.tuples(st.just(t[0]), items if t[1] else st.just([]))), max_size=2),
        st.one_of(st.none(), st.sampled_from(_ROW_TAILS)),
    )
    array = st.tuples(st.just("arr"), inner)
    return st.one_of(
        array,
        row,
        st.tuples(st.just("mu"), st.sampled_from("xy"), st.one_of(array, row)),
        st.tuples(
            st.just("arrow"),
            st.lists(st.sampled_from("pq"), max_size=1),
            st.lists(st.tuples(st.sampled_from(["Eq", "Ind"]), inner, inner), max_size=1),
            items,
            inner,
        ),
    )


_type_descs = st.recursive(
    st.one_of(
        st.sampled_from([("int",), ("str",), ("name", "x"), ("name", "y"), ("name", "p")]),
        st.sampled_from(_TYPE_VARS).map(lambda i: ("var", i)),
    ),
    _grow_types,
    max_leaves=6,
)
# One side is often a bare variable the other side may contain, so the
# occurs hook fires.
_type_pairs = st.one_of(
    st.tuples(_type_descs, _type_descs),
    st.tuples(st.sampled_from(_TYPE_VARS).map(lambda i: ("var", i)), _type_descs),
)


def _canon(t, names):
    """A reified answer with fresh names (`%<id>` renamings, `r<id>` hook
    binders) numbered in first-occurrence order."""
    if isinstance(t, FreeVar):
        return ("?", t.index)
    if isinstance(t, str) and (t[:1] == "%" or (t[:1] == "r" and t[1:].isdigit())):
        return names.setdefault(t, f"#{len(names)}")
    if isinstance(t, Compound):
        return (t.tag, tuple(_canon(a, names) for a in t.args))
    return t


def _eq_answers(eq, t, u, build=_build, fuel=3000):
    """Up to two answers of eq over the built pair, each the reified
    seven shared variables, and whether the stream ended."""

    def query(q):
        return fresh_many(7, lambda vs: conj(unify(q, llist(vs)), eq(build(t, vs), build(u, vs))))

    res = run(query, max_answers=2, fuel=fuel)
    return [_canon(a, {}) for a in res.answers], res.ended


@settings(max_examples=400, deadline=None)
@given(_type_pairs)
def test_eq_t_answers_as_the_relational_reference(pair):
    # Wherever the reference's stream ends within its fuel, the walk's
    # ends too, with the same answers in the same order. (Both search the
    # same tree; the walk takes fewer stream steps on the way. Two answers
    # of an endless list enumeration can therefore come in another
    # interleaving: for `forall p. (l) -> a` against `forall p. (l) ->
    # B(m) | B(m)`, the second answer lengthens l in one and m in the
    # other.)
    # Where the reference finds two answers, so does the walk. Pairs on
    # which the reference overflows the stack are skipped.
    try:
        want, want_ended = _eq_answers(O.reference_eq_t, *pair)
    except RecursionError:
        return
    if want_ended:
        assert _eq_answers(eq_t, *pair) == (want, True)
    elif len(want) == 2:
        assert len(_eq_answers(eq_t, *pair)[0]) == 2


def test_eq_t_answers_as_the_reference_on_a_cycle_and_on_free_lists():
    tb = TagTable()
    # Binders are compared by name, so both say these are not equal.
    a, b = (canonicalize(parse_type(s, tb)) for s in ("mu a. [a]", "mu b. [[b]]"))
    for eq in (O.reference_eq_t, eq_t):
        assert _eq_answers(eq, a, b, build=lambda t, vs: t) == ([], True)
    assert types_equal(parse_type("mu a. [a]", tb), parse_type("mu b. [[b]]", tb))
    # Two free type lists: both fork, nil first, then one cell each.
    free = ("arrow", (), (), 5, ("int",)), ("arrow", (), (), 6, ("int",))
    want = _eq_answers(O.reference_eq_t, *free)
    assert _eq_answers(eq_t, *free) == want
    rest = [FreeVar(i, i) for i in range(5)]
    one = llist([FreeVar(5, 5)])
    assert want == ([_canon(llist(rest + [LNIL, LNIL]), {}), _canon(llist(rest + [one, one]), {})], False)
