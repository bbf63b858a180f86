"""Constraint dispatch: weights, per-kind solving, pruning, loop check."""

import os
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from shapecheck import checker, solver
from shapecheck.checker import ILL_TYPED, TYPED, UNKNOWN, CheckOptions, check_source, solve_gen
from shapecheck.engine import (
    Compound,
    Counters,
    FreeVar,
    PMap,
    State,
    Var,
    conj,
    disunify,
    empty_state,
    fresh_many,
    reify_term,
    run,
    shallow_walk,
    unify,
)
from shapecheck.gen import infer_program
from shapecheck.solver import (
    ConstraintQueue,
    SolverOpts,
    constraint_weight,
    entail_all,
    variant_key,
)
from shapecheck.syntax import parse_program
from shapecheck.types import (
    LNIL,
    lcons,
    T_INT,
    T_STR,
    P_WILD,
    TagTable,
    c_call,
    c_eq,
    c_ind,
    c_lacks,
    c_match,
    c_sexp,
    eq_t,
    llist,
    p_array,
    p_at,
    p_sexp,
    p_shape,
    pretty_type,
    t_array,
    t_arrow,
    t_ctor,
    t_mu,
    t_name,
    t_sexp,
)

import oracles
from oracles import canonicalize, pick_next

OK = Compound("ok", ())


def table_ab():
    tb = TagTable()
    tb.intern("A", 1)
    tb.intern("B", 1)
    return tb


def solve(queue_of_vars, n_vars, table=None, max_answers=1, fuel=500_000, prune=True, counters=None):
    """Run entail_all over a queue built from n fresh vars; reify them."""
    opts = SolverOpts(table=table or table_ab(), prune=prune)

    def query(q):
        def k(vs):
            return conj(unify(q, llist(vs)), entail_all(queue_of_vars(vs), opts))

        return fresh_many(n_vars, k)

    return run(query, max_answers=max_answers, fuel=fuel, counters=counters)


def answers_of(res):
    out = []
    for a in res.answers:
        items = []
        t = a
        while t.tag == "lcons":
            items.append(t.args[0])
            t = t.args[1]
        out.append(items)
    return out


# ---------------------------------------------------------------------------
# Weights and picking
# ---------------------------------------------------------------------------


def test_weight_order_eq_before_everything():
    st = empty_state(Counters())
    x, st = st.fresh_var()
    ground_sexp = c_sexp(0, t_sexp(LNIL), llist([]))
    queue = [
        c_match(x, llist([P_WILD])),
        c_call(x, llist([]), T_INT),
        ground_sexp,
        c_eq(T_INT, T_INT),
    ]
    item, _ = ConstraintQueue().push_all(queue).pop(st)
    assert item is queue[3]  # the equality wins


def test_weight_ground_vs_free_subjects():
    st = empty_state(Counters())
    x, st = st.fresh_var()
    w_free_ind = constraint_weight(c_ind(x, T_INT), st)
    w_ground_ind = constraint_weight(c_ind(t_array(T_INT), T_INT), st)
    w_free_call = constraint_weight(c_call(x, LNIL, T_INT), st)
    w_ground_call = constraint_weight(c_call(t_arrow(LNIL, LNIL, LNIL, T_INT), LNIL, T_INT), st)
    w_free_sexp = constraint_weight(c_sexp(0, x, LNIL), st)
    w_ground_sexp = constraint_weight(c_sexp(0, t_sexp(LNIL), LNIL), st)
    assert w_ground_sexp < w_ground_ind < w_ground_call
    assert w_ground_call < w_free_sexp < w_free_ind < w_free_call
    assert constraint_weight(c_eq(T_INT, T_INT), st) == 0


def test_free_subject_all_box_match_is_unpickable():
    st = empty_state(Counters())
    x, st = st.fresh_var()
    residual = c_match(x, llist([p_shape("box")]))
    assert constraint_weight(residual, st) is None
    queue = ConstraintQueue().push_all([residual])
    assert queue.pop(st) is None
    # Once the subject is determined it becomes pickable.
    st2 = st.__class__(st.subst.set(x.id, T_INT), st.diseqs, st.hooks, st.counter, st.counters)
    assert constraint_weight(residual, st2) is not None
    assert queue.pop(st2)[0] is residual


# ---------------------------------------------------------------------------
# The queue against the list-based reference
# ---------------------------------------------------------------------------

_TYPE_VARS = 3  # subjects; a binding makes one ground or links it onward
_CONSTRAINT_VARS = 2  # raw queue items a binding may turn into a constraint


def _queue_item(kind, subject, tvars, cvars):
    """A fresh constraint: kind 0-5 picks Eq/Ind/Call/SexpC/box Match/
    wildcard Match over a type variable or, for subject _TYPE_VARS, over
    Int; kind 6 is a raw constraint variable."""
    subj = tvars[subject] if subject < _TYPE_VARS else T_INT
    if kind == 0:
        return c_eq(subj, T_INT)
    if kind == 1:
        return c_ind(subj, T_INT)
    if kind == 2:
        return c_call(subj, LNIL, T_INT)
    if kind == 3:
        return c_sexp(0, subj, LNIL)
    if kind == 4:
        return c_match(subj, llist([p_shape("box")]))
    if kind == 5:
        return c_match(subj, llist([P_WILD]))
    return cvars[subject % _CONSTRAINT_VARS]


def _bind(state, var, value):
    """Bind var to value when it is still unbound."""
    if shallow_walk(var, state.subst) is not var:
        return state
    return State(state.subst.set(var.id, value), state.diseqs, state.hooks, state.counter, state.counters)


_item = st.tuples(st.integers(0, 6), st.integers(0, _TYPE_VARS))
_binding = st.tuples(st.integers(0, _TYPE_VARS + _CONSTRAINT_VARS - 1), st.integers(0, 3))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_item, max_size=12),
    st.lists(st.tuples(st.lists(_binding, max_size=2), st.lists(_item, max_size=4)), max_size=25),
)
def test_queue_picks_as_the_list_reference(initial, steps):
    # Each step binds some variables, picks from both queues, then
    # appends what the step spawns.
    state = empty_state(Counters())
    tvars, cvars = [], []
    for vs, n in ((tvars, _TYPE_VARS), (cvars, _CONSTRAINT_VARS)):
        for _ in range(n):
            v, state = state.fresh_var()
            vs.append(v)
    ground = (T_INT, T_STR, t_array(T_INT), T_INT)
    box = llist([p_shape("box")])
    cvalues = (c_eq(T_INT, T_INT), c_ind(tvars[0], T_INT), c_match(tvars[1], box), c_sexp(0, tvars[2], LNIL))

    def fresh_items(descs):
        return [_queue_item(k, s, tvars, cvars) for k, s in descs]

    reference = fresh_items(initial)
    queue = ConstraintQueue().push_all(reference)
    for bindings, spawned in steps:
        # The queue holds exactly the reference's items.
        assert queue.size == len(reference)
        assert sorted(map(id, queue.items())) == sorted(map(id, reference))
        for i, value in bindings:
            if i < _TYPE_VARS:
                # Links only point to a later variable, so no cycle forms.
                link = value == 3 and i + 1 < _TYPE_VARS
                state = _bind(state, tvars[i], tvars[i + 1] if link else ground[value])
            else:
                state = _bind(state, cvars[i - _TYPE_VARS], cvalues[value])
        idx = pick_next(reference, state)
        picked = queue.pop(state)
        if idx is None:
            assert picked is None
            assert bool(queue) == bool(reference)
            return
        item, rest = picked
        assert item is reference[idx]
        assert queue.pop(state)[0] is item  # popping left the queue intact
        new = fresh_items(spawned)
        reference = reference[:idx] + reference[idx + 1 :] + new
        queue = rest.push_all(new)


_link_or_bind = st.one_of(
    # Link type variable i to type variable j, bind it to a ground type,
    # or bind constraint variable k to a constraint.
    st.tuples(st.just("link"), st.integers(0, _TYPE_VARS - 1), st.integers(0, _TYPE_VARS - 1)),
    st.tuples(st.just("type"), st.integers(0, _TYPE_VARS - 1), st.integers(0, 3)),
    st.tuples(st.just("item"), st.integers(0, _CONSTRAINT_VARS - 1), st.integers(0, 3)),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_item, max_size=12),
    st.lists(st.tuples(st.lists(_link_or_bind, max_size=3), st.lists(_item, max_size=4)), max_size=25),
)
def test_queue_wakes_as_the_list_reference_under_unification(initial, steps):
    # As the test above, but every binding is a unification, so a subject
    # may first be linked to another free variable (its sleepers move)
    # and only later be bound to a type (they wake); raw constraint
    # variables become equalities, S-expression constraints on a free
    # subject or box residuals.
    state = empty_state(Counters())
    tvars, cvars = [], []
    for vs, n in ((tvars, _TYPE_VARS), (cvars, _CONSTRAINT_VARS)):
        for _ in range(n):
            v, state = state.fresh_var()
            vs.append(v)
    ground = (T_INT, T_STR, t_array(T_INT), t_sexp(LNIL))
    box = llist([p_shape("box")])
    cvalues = (c_eq(T_INT, T_INT), c_sexp(0, tvars[0], LNIL), c_match(tvars[1], box), c_ind(tvars[2], T_INT))

    def fresh_items(descs):
        return [_queue_item(k, s, tvars, cvars) for k, s in descs]

    reference = fresh_items(initial)
    queue = ConstraintQueue().push_all(reference)
    for ops, spawned in steps:
        assert queue.size == len(reference)
        assert sorted(map(id, queue.items())) == sorted(map(id, reference))
        for op, i, j in ops:
            if op == "link":
                goal = unify(tvars[i], tvars[j])
            elif op == "type":
                goal = unify(tvars[i], ground[j])
            else:
                goal = unify(cvars[i], cvalues[j])
            state = (goal(state) or (state,))[0]  # a clash leaves the state as it was
        idx = pick_next(reference, state)
        picked = queue.pop(state)
        if idx is None:
            assert picked is None
            return
        item, rest = picked
        assert item is reference[idx]
        new = fresh_items(spawned)
        reference = reference[:idx] + reference[idx + 1 :] + new
        queue = rest.push_all(new)


def test_free_subjects_behind_ground_items_are_weighed_once(monkeypatch):
    # n S-expression constraints on free subjects queued behind m ground
    # Inds: picking the Inds weighs every item once, not once per pick,
    # and binding the subjects weighs each S-expression constraint once
    # more.
    calls = []
    original = solver.constraint_weight

    def counting(c, state):
        calls.append(c)
        return original(c, state)

    monkeypatch.setattr(solver, "constraint_weight", counting)
    n, m = 30, 40
    state = empty_state(Counters())
    subjects = []
    for _ in range(n):
        v, state = state.fresh_var()
        subjects.append(v)
    inds = [c_ind(t_array(T_INT), T_INT) for _ in range(m)]
    sexps = [c_sexp(0, v, LNIL) for v in subjects]
    queue = ConstraintQueue().push_all(inds + sexps)
    for ind in inds:
        item, queue = queue.pop(state)
        assert item is ind
    assert len(calls) == n + m
    for v in subjects:
        (state, _) = unify(v, t_sexp(LNIL))(state)
    for sexp in sexps:
        item, queue = queue.pop(state)
        assert item is sexp
    assert len(calls) == 2 * n + m
    assert not queue


def test_push_nothing_returns_the_same_queue():
    queue = ConstraintQueue().push_all([c_eq(T_INT, T_INT)])
    assert queue.push_all([]) is queue
    assert not ConstraintQueue() and queue


def test_dispatching_equalities_computes_no_weight(monkeypatch):
    calls = []
    original = solver.constraint_weight

    def counting(c, state):
        calls.append(c)
        return original(c, state)

    monkeypatch.setattr(solver, "constraint_weight", counting)
    n = 200
    counters = Counters()
    res = solve(lambda vs: [c_eq(v, T_INT) for v in vs], n, counters=counters)
    assert answers_of(res) == [[T_INT] * n]
    assert counters.dispatched == n
    assert calls == []


def test_stuck_queue_of_residuals_fails():
    res = solve(lambda vs: [c_match(vs[0], llist([p_shape("box")]))], 1)
    assert res.answers == [] and res.ended


def test_empty_queue_succeeds():
    res = solve(lambda vs: [], 1)
    assert len(res.answers) == 1


# ---------------------------------------------------------------------------
# Eq / Ind
# ---------------------------------------------------------------------------


def test_eq_dispatch():
    res = solve(lambda vs: [c_eq(vs[0], T_STR)], 1)
    assert answers_of(res) == [[T_STR]]


def test_ind_string_yields_int_elements():
    res = solve(lambda vs: [c_ind(T_STR, vs[0])], 1)
    assert answers_of(res) == [[T_INT]]


def test_ind_array_yields_element_type():
    res = solve(lambda vs: [c_ind(t_array(T_STR), vs[0])], 1)
    assert answers_of(res) == [[T_STR]]


def test_ind_sexp_constrains_all_member_args():
    # Indexing A(Int) | B(u) forces u = elem = Int.
    tb = table_ab()

    def queue(vs):
        subject = t_sexp(llist([t_ctor(0, llist([T_INT])), t_ctor(1, llist([vs[1]]))]))
        return [c_ind(subject, vs[0])]

    res = solve(queue, 2, table=tb)
    assert answers_of(res) == [[T_INT, T_INT]]


def test_ind_int_subject_fails():
    res = solve(lambda vs: [c_ind(T_INT, vs[0])], 1)
    assert res.answers == [] and res.ended


def test_ind_free_subject_enumerates_shapes():
    # Universe {A/1}: a free container may be Str, an array, or a union
    # built from A.
    tb = TagTable()
    tb.intern("A", 1)
    res = solve(lambda vs: [c_ind(vs[0], T_INT), c_eq(vs[0], vs[0])], 1, table=tb, max_answers=None, fuel=200_000)
    shapes = {a[0].tag for a in answers_of(res)}
    assert "TStr" in shapes and "TArray" in shapes and "TSexp" in shapes


def test_a_free_container_is_one_branch_per_shape():
    # Three constructors: a free container is a string, an array, or one
    # S-expression whose row stays open, not one branch per tag set.
    tb = TagTable()
    for label in "ABC":
        tb.intern(label, 1)
    res = solve(lambda vs: [c_ind(vs[0], T_INT)], 1, table=tb, max_answers=None)
    assert res.ended
    (strs, arrays, sexps) = answers_of(res)
    assert (strs, arrays) == ([T_STR], [t_array(T_INT)])
    assert sexps[0].tag == "TSexp" and isinstance(sexps[0].args[0], FreeVar)


_TWENTY_CTORS = "var a;\n" + "".join(f"a := C{i};\n" for i in range(20))
FREE_CONTAINER_PROGRAMS = [
    (
        _TWENTY_CTORS + "var x;\nvar y = x[0]",
        ["a : " + " | ".join(f"C{i}" for i in range(20)), "x : Str", "y : Int"],
    ),
    (
        "var a; a := C0; a := C1; var x; var y = x[0]; case x of C0 (z) -> z | _ -> 0 esac",
        ["a : C0 | C1", "x : C0(Int)", "y : Int"],
    ),
]


@pytest.mark.parametrize("source, types", FREE_CONTAINER_PROGRAMS)
def test_indexing_a_free_container_does_not_enumerate_tag_sets(source, types):
    # The time of a free Ind once doubled per interned constructor: 13 s
    # for the first program.
    start = time.perf_counter()
    report = check_source(source)
    elapsed = time.perf_counter() - start
    assert report.verdict == TYPED
    assert report.render_bindings() == types
    assert elapsed < 1.0, elapsed


def test_ind_unfolds_mu_subject():
    # mu r. [r] indexes to itself.
    m = t_mu("r", t_array(t_name("r")))
    res = solve(lambda vs: [c_ind(m, vs[0])], 1)
    ((elem,),) = answers_of(res)
    assert elem == m


# ---------------------------------------------------------------------------
# Call
# ---------------------------------------------------------------------------


def id_arrow():
    # forall p. (p) -> p
    return t_arrow(llist(["p"]), LNIL, llist([t_name("p")]), t_name("p"))


def test_call_instantiates_polymorphic_arrow():
    res = solve(lambda vs: [c_call(id_arrow(), llist([T_STR]), vs[0])], 1)
    assert answers_of(res) == [[T_STR]]


def test_call_arity_mismatch_fails():
    res = solve(lambda vs: [c_call(id_arrow(), llist([T_STR, T_INT]), vs[0])], 1)
    assert res.answers == []


def test_call_ground_monomorphic():
    arrow = t_arrow(LNIL, LNIL, llist([T_INT]), T_INT)
    res = solve(lambda vs: [c_call(arrow, llist([vs[0]]), vs[1])], 2)
    assert answers_of(res) == [[T_INT, T_INT]]


def test_call_bound_constraints_are_discharged():
    # forall a b. Ind(a, b) => (a) -> b  applied to [Str] gives Str.
    arrow = t_arrow(
        llist(["a", "b"]),
        llist([c_ind(t_name("a"), t_name("b"))]),
        llist([t_name("a")]),
        t_name("b"),
    )
    res = solve(lambda vs: [c_call(arrow, llist([t_array(T_STR)]), vs[0])], 1)
    assert answers_of(res) == [[T_STR]]


def test_call_bound_constraint_failure_propagates():
    # Same arrow applied to Int: no Ind rule covers Int subjects.
    arrow = t_arrow(
        llist(["a", "b"]),
        llist([c_ind(t_name("a"), t_name("b"))]),
        llist([t_name("a")]),
        t_name("b"),
    )
    res = solve(lambda vs: [c_call(arrow, llist([T_INT]), vs[0])], 1, fuel=200_000)
    assert res.answers == []


def test_call_on_free_callee_synthesizes_plain_arrow():
    # With pruning, a free callee becomes an unquantified arrow.
    res = solve(lambda vs: [c_call(vs[0], llist([T_INT]), vs[1]), c_eq(vs[1], T_STR)], 2)
    ((fn, r),) = answers_of(res)
    assert fn.tag == "TArrow"
    bvars, bcs, params, result = fn.args
    assert bvars == LNIL and bcs == LNIL
    assert params == llist([T_INT]) and result == T_STR


def test_call_non_arrow_callee_fails():
    res = solve(lambda vs: [c_call(T_INT, llist([]), vs[0])], 1)
    assert res.answers == []


# ---------------------------------------------------------------------------
# Sexp membership
# ---------------------------------------------------------------------------


def test_sexp_ground_member_present():
    tb = table_ab()
    subject = t_sexp(llist([t_ctor(0, llist([T_INT]))]))
    res = solve(lambda vs: [c_sexp(0, subject, llist([vs[0]]))], 1, table=tb)
    assert answers_of(res) == [[T_INT]]


def test_sexp_ground_member_absent_fails():
    tb = table_ab()
    subject = t_sexp(llist([t_ctor(0, llist([T_INT]))]))
    res = solve(lambda vs: [c_sexp(1, subject, llist([vs[0]]))], 1, table=tb)
    assert res.answers == [] and res.ended


def test_sexp_wrong_args_fails():
    # Membership of A(Str) in a union whose A carries [Int] fails even
    # though the tag matches.
    tb = table_ab()
    subject = t_sexp(llist([t_ctor(0, llist([t_array(T_INT)]))]))
    res = solve(lambda vs: [c_sexp(0, subject, llist([T_STR])), c_eq(vs[0], T_INT)], 1, table=tb)
    assert res.answers == [] and res.ended


def test_sexp_non_union_subject_fails():
    tb = table_ab()
    res = solve(lambda vs: [c_sexp(0, t_array(T_INT), llist([vs[0]]))], 1, table=tb)
    assert res.answers == []


def test_sexp_free_subject_enumerates_bounded_lists():
    # Universe of 3 constructors: a single membership constraint on a
    # free subject has exactly 3 solutions (candidate lists of lengths
    # 1, 2 and 3 with the required member first).
    tb = TagTable()
    tb.intern("A", 0)
    tb.intern("B", 0)
    tb.intern("C", 0)
    res = solve(
        lambda vs: [c_sexp(0, vs[0], llist([]))], 1, table=tb, max_answers=None, fuel=300_000
    )
    assert res.ended
    lists = answers_of(res)
    assert len(lists) == 3
    lengths = set()
    for (subj,) in lists:
        cells = []
        t = subj.args[0]
        while t.tag == "lcons":
            cells.append(t.args[0])
            t = t.args[1]
        lengths.add(len(cells))
        # The determined member comes first.
        assert cells[0].args[0] == 0
    assert lengths == {1, 2, 3}


def test_sexp_two_constraints_two_ctor_universe_one_answer():
    # {Nil/0, Cons/2}: requiring both Nil and Cons membership on one free
    # subject leaves exactly one candidate (the 2-element list), because
    # the length bound equals the universe size and tags must differ.
    tb = TagTable()
    nil = tb.intern("Nil", 0)
    cons = tb.intern("Cons", 2)
    res = solve(
        lambda vs: [
            c_sexp(nil, vs[0], llist([])),
            c_sexp(cons, vs[0], llist([T_INT, vs[1]])),
        ],
        2,
        table=tb,
        max_answers=None,
        fuel=300_000,
    )
    assert res.ended
    assert len(res.answers) == 1


def test_sexp_length_bound_respected():
    # One constructor in the universe: only the singleton list exists.
    tb = TagTable()
    tb.intern("A", 0)
    res = solve(lambda vs: [c_sexp(0, vs[0], llist([]))], 1, table=tb, max_answers=None)
    assert res.ended and len(res.answers) == 1


def _nested_list(n):
    return "var l = " + "".join(f"Cons ({i}, " for i in range(n)) + "Nil" + ")" * n


def test_nested_list_literals_cost_linear_fuel():
    # Each literal leaves its row open; one labeling step closes them all.
    # Choosing every row's length where it was scanned made the fuel grow
    # about fivefold per two elements, and 14 elements ran out of 1M steps.
    fuel = {}
    for n in (6, 14, 40):
        report = check_source(_nested_list(n))
        assert report.verdict == TYPED
        assert report.render_bindings() == ["l : " + "Cons(Int, " * n + "Nil" + ")" * n]
        fuel[n] = report.stats["fuel-used"]
    per_element = (fuel[14] - fuel[6]) / 8, (fuel[40] - fuel[14]) / 26
    assert max(per_element) < 1.25 * min(per_element), fuel
    assert fuel[40] < 3_000


def test_labeling_enumerates_free_tag_cells_after_the_members():
    # {A/0, B/0, C/0}: an open row holding A closes as A, A | a, A | a | b,
    # the free-tag cells last; with B also a member, A | B and A | B | a.
    tb = TagTable()
    a, b = tb.intern("A", 0), tb.intern("B", 0)
    tb.intern("C", 0)

    def shapes(queue):
        res = solve(queue, 1, table=tb, max_answers=None)
        assert res.ended
        return [pretty_type(subj, tb) for (subj,) in answers_of(res)]

    assert sorted(shapes(lambda vs: [c_sexp(a, vs[0], LNIL)])) == ["A", "A | a", "A | a | b"]
    both = shapes(lambda vs: [c_sexp(a, vs[0], LNIL), c_sexp(b, vs[0], LNIL)])
    assert sorted(both) == ["A | B", "A | B | a"]


def test_a_tail_keeps_one_lacks_residual_per_tag():
    # Two memberships of A scan the same open row: its tail sleeps under
    # one lacks residual for A, not two; one for B joins it.
    tb = table_ab()
    state = empty_state(Counters())
    tail, state = state.fresh_var()
    lacks = [c_lacks(0, tail, 1), c_lacks(0, tail, 1), c_lacks(1, tail, 1)]
    queue = ConstraintQueue().push_all(lacks)
    assert queue.pop(state) is None
    assert queue.residuals(state) == [lacks[0], lacks[2]]


def test_an_open_tail_bound_later_wakes_its_lacks_residual():
    # A | t lacks A past the first cell; a later A cell on t is a clash.
    tb = table_ab()

    def queue(vs):
        row = lcons(t_ctor(0, llist([T_INT])), vs[1])
        return [c_eq(vs[0], t_sexp(row)), c_sexp(0, vs[0], llist([T_INT])), c_eq(vs[1], llist([t_ctor(0, llist([T_INT]))]))]

    res = solve(queue, 2, table=tb, max_answers=None)
    assert res.answers == [] and res.ended


def test_equal_open_rows_share_one_tail():
    # A(Int) | s and A(Int) | t are equal by unifying s with t: one answer,
    # and the search ends. Enumerating the two tails' lengths cell by cell
    # never would.
    row = lambda tail: t_sexp(lcons(t_ctor(0, llist([T_INT])), tail))
    res = run(lambda q: fresh_many(2, lambda vs: conj(unify(q, llist(vs)), eq_t(row(vs[0]), row(vs[1])))), fuel=20_000)
    assert res.ended and len(res.answers) == 1
    ((s, t),) = answers_of(res)
    assert s == t


# Indexing reads every cell of a row, including cells and arguments bound
# after the Ind was dispatched; these were Typed with an answer that
# broke the Ind.
IND_ON_OPEN_ROWS = [
    ('var x = T1, y = "s"; y := x[0]; case x of T2 (z) -> z + 1 | _ -> 0 esac', ILL_TYPED, None),
    ('fun f (x) { var y = x[0]; y := "s"; case x of T2 (z) -> z | _ -> 0 esac }; var r = f (T1)', ILL_TYPED, None),
    (
        'var x = T1, y; y := x[0]; y := "s"; case x of T2 (z) -> 0 | _ -> 0 esac',
        TYPED,
        ["x : T1 | T2(Str)", "y : Str"],
    ),
]


@pytest.mark.parametrize("source, verdict, types", IND_ON_OPEN_ROWS)
def test_ind_constrains_cells_added_to_an_open_row(source, verdict, types):
    report = check_source(source)
    assert report.verdict == verdict
    if types is not None:
        assert report.render_bindings() == types


# Random membership problems: subjects are the answer variables, every
# argument or element type is Int, Str or a subject.
_arg = st.one_of(st.sampled_from([T_INT, T_STR]), st.integers(0, 2))


@st.composite
def _row_problems(draw):
    arities = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    n_subjects = draw(st.integers(1, 3))
    subject = st.integers(0, n_subjects - 1)
    tag = st.integers(0, len(arities) - 1)
    arg = _arg.map(lambda a: a % n_subjects if isinstance(a, int) else a)
    pattern = st.one_of(
        tag.map(lambda t: ("sexp", t)),
        st.sampled_from([("box",), ("wild",)]),
    )
    constraint = st.one_of(
        st.tuples(st.just("SexpC"), tag, subject).flatmap(
            lambda c: st.tuples(*(st.just(x) for x in c), st.lists(arg, min_size=arities[c[1]], max_size=arities[c[1]]))
        ),
        st.tuples(st.just("Eq"), subject, st.one_of(arg, st.just(t_array(T_INT)))),
        st.tuples(st.just("Ind"), subject, arg),
        st.tuples(st.just("Match"), subject, st.lists(pattern, min_size=1, max_size=2)),
    )
    return arities, n_subjects, draw(st.lists(constraint, min_size=1, max_size=5))


def _row_queue(problem, vs):
    arities, _, spec = problem

    def ty(a):
        return vs[a] if isinstance(a, int) else a

    def pat(p):
        if p[0] == "sexp":
            return p_sexp(p[1], llist([P_WILD] * arities[p[1]]))
        return P_WILD if p[0] == "wild" else p_shape("box")

    out = []
    for kind, i, *rest in spec:
        if kind == "SexpC":
            out.append(c_sexp(i, vs[rest[0]], llist([ty(a) for a in rest[1]])))
        elif kind == "Eq":
            out.append(c_eq(vs[i], ty(rest[0])))
        elif kind == "Ind":
            out.append(c_ind(vs[i], ty(rest[0])))
        else:
            out.append(c_match(vs[i], llist([pat(p) for p in rest[0]])))
    return out


@settings(max_examples=150, deadline=None)
@given(_row_problems())
def test_lazy_rows_agree_with_eager_enumeration(problem):
    # Every answer, with pruning on: the lazy rows and one labeling step
    # give the same multiset of answers, up to renaming, as choosing each
    # row's length where it is scanned (oracles.eager_solve_sexp). The
    # eager reference can enumerate forever where the lazy one ends (it
    # forks on rows whose free cells an equality then compares, argument
    # list by argument list), and on recursive problems its forks can
    # nest mu unfoldings past the interpreter's stack; such problems are
    # skipped.
    arities, n_subjects, _ = problem
    tb = TagTable()
    for i, arity in enumerate(arities):
        tb.intern(f"T{i}", arity)

    def answers(fuel):
        # The answers of a search that did not end are not compared, nor
        # printed: an unended enumeration can grow one without bound.
        res = solve(lambda vs: _row_queue(problem, vs), n_subjects, table=tb, max_answers=None, fuel=fuel)
        return res.ended, res.ended and Counter(repr(canonicalize(a)) for a in res.answers)

    lazy_ended, lazy = answers(20_000)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "solve_sexp", oracles.eager_solve_sexp)
        try:
            eager_ended, eager = answers(20_000)
        except RecursionError:
            eager_ended = False
    assume(eager_ended)
    assert lazy_ended
    assert lazy == eager


@settings(max_examples=150, deadline=None)
@given(_row_problems(), st.data())
def test_repeated_constraints_keep_the_verdict_and_answers(problem, data):
    # A conjunction is idempotent: interleaving copies of some of a
    # problem's constraints (equal terms, built apart) into its queue,
    # each somewhere after its original, keeps every answer, up to
    # renaming, and the search still ends. (A copy placed before its
    # original would reorder the problem: rows list their tags in the
    # order memberships add them.)
    arities, n_subjects, spec = problem
    tb = TagTable()
    for i, arity in enumerate(arities):
        tb.intern(f"T{i}", arity)
    index = st.integers(0, len(spec) - 1)
    copies = data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=4))

    def with_copies(vs):
        queue, again = _row_queue(problem, vs), _row_queue(problem, vs)
        out = []
        for j, c in enumerate(queue):
            out.append(c)
            out += [again[k] for k, after in copies if max(k, after) == j]
        return out

    def answers(build, fuel):
        res = solve(build, n_subjects, table=tb, max_answers=None, fuel=fuel)
        return res.ended, res.ended and Counter(repr(canonicalize(a)) for a in res.answers)

    ended, plain = answers(lambda vs: _row_queue(problem, vs), 20_000)
    assume(ended)
    assert answers(with_copies, 100_000) == (True, plain)


# ---------------------------------------------------------------------------
# The handlers against their goal-pipeline references
# ---------------------------------------------------------------------------

# Random handler problems: memberships, indexing, calls and matches over
# subjects that are answer variables (sometimes `mu` types), so the
# handlers meet free, bound and recursive subjects, known and free
# callees, and every pattern kind.
_ARROWS = (
    t_arrow(llist(["p"]), LNIL, llist([t_name("p")]), t_name("p")),
    t_arrow(LNIL, LNIL, llist([T_INT]), T_INT),
    t_arrow(llist(["a", "b"]), llist([c_ind(t_name("a"), t_name("b"))]), llist([t_name("a")]), t_name("b")),
    t_arrow(LNIL, LNIL, llist([T_INT, T_STR]), T_INT),
)
_PATTERNS = ("sexp", "box", "wild", "unbox", "str", "array", "sexpshape", "fun", "at", "elems")


@st.composite
def _handler_problems(draw):
    arities = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    n = draw(st.integers(1, 3))
    var = st.integers(0, n - 1).map(lambda i: ("var", i))
    atom = st.one_of(st.sampled_from([("int",), ("str",)]), var)
    ty = st.one_of(
        atom,
        atom.map(lambda t: ("arr", t)),
        st.sampled_from([("mu_arr",), ("mu_row",)]),
        st.integers(0, len(_ARROWS) - 1).map(lambda i: ("arrow", i)),
    )
    subject = st.one_of(var, var, ty)
    tag = st.integers(0, len(arities) - 1)
    pattern = st.one_of(
        st.sampled_from(_PATTERNS).flatmap(lambda k: st.tuples(st.just(k), tag if k == "sexp" else var)),
    )
    constraint = st.one_of(
        st.tuples(st.just("SexpC"), tag, subject).flatmap(
            lambda c: st.tuples(*(st.just(x) for x in c), st.lists(atom, min_size=arities[c[1]], max_size=arities[c[1]]))
        ),
        st.tuples(st.just("Eq"), var, ty),
        st.tuples(st.just("Ind"), subject, atom),
        st.tuples(st.just("Call"), subject, st.lists(atom, max_size=2), atom),
        st.tuples(st.just("Match"), subject, st.lists(pattern, min_size=1, max_size=2)),
    )
    return arities, n, draw(st.lists(constraint, min_size=1, max_size=4))


def _handler_queue(problem, vs):
    arities, _, spec = problem

    def ty(d):
        kind = d[0]
        if kind == "var":
            return vs[d[1]]
        if kind in ("int", "str"):
            return T_INT if kind == "int" else T_STR
        if kind == "arr":
            return t_array(ty(d[1]))
        if kind == "mu_arr":
            return t_mu("r", t_array(t_name("r")))
        if kind == "mu_row":
            return t_mu("r", t_sexp(llist([t_ctor(0, llist([t_name("r")] * arities[0]))], vs[0])))
        return _ARROWS[d[1]]

    def pat(p):
        kind, x = p
        if kind == "sexp":
            return p_sexp(x, llist([P_WILD] * arities[x]))
        if kind == "at":
            return p_at(ty(x), P_WILD)
        if kind == "elems":
            return p_array(llist([P_WILD]))
        return P_WILD if kind == "wild" else p_shape({"sexpshape": "sexp"}.get(kind, kind))

    out = []
    for kind, a, *rest in spec:
        if kind == "SexpC":
            out.append(c_sexp(a, ty(rest[0]), llist([ty(t) for t in rest[1]])))
        elif kind == "Eq":
            out.append(c_eq(ty(a), ty(rest[0])))
        elif kind == "Ind":
            out.append(c_ind(ty(a), ty(rest[0])))
        elif kind == "Call":
            out.append(c_call(ty(a), llist([ty(t) for t in rest[0]]), ty(rest[1])))
        else:
            out.append(c_match(ty(a), llist([pat(p) for p in rest[0]])))
    return out


@settings(max_examples=300, deadline=None)
@given(_handler_problems(), st.booleans())
# A free callee's binder and constraint lists both fork without pruning:
# the second fork must bind to the first's stream as `conj` binds it.
@example(([0], 2, [("SexpC", 0, ("var", 0), []), ("Call", ("var", 1), [], ("int",))]), False)
# A box pattern on a bound subject is decided in the dispatch.
@example(([0], 1, [("Match", ("str",), [("box", ("var", 0))])]), True)
# A call on an arrow whose parameter list a `#fun` pattern left open.
@example(([0], 1, [("Match", ("var", 0), [("fun", ("var", 0))]), ("Call", ("var", 0), [("int",)], ("int",))]), True)
def test_direct_handlers_answer_as_the_goal_pipelines(problem, prune):
    # The direct handlers build a stream only where the references
    # (`oracles.REFERENCE_HANDLERS`) make a real choice, so both search
    # the same tree and take the same turns in it, the direct ones with
    # fewer engine steps: the same answers in the same order, after the
    # same dispatches. Where the reference runs out of fuel first, its
    # answers so far are the first of the direct handlers'.
    arities, n, _ = problem
    tb = TagTable()
    for i, arity in enumerate(arities):
        tb.intern(f"T{i}", arity)

    def answers():
        counters = Counters()
        res = solve(
            lambda vs: _handler_queue(problem, vs), n, table=tb, max_answers=4, fuel=4_000, prune=prune,
            counters=counters,
        )
        return [repr(canonicalize(a)) for a in res.answers], res.fuel_exhausted, counters.dispatched

    direct, direct_out, direct_dispatched = answers()
    with pytest.MonkeyPatch.context() as m:
        for name, reference in oracles.REFERENCE_HANDLERS.items():
            m.setattr(solver, name, reference)
        want, want_out, want_dispatched = answers()
    if want_out:
        assert direct[: len(want)] == want
    else:
        assert (direct, direct_out, direct_dispatched) == (want, False, want_dispatched)


# ---------------------------------------------------------------------------
# Match
# ---------------------------------------------------------------------------


def test_match_wildcard_always_succeeds():
    res = solve(lambda vs: [c_match(T_INT, llist([P_WILD]))], 1)
    assert len(res.answers) == 1


def test_match_str_shape_on_int_fails():
    res = solve(lambda vs: [c_match(T_INT, llist([p_shape("str")]))], 1)
    assert res.answers == [] and res.ended


def test_match_str_shape_on_str():
    res = solve(lambda vs: [c_match(T_STR, llist([p_shape("str")]))], 1)
    assert len(res.answers) == 1


def test_match_unbox_forces_int():
    res = solve(lambda vs: [c_match(vs[0], llist([p_shape("unbox")]))], 1)
    assert answers_of(res) == [[T_INT]]


def test_match_box_on_determined_int_fails():
    res = solve(lambda vs: [c_match(T_INT, llist([p_shape("box")]))], 1)
    assert res.answers == [] and res.ended


def test_match_box_on_array_succeeds():
    res = solve(lambda vs: [c_match(t_array(T_INT), llist([p_shape("box")]))], 1)
    assert len(res.answers) == 1


def test_match_residual_box_resolves_once_subject_determined():
    # The all-box Match is deferred until the equality lands.
    res = solve(
        lambda vs: [c_match(vs[0], llist([p_shape("box")])), c_eq(vs[0], t_array(T_INT))], 1
    )
    assert answers_of(res) == [[t_array(T_INT)]]


# ---------------------------------------------------------------------------
# Order independence and fuel monotonicity
# ---------------------------------------------------------------------------


def test_queue_order_does_not_change_satisfiability():
    import itertools

    tb = table_ab()
    base = [
        lambda vs: c_eq(vs[0], t_array(T_INT)),
        lambda vs: c_ind(vs[0], vs[1]),
        lambda vs: c_eq(vs[1], T_INT),
    ]
    outcomes = set()
    for perm in itertools.permutations(base):
        res = solve(lambda vs, p=perm: [f(vs) for f in p], 2, table=tb, fuel=200_000)
        outcomes.add(tuple(map(tuple, answers_of(res))))
    assert len(outcomes) == 1


def test_fuel_monotonicity():
    # If an answer is found with fuel f, it is also found with any f' > f.
    tb = table_ab()

    def queue(vs):
        return [c_ind(vs[0], T_INT), c_eq(vs[0], T_STR)]

    lo = None
    for fuel in (50, 200, 1_000, 10_000, 100_000):
        res = solve(queue, 1, table=tb, fuel=fuel)
        found = len(res.answers) == 1
        if lo is None and found:
            lo = fuel
        if lo is not None:
            assert found, f"answer lost at fuel {fuel}"
    assert lo is not None


def test_counters_updated_on_dispatch():
    c = Counters()
    solve(lambda vs: [c_eq(vs[0], T_INT)], 1, counters=c)
    assert c.dispatched == 1


# ---------------------------------------------------------------------------
# Variant loop check
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent


def _state(bindings=(), diseqs=()):
    subst = PMap()
    for v, t in bindings:
        subst = subst.set(v.id, t)
    st = State(subst, (), {}, 100, Counters())
    for a, b in diseqs:
        st = disunify(a, b)(st)[0]
    return st


def _scenario(x, y, z, mu_name, queue=None, roots=None, diseq=T_STR, extra=()):
    """The key of a quantified Call dispatch over x, y, z, with a hook-made
    mu binder; each keyword varies one part of the state."""
    arrow = t_arrow(
        llist(["a"]),
        llist([c_ind(t_name("a"), y)]),
        LNIL,
        t_mu(mu_name, t_array(t_name(mu_name))),
    )
    item = c_call(arrow, LNIL, z)
    if queue is None:
        queue = ConstraintQueue().push_all([c_eq(x, T_INT), c_ind(x, y)])
    if roots is None:
        roots = llist([x, z])
    diseqs = [(y, diseq)] if diseq is not None else []
    st = _state([(Var(0), roots), *extra], diseqs)
    return variant_key(item, queue, st.subst, st.diseqs)


def test_variant_key_ignores_variable_ids_and_hook_binder_names():
    base = _scenario(Var(1), Var(2), Var(3), "r7")
    # Other ids, another hook name, and x reached through a binding.
    x = Var(15)
    renamed = _scenario(
        x, Var(12), Var(13), "r20", roots=llist([Var(11), Var(13)]), extra=[(Var(11), x)]
    )
    assert renamed == base


def test_variant_key_sees_raw_item_diseq_and_root_binding():
    x, y, z = Var(1), Var(2), Var(3)
    base = _scenario(x, y, z, "r7")
    # The same two items, queued behind a raw variable.
    behind_raw = ConstraintQueue().push_all([Var(4), c_eq(x, T_INT), c_ind(x, y)])
    assert behind_raw.mixed == 2
    assert _scenario(x, y, z, "r7", queue=behind_raw) != base
    assert _scenario(x, y, z, "r7", diseq=None) != base
    assert _scenario(x, y, z, "r7", diseq=T_INT) != base
    assert _scenario(x, y, z, "r7", roots=llist([x, Var(4)])) != base
    assert _scenario(x, y, z, "r7", roots=llist([x, x])) != base


def test_variant_key_of_long_terms_needs_no_deep_recursion():
    # A Call on an arrow with 1500 constraints, 3000 queued items, keyed
    # and hashed in a fresh interpreter at the default recursion limit.
    code = (
        "import sys\n"
        "from shapecheck.engine import PMap, Var\n"
        "from shapecheck.solver import ConstraintQueue, variant_key\n"
        "from shapecheck.types import LNIL, c_call, c_ind, llist, t_arrow, t_name\n"
        "assert sys.getrecursionlimit() <= 1000\n"
        "def key(base):\n"
        "    cs = llist([c_ind(t_name('a'), Var(base + i)) for i in range(1500)])\n"
        "    item = c_call(t_arrow(llist(['a']), cs, LNIL, t_name('a')), LNIL, Var(base))\n"
        "    queue = ConstraintQueue().push_all([c_ind(Var(base + i), Var(base)) for i in range(3000)])\n"
        "    return variant_key(item, queue, PMap(), ())\n"
        "k = key(1)\n"
        "assert k == key(5000) and hash(k) == hash(key(5000)) and len(k) > 15000\n"
        "print('ok')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_hooks_are_empty_at_every_entail_entry(monkeypatch):
    # The variant key leaves out the occurs hooks: every unification
    # empties them, and nothing registers one across a dispatch.
    seen = []
    entail = solver._entail

    def spy(*args):
        goal = entail(*args)

        def wrapped(state):
            seen.append(state.hooks)
            return goal(state)

        return wrapped

    monkeypatch.setattr(solver, "_entail", spy)
    for path in sorted((ROOT / "corpus").glob("*.lama")):
        check_source(path.read_text(encoding="utf-8"), CheckOptions(fuel=20_000))
    check_source((ROOT / "tests" / "golden" / "mixed.lama").read_text(encoding="utf-8"))
    for source in LOOP_PROGRAMS:
        check_source(source[0])
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import programs
    finally:
        sys.path.remove(str(ROOT / "bench"))
    for case in programs.synth_mixed_cases(1):
        check_source(case.source)
    assert len(seen) > 100
    assert all(hooks == {} for hooks in seen)


SELF_ARRAY = (ROOT / "corpus" / "self_array.lama").read_text(encoding="utf-8")

# Without the loop check the first three ran out of fuel at any budget.
LOOP_PROGRAMS = [
    (SELF_ARRAY, UNKNOWN, None),
    ("fun g (a) { a [0] () } var x = [fun () { g (x) }]; g (x)", UNKNOWN, None),
    ("var x = [fun (n) { if n then x [0] (n - 1) else 0 fi }]; x [0] (3)", UNKNOWN, None),
    (
        "var x = [fun () { x [0] () }]; var y = 1; y",
        TYPED,
        ["x : mu a. [forall b c. Ind(a, c) & Call(c; ; b) => () -> b]", "y : Int"],
    ),
    ("var x = [fun () { 1 }, fun () { x [0] () }]; x [1] ()", ILL_TYPED, None),
    # The repeating Call's function is a mu around the quantified arrow.
    ("var x = A (fun () { case x of A (f) -> f () esac }); case x of A (f) -> f () esac", UNKNOWN, None),
]


@pytest.mark.parametrize("source, verdict, types", LOOP_PROGRAMS)
def test_loop_check_outcomes(source, verdict, types):
    report = check_source(source)
    assert report.verdict == verdict
    dispatched = report.stats["constraints-dispatched"]
    if verdict == UNKNOWN:
        assert report.message.startswith("search cycles: Call(")
        assert " repeats dispatch " in report.message
        assert dispatched < 100
    elif verdict == TYPED:
        assert report.render_bindings() == types
    else:
        assert dispatched == 1
        assert not report.message.startswith("search cycles")


REPEATED_CALLS = (
    "fun f (g, s) { case s of A -> [g (1)] | B -> [g (1)] | C -> [g (1)] | D -> [g (1)] | _ -> [g (1)] esac }\n"
    "var y = f (fun (x) { x }, A)\n"
)


def test_a_repeated_call_of_a_parameter_is_instantiated_once(monkeypatch):
    # `f`'s scheme calls its parameter `g` five times, each result in an
    # array that an equality (kept whole in the scheme) makes the first's.
    # Once those equalities are solved, the five Calls are one under the
    # substitution, and the entailed set drops the repeats before they are
    # instantiated: `f` and `g` are instantiated three times in all, six
    # times without the set. The counts stay those of dispatching them.
    scheme = [ln for ln in check_source(REPEATED_CALLS).render_bindings() if ln.startswith("f : ")]
    assert scheme[0].count("Call(a; Int; ") == 5
    calls = []
    instantiate = solver.apply_type_subst
    monkeypatch.setattr(solver, "apply_type_subst", lambda *args: calls.append(None) or instantiate(*args))
    report = check_source(REPEATED_CALLS)
    stats = report.stats
    assert (report.verdict, report.render_bindings()[-1]) == (TYPED, "y : [Int]")
    assert len(calls) == 3
    assert (stats["constraints-dispatched"], stats["engine-unifications"], stats["fuel-used"]) == (24, 20, 43)
    calls.clear()
    monkeypatch.setattr(solver, "_entailed_key", lambda c, subst: None)
    assert check_source(REPEATED_CALLS).verdict == TYPED
    assert len(calls) == 6


def test_no_variant_key_is_built_on_decided_corpus_and_bench_programs(monkeypatch):
    # The size and shape prefilter leaves no candidate ancestor on these
    # programs, so their quantified Call dispatches cost no key.
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import programs
    finally:
        sys.path.remove(str(ROOT / "bench"))
    keyed, visits = [], []

    class CountingVisit(solver._Visit):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            visits.append(1)

    monkeypatch.setattr(solver, "_Visit", CountingVisit)
    monkeypatch.setattr(solver, "variant_key", lambda *a: keyed.append(1) or ())
    sources = [
        (ROOT / "corpus" / f"{name}.lama").read_text(encoding="utf-8")
        for name in ("case_list", "closure_chain", "heterogeneous", "sexp_assign", "sort")
    ]
    for seed in (1, 2):
        sources += [case.source for case in programs.synth_mixed_cases(seed)]
    for source in sources:
        assert check_source(source).verdict in (TYPED, ILL_TYPED)
    assert len(visits) > 100
    assert keyed == []


# ---------------------------------------------------------------------------
# The equality bypass against a queue of every item
# ---------------------------------------------------------------------------

# Small programs over three variables and two functions, one statement
# per template: integers, strings, arrays, S-expressions, lists, case
# patterns (constructors, `@`, shapes) and calls of both functions.
_STATEMENTS = (
    "{a} := {b};",
    "{a} := 1;",
    '{a} := "s";',
    "{a} := [{b}];",
    "{a} := {b} [0];",
    "{a} := A ({b});",
    "{a} := B ({b}, {c});",
    "{a} := Nil;",
    "{a} := Cons ({b}, {c});",
    "{a} := case {b} of A (u) -> u | B (u, w) -> w | _ -> {c} esac;",
    "{a} := case {b} of u@Cons (_, _) -> u | Nil -> {c} esac;",
    "{a} := case {b} of #box -> 1 | #str -> 2 | _ -> 0 esac;",
    "{a} := f ({b});",
    "{a} := g ({b});",
    "{a} := {b} + 1;",
)
_PREAMBLE = "var x, y, z;\nfun f (p) { p [0] }\nfun g (q) { case q of A (r) -> r | _ -> q esac }\n"
_statement = st.tuples(
    st.sampled_from(_STATEMENTS), st.sampled_from("xyz"), st.sampled_from("xyz"), st.sampled_from("xyz")
).map(lambda t: t[0].format(a=t[1], b=t[2], c=t[3]))
_small_programs = st.lists(_statement, min_size=1, max_size=6).map(lambda ss: _PREAMBLE + "\n".join(ss))


def _outcome(source, prune, fuel):
    """What decides a check's verdict and message, every answer of up to
    7 and the dispatch count, but not the steps (a queued equality takes
    one per pick); None when the fuel runs out. The constraint a message
    names (the cut `Call`, or the last dispatched one) is compared as a
    term, not rendered: a type that shares subterms prints as a tree,
    exponentially long."""
    options = CheckOptions(fuel=fuel, max_answers=7, prune=prune)
    result, counters = solve_gen(infer_program(parse_program(source)), options)
    if result.fuel_exhausted:
        return None
    named = counters.cycle or counters.last_constraint
    terms = [*result.answers, *([reify_term(named[0], named[1])] if named else [])]
    cut_at = counters.cycle[2:] if counters.cycle else None
    return (len(result.answers), cut_at, counters.dispatched), terms


def _same_term(a, b) -> bool:
    """a == b, comparing each pair of shared subterms once: answers share
    subterms, and as trees they can be exponentially larger."""
    todo, met = [(a, b)], set()
    while todo:
        x, y = todo.pop()
        if (id(x), id(y)) in met:
            continue
        met.add((id(x), id(y)))
        if isinstance(x, Compound) and isinstance(y, Compound) and x.tag == y.tag and len(x.args) == len(y.args):
            todo.extend(zip(x.args, y.args))
        elif isinstance(x, Compound) or isinstance(y, Compound) or x != y:
            return False
    return True


def _assert_bypass_as_queued(source, prune) -> bool:
    """The outcome of a program is the same with every equality queued;
    False, comparing nothing, for a program whose check runs out of fuel.
    The queued run, which takes more steps, has ten times the fuel."""
    bypass = _outcome(source, prune, 20_000)
    if bypass is None:
        return False
    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "ConstraintQueue", oracles.ListQueue)
        m.setattr(solver, "_enqueue", oracles.queue_everything)
        queued = _outcome(source, prune, 200_000)
    assert queued is not None
    assert bypass[0] == queued[0]
    assert len(bypass[1]) == len(queued[1])
    assert all(map(_same_term, bypass[1], queued[1]))
    return True


_DIFFERENTIAL_SOURCES = {
    **{path.stem: path.read_text(encoding="utf-8") for path in (ROOT / "corpus").glob("*.lama")},
    "mixed": (ROOT / "tests" / "golden" / "mixed.lama").read_text(encoding="utf-8"),
    **{f"loop{i}": source for i, (source, _, _) in enumerate(LOOP_PROGRAMS)},
}


@pytest.mark.parametrize("prune", [True, False])
@pytest.mark.parametrize("name", sorted(_DIFFERENTIAL_SOURCES))
def test_equality_bypass_answers_as_a_queue_of_every_item(name, prune):
    # Dispatching new equalities at once, outside the queue, gives what
    # queuing every item in one list and picking by weight gives.
    assert _assert_bypass_as_queued(_DIFFERENTIAL_SOURCES[name], prune)


@settings(max_examples=150, deadline=None)
@given(_small_programs, st.booleans())
def test_equality_bypass_answers_as_a_queue_of_every_item_on_small_programs(source, prune):
    assume(_assert_bypass_as_queued(source, prune))


# ---------------------------------------------------------------------------
# Dropping what the branch entails against dispatching every pick
# ---------------------------------------------------------------------------


def _entailed_outcome(source, prune, fuel, answers=7):
    """How a check's search ended, its answers and, when it has none, the
    constraint its message names, as terms, its work counters, and whether
    the search was done; None when the fuel runs out."""
    options = CheckOptions(fuel=fuel, max_answers=answers, prune=prune)
    result, counters = solve_gen(infer_program(parse_program(source)), options)
    if result.fuel_exhausted:
        return None
    ended = "answers" if result.answers else "cycle" if counters.cycle else "fails"
    named = counters.cycle or counters.last_constraint
    terms = result.answers or ([reify_term(named[0], named[1])] if named else [])
    work = (counters.dispatched, counters.unifications, counters.steps)
    return ended, len(result.answers), terms, work, result.ended


def _same_up_to_names(a, b) -> bool:
    """`_same_term`, with names (of mu and arrow binders) renamed one to
    one and free variables compared by their display index: a dropped
    dispatch allocates no fresh variables, and an occurs hook names the
    binder it closes after a variable's id."""
    todo, met, left, right = [(a, b)], set(), {}, {}
    while todo:
        x, y = todo.pop()
        if (id(x), id(y)) in met:
            continue
        met.add((id(x), id(y)))
        if isinstance(x, Compound) and isinstance(y, Compound) and x.tag == y.tag and len(x.args) == len(y.args):
            todo.extend(zip(x.args, y.args))
        elif isinstance(x, str) and isinstance(y, str):
            if left.setdefault(x, y) != y or right.setdefault(y, x) != x:
                return False
        elif isinstance(x, FreeVar) and isinstance(y, FreeVar):
            if x.index != y.index:
                return False
        elif isinstance(x, Compound) or isinstance(y, Compound) or x != y:
            return False
    return True


def _both_ways(source, prune, fuel, answers):
    """The outcome of a check (see `_entailed_outcome`) as it is, and with
    every pick dispatched; the reference run has twice the fuel."""
    dropping = _entailed_outcome(source, prune, fuel, answers)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "_entailed_key", lambda c, subst: None)
        dispatching = _entailed_outcome(source, prune, 2 * fuel, answers)
    return dropping, dispatching


def _assert_dropping_as_dispatching(source, prune, exact=True) -> bool:
    """A check gives what it gives with every pick dispatched, in no more
    work; False, comparing nothing, when either run runs out of fuel. The
    dispatching run can run out where the dropping one ends: a repeated
    equality of two mu types may unfold without end.

    A branch that drops a pick takes fewer steps to its answers, so the
    fair search can interleave its branches in another order, and a run
    that stops at an answer can have done other work first. So work is
    compared where both searches were done and, when exact, up to the
    first answer (the verdict's); answers that come in another order are
    compared as sets, each run's first ones among the other's first 28.
    Only the first answer must come first when exact."""
    for answers in (1, 7):
        dropping, dispatching = _both_ways(source, prune, 20_000, answers)
        if dropping is None or dispatching is None:
            return False
        assert dropping[:2] == dispatching[:2]
        first = exact and answers == 1
        if first or (dropping[4] and dispatching[4]):
            assert all(d <= r for d, r in zip(dropping[3], dispatching[3]))
        if first:
            assert all(map(_same_up_to_names, dropping[2], dispatching[2]))
        elif not all(map(_same_up_to_names, dropping[2], dispatching[2])):
            more = _both_ways(source, prune, 20_000, 28)
            if None in more:
                return False
            more_dropping, more_dispatching = (o[2] for o in more)
            for mine, theirs in ((dropping[2], more_dispatching), (dispatching[2], more_dropping)):
                assert all(any(_same_up_to_names(a, b) for b in theirs) for a in mine)
    return True


@pytest.mark.parametrize("prune", [True, False])
@pytest.mark.parametrize("name", sorted(_DIFFERENTIAL_SOURCES))
def test_dropping_entailed_picks_answers_as_dispatching_them(name, prune):
    assert _assert_dropping_as_dispatching(_DIFFERENTIAL_SOURCES[name], prune)


@settings(max_examples=150, deadline=None)
@given(_small_programs, st.booleans())
def test_dropping_entailed_picks_answers_as_dispatching_them_on_small_programs(source, prune):
    assume(_assert_dropping_as_dispatching(source, prune, exact=False))


_PICK = "fun pick (p) { p [0] }\nvar a = [1], b = 0;\n"


def test_a_repeated_call_of_a_scheme_without_calls_is_dropped(monkeypatch):
    # The second `pick (a)` walks to the first one's key (its result is
    # the Int of b either way), so it is dropped: no instantiation, and
    # no Ind to spawn and dispatch.
    source = _PICK + "b := pick (a);\nb := pick (a);\n"
    dropping = check_source(source)
    monkeypatch.setattr(solver, "_entailed_key", lambda c, subst: None)
    dispatching = check_source(source)
    assert dropping.verdict == dispatching.verdict == TYPED
    assert dropping.render_bindings() == dispatching.render_bindings()
    assert int(dropping.stats["engine-unifications"]) < int(dispatching.stats["engine-unifications"])
    assert int(dropping.stats["fuel-used"]) < int(dispatching.stats["fuel-used"])


def test_a_call_of_a_scheme_that_holds_a_call_is_never_dropped(monkeypatch):
    # h's scheme holds a Call of pick, so a Call of h may have itself as a
    # descendant: it gets no key, however often it repeats; a Call of pick
    # does.
    source = _PICK + "fun h (p) { pick (p) }\nb := h (a);\nb := h (a);\nb := pick (a);\n"
    keyed = []
    original = solver._entailed_key

    def spying(c, subst):
        key = original(c, subst)
        if c.tag == "Call":
            fn = shallow_walk(c.args[0], subst)
            held = [shallow_walk(x, subst).tag for x in solver._walk_list(fn.args[1], subst)]
            keyed.append(("Call" in held, key is not None))
        return key

    monkeypatch.setattr(solver, "_entailed_key", spying)
    assert check_source(source).verdict == TYPED
    assert (True, False) in keyed and (False, True) in keyed
    assert (True, True) not in keyed


@pytest.mark.parametrize("source, verdict, types", LOOP_PROGRAMS)
def test_loop_programs_end_as_with_every_pick_dispatched(source, verdict, types, monkeypatch):
    dropping = check_source(source)
    monkeypatch.setattr(solver, "_entailed_key", lambda c, subst: None)
    dispatching = check_source(source)
    assert dropping.verdict == dispatching.verdict == verdict
    assert dropping.message == dispatching.message
    assert dropping.render_bindings() == dispatching.render_bindings()


# ---------------------------------------------------------------------------
# The program body solved before the search, against the search over every
# generated constraint from an empty substitution
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("source", ["var x; var y = x.length", "var x; var y = x.length; y := 1"])
def test_a_stuck_labeling_names_the_residual_it_is_stuck_on(source):
    # Nothing binds x, so the box residual of `.length` waits until the
    # labeling step, which no labeling can wake: the check fails on it.
    report = check_source(source)
    assert (report.verdict, report.message) == (ILL_TYPED, "Match(a; #box)")


def test_the_search_starts_past_the_generator_variables_without_building_them(monkeypatch):
    # The presolve solves every equality of the program, and the start
    # state's counter is carried past the generator's ids: the only
    # variables built are the query's, Var(0), and those the solver takes
    # for the Ind on x, numbered after the generator's.
    genr = infer_program(parse_program("var x, z;\nz := 1;\nvar y = x [0]"))
    built = []
    init = Var.__init__
    monkeypatch.setattr(Var, "__init__", lambda self, vid: built.append(vid) or init(self, vid))
    result, counters = solve_gen(genr, CheckOptions())
    assert result.answers and counters.dispatched == 1  # the Ind on a free container
    assert built[0] == 0 and min(built[1:]) == genr.var_count + 1


def _bench_programs():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import programs
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return programs


def _presolve_sources(group):
    """(source, fuel or None) of each program of a group."""
    from test_cli import FUEL_BURNERS

    if group == "corpus":
        return [(path.read_text(encoding="utf-8"), None) for path in sorted((ROOT / "corpus").glob("*.lama"))]
    if group == "golden":
        return [(path.read_text(encoding="utf-8"), None) for path in sorted((ROOT / "tests" / "golden").glob("*.lama"))]
    if group == "loops":
        return [(source, None) for source, _, _ in LOOP_PROGRAMS]
    if group == "fuel":
        # The fuel_burn workload's budgets, and the CLI's fuel burners.
        return [(SELF_ARRAY, 5_000), (SELF_ARRAY, 50_000), *((source, 97) for source, _ in FUEL_BURNERS.values())]
    programs = _bench_programs()
    seed = int(group[-1])
    return [(case.source, None) for case in programs.straight_line_cases(seed) + programs.synth_mixed_cases(seed)]


def _without_counts(message):
    """A message without the dispatch and step numbers it gives."""
    return re.sub(r"\b(dispatch|after) \d+", r"\1 #", message)


@pytest.mark.parametrize("group", ["corpus", "golden", "loops", "fuel", "bench1", "bench2"])
def test_presolving_the_program_body_reports_as_the_search_over_every_constraint(group, monkeypatch):
    # `oracles.reference_solve_gen` hands every generated constraint to
    # the search, from an empty substitution: pruned and unpruned, at one
    # answer and at seven, the reports have the same verdict, bindings,
    # answer count and message, up to the counts an Unknown one gives.
    for source, fuel in _presolve_sources(group):
        for prune in (True, False):
            for answers in (1, 7):
                options = CheckOptions(max_answers=answers, prune=prune)
                if fuel is not None:
                    options.fuel = fuel
                got = check_source(source, options)
                with monkeypatch.context() as m:
                    m.setattr(checker, "solve_gen", oracles.reference_solve_gen)
                    want = check_source(source, options)
                assert got.verdict == want.verdict, source
                assert got.render_bindings() == want.render_bindings(), source
                assert got.stats["answers-found"] == want.stats["answers-found"], source
                if got.verdict == UNKNOWN:
                    assert _without_counts(got.message) == _without_counts(want.message), source
                else:
                    assert got.message == want.message, source
