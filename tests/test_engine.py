"""Relational engine: unification, disequality, hooks, search fairness."""

import inspect
import sys
import time

from hypothesis import given, settings, strategies as st

import oracles
from oracles import bind_occurs_hook, fresh_with, is_not_var, is_var
from shapecheck import engine
from shapecheck.engine import (
    Compound,
    Counters,
    FreeVar,
    PMap,
    State,
    Var,
    conj,
    delay,
    disj,
    disunify,
    empty_state,
    fail,
    fresh_many,
    occurs,
    reify_term,
    run,
    shallow_walk,
    succeed,
    unify,
)
from shapecheck.solver import SolverOpts, solve_call
from shapecheck.types import LNIL, T_INT, TagTable, llist, t_arrow, t_name, type_occurs_hook


def C(tag, *args):
    return Compound(tag, tuple(args))


NIL = C("nil")


def cons(h, t):
    return C("cons", h, t)


def from_list(items, tail=NIL):
    out = tail
    for x in reversed(items):
        out = cons(x, out)
    return out


def to_list(t):
    out = []
    while isinstance(t, Compound) and t.tag == "cons":
        out.append(t.args[0])
        t = t.args[1]
    assert t == NIL
    return out


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


def test_equal_compounds_hash_equal():
    a = C("Eq", Var(3), C("TArray", C("TInt")))
    b = C("Eq", Var(3), C("TArray", C("TInt")))
    assert a is not b and a == b and hash(a) == hash(b)
    assert b in {a: None}
    assert C("Eq", Var(4), C("TArray", C("TInt"))) not in {a: None}


def test_a_compound_hashes_its_arguments_once():
    class CountingAtom:
        calls = 0

        def __hash__(self):
            CountingAtom.calls += 1
            return 7

    atom = CountingAtom()
    inner = C("f", atom)
    outer = C("g", inner, inner)
    for t in (outer, outer, inner, C("h", outer), C("h", inner)):
        hash(t)
    assert CountingAtom.calls == 1


def test_terms_shared_through_the_substitution_are_walked_once(monkeypatch):
    # Var(i) is bound to a pair of Var(i - 1): 2 ** 16 leaves as a tree,
    # 17 nodes as a graph, each looked up at most twice.
    n = 16
    subst = PMap()
    for i in range(1, n + 1):
        subst = subst.set(i, C("pair", Var(i - 1), Var(i - 1)))
    top = Var(n)
    gets = []
    original = PMap.get

    def counting(self, key, default=None):
        gets.append(key)
        return original(self, key, default)

    monkeypatch.setattr(PMap, "get", counting)
    assert occurs(0, top, subst) and not occurs(n + 1, top, subst)
    t = reify_term(top, subst)
    assert engine._unify_terms(top, Var(n), subst, None) is subst
    assert len(gets) <= 4 * 2 * (n + 1)
    for _ in range(n - 1):
        assert t.args[0] is t.args[1]  # the reified term stays shared
        t = t.args[0]
    assert t == C("pair", FreeVar(0, 0), FreeVar(0, 0))


def test_long_lists_hash_and_compare_in_little_stack():
    # Two equal 5000-cell lists, built apart, and one differing only in
    # its last cell: hashing and comparing take no frame per cell.
    def lst(last):
        out = C("lnil")
        for x in [last, *range(4999)]:
            out = C("lcons", x, out)
        return C("Match", Var(1), out)

    a, b, c = lst(0), lst(0), lst(1)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        assert hash(a) == hash(b) and a == b and b in {a: None}
        assert a != c and c not in {a: None}
    finally:
        sys.setrecursionlimit(limit)


def test_deep_terms_hash_and_compare_in_little_stack():
    # Two equal arrays nested 5,000 levels deep, built apart, and one
    # differing only in its innermost type: hashing and comparing take
    # no frame per level.
    def nested(leaf):
        t = C(leaf)
        for _ in range(5000):
            t = C("TArray", t)
        return t

    a, b, c = nested("TInt"), nested("TInt"), nested("TStr")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        assert hash(a) == hash(b) and a == b and b in {a: None}
        assert a != c and c not in {a: None}
        assert nested("TInt") == a == nested("TInt")  # compared before either is hashed
    finally:
        sys.setrecursionlimit(limit)


# ---------------------------------------------------------------------------
# PMap
# ---------------------------------------------------------------------------


def test_pmap_basic():
    m = PMap()
    m1 = m.set(3, "a").set(35, "b").set(3, "c")
    assert m.get(3) is None
    assert m1.get(3) == "c"
    assert m1.get(35) == "b"
    assert m1.get(99) is None


@given(st.dictionaries(st.integers(min_value=0, max_value=10_000), st.integers(), max_size=200))
def test_pmap_matches_dict(d):
    m = PMap()
    for k, v in d.items():
        m = m.set(k, v)
    for k, v in d.items():
        assert m.get(k) == v


# Small and large integers, and tuples as the solver's set of dispatched
# constraints uses.
_pmap_keys = st.one_of(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=10**12),
    st.tuples(st.sampled_from(["Ind", "SexpC"]), st.integers(min_value=0, max_value=3)),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(min_value=0), _pmap_keys, st.integers(), st.integers(min_value=0)), max_size=60),
    st.lists(st.integers(min_value=0), max_size=20),
)
def test_pmap_versions_read_and_extend_as_copied_dicts(ops, reads):
    # A branching tree of versions: each op extends an arbitrary earlier
    # version, then reads another, so the shared dict is rerooted back and
    # forth; every version still reads as the dict it was made as, and
    # lists the keys set to make it.
    versions, models, logs, parents = [PMap()], [{}], [[]], [None]
    for at, key, value, peek in ops:
        i = at % len(versions)
        versions.append(versions[i].set(key, value))
        models.append({**models[i], key: value})
        logs.append([key, *logs[i]])
        parents.append(i)
        j = peek % len(versions)
        assert versions[j].get(key, "absent") == models[j].get(key, "absent")
    keys = {key for _, key, _, _ in ops} | {-1, ("Ind", 9)}
    for i in [r % len(versions) for r in reads] + list(range(len(versions))):
        for key in keys:
            assert versions[i].get(key, "absent") == models[i].get(key, "absent")
        assert versions[i].keys_since(None) == logs[i]
        if parents[i] is not None:
            assert versions[i].keys_since(versions[parents[i]]) == logs[i][:1]


def test_failed_unification_leaves_its_input_version_readable():
    # The unification binds x and y before it fails on the last pair, so
    # the shared dict is left at a newer version than its input.
    x, y = Var(0), Var(1)
    subst = PMap().set(5, C("k"))
    a, b = C("p", x, y, C("a")), C("p", C("k"), C("m"), C("b"))
    assert engine._unify_terms(a, b, subst, None) is None
    assert (subst.get(0), subst.get(1), subst.get(5)) == (None, None, C("k"))
    assert subst.keys_since(None) == [5]
    extended = subst.set(0, C("z"))
    assert extended.get(0) == C("z") and subst.get(0) is None


# ---------------------------------------------------------------------------
# Unification and walking
# ---------------------------------------------------------------------------


def run_goal(goal_of_var, max_answers=None, fuel=None):
    return run(goal_of_var, max_answers=max_answers, fuel=fuel)


def test_unify_var_with_constant():
    res = run(lambda q: unify(q, C("int")), max_answers=None)
    assert res.answers == [C("int")] and res.ended


def test_unify_structural():
    res = run(
        lambda q: fresh_with(lambda x: conj(unify(C("pair", x, C("s")), C("pair", C("z"), q)))),
        max_answers=None,
    )
    assert res.answers == [C("s")]


def test_unify_mismatch_fails():
    res = run(lambda q: unify(C("a"), C("b")))
    assert res.answers == [] and res.ended


def test_unify_arity_mismatch_fails():
    res = run(lambda q: unify(C("f", q), C("f", q, q)))
    assert res.answers == []


def test_occurs_check_blocks_cycle():
    res = run(lambda q: unify(q, C("f", q)))
    assert res.answers == [] and res.ended


def test_shallow_walk_follows_chain():
    st_ = empty_state()
    x, st_ = st_.fresh_var()
    y, st_ = st_.fresh_var()
    subst = st_.subst.set(x.id, y).set(y.id, C("k"))
    assert shallow_walk(x, subst) == C("k")
    assert shallow_walk(C("f", x), subst) == C("f", x)  # only the top node moves


def test_reify_numbers_free_vars_in_order():
    res = run(lambda q: fresh_many(2, lambda vs: unify(q, C("p", vs[1], vs[0], vs[1]))))
    (ans,) = res.answers
    assert ans == C("p", FreeVar(0, ans.args[0].var_id), FreeVar(1, ans.args[1].var_id), ans.args[0])


def _nested(tag, leaf, depth):
    """leaf under depth compounds of tag, each built fresh."""
    for _ in range(depth):
        leaf = C(tag, leaf)
    return leaf


def _under(t, tag):
    """How many compounds of tag t is nested in, and what they wrap."""
    depth = 0
    while isinstance(t, Compound) and t.tag == tag:
        depth, t = depth + 1, t.args[0]
    return depth, t


def test_reify_and_the_type_hook_take_no_stack_on_a_deep_term():
    # Terms nested 5,000 compounds deep (not a list spine), each built
    # fresh, so their flags are computed on the way, at the default
    # recursion limit: one closed by the type occurs hook, a var-free one
    # reified, and a scheme over one instantiated by a call.
    assert sys.getrecursionlimit() <= 1000
    closed, built = type_occurs_hook(0, _nested("TArray", Var(0), 5000), PMap())
    assert (closed.tag, _under(closed.args[1], "TArray"), built) == ("TMu", (5000, C("TName", "r0")), 5000)

    ground = _nested("TArray", T_INT, 5000)
    assert reify_term(ground, PMap()) is ground

    # forall a. ([...[a]...]) -> [...[a]...], called at a free variable:
    # the parameter and the result are one rewrite of one deep term.
    deep = _nested("TArray", t_name("a"), 5000)
    scheme = t_arrow(llist(["a"]), LNIL, llist([deep]), deep)

    opts = SolverOpts(TagTable())
    (answer,) = run(lambda q: fresh_with(lambda a: solve_call(scheme, [a], q, opts, lambda _: succeed))).answers
    depth, leaf = _under(answer, "TArray")
    assert (depth, isinstance(leaf, FreeVar)) == (5000, True)


def test_a_hook_costs_a_unit_of_fuel_per_compound_it_closes():
    # x = f(g(x), big): one unification and the query's answer, plus the
    # hook's rewrite, which builds f and g anew and keeps big, 51 var-free
    # compounds, as it is. The copying hook paid for all 53.
    big = _nested("h", C("k"), 50)

    def goal(q):
        def k(x):
            return conj(bind_occurs_hook(x, type_occurs_hook), unify(x, C("f", C("g", x), big)), unify(q, x))

        return fresh_with(k)

    plain = run(lambda q: fresh_with(lambda x: conj(unify(x, C("f", big)), unify(q, x)))).counters.steps
    hooked = run(goal).counters.steps
    assert hooked - plain == 2
    assert oracles.reference_type_occurs_hook(0, C("f", C("g", Var(0)), big), PMap())[1] == 53


# ---------------------------------------------------------------------------
# Disequality
# ---------------------------------------------------------------------------


def test_disunify_ground_distinct_succeeds():
    assert run(lambda q: conj(disunify(C("a"), C("b")), unify(q, C("ok")))).answers == [C("ok")]


def test_disunify_identical_fails():
    assert run(lambda q: disunify(C("a"), C("a"))).answers == []


def test_disunify_then_violating_unify_fails():
    def goal(q):
        return fresh_with(lambda x: conj(disunify(x, C("a")), unify(x, C("a"))))

    assert run(goal).answers == []


def test_disunify_then_other_value_fine():
    def goal(q):
        return fresh_with(lambda x: conj(disunify(x, C("a")), unify(x, C("b")), unify(q, x)))

    assert run(goal).answers == [C("b")]


# Small terms over three shared variables.
_VARS = [Var(i) for i in range(3)]
_small_terms = st.deferred(
    lambda: st.one_of(
        st.sampled_from([C("a"), C("b")]),
        st.sampled_from(_VARS),
        st.builds(lambda x: C("s", x), _small_terms),
        st.builds(lambda x, y: C("p", x, y), _small_terms, _small_terms),
    )
)


def test_disunify_var_var_then_reverse_binding_fails():
    # The trial of x =/= y binds x := y; binding y := x instead must also
    # wake the pair.
    def goal(q):
        return fresh_many(2, lambda vs: conj(disunify(vs[0], vs[1]), unify(vs[1], vs[0])))

    assert run(goal).answers == []


def test_disunify_rewatched_after_inner_binding_fails():
    # x =/= C(y); y := a binds no watched variable, x := C(a) does.
    def goal(q):
        return fresh_many(
            2,
            lambda vs: conj(
                disunify(vs[0], C("C", vs[1])),
                unify(vs[1], C("a")),
                unify(vs[0], C("C", C("a"))),
            ),
        )

    assert run(goal).answers == []


def test_unwatched_binding_makes_no_trial_unification(monkeypatch):
    x, y, z = Var(0), Var(1), Var(2)
    plain = State(PMap(), (), {}, 3, Counters())
    (pending, _) = conj(*(disunify(x, C("k", C(f"c{i}"), y)) for i in range(20)))(plain)
    calls = []
    original = engine._unify_terms

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(engine, "_unify_terms", counting)
    assert unify(z, C("a"))(plain) is not None
    bare = len(calls)
    del calls[:]
    assert unify(z, C("a"))(pending) is not None
    assert len(calls) == bare == 1


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["==", "=/="]), _small_terms, _small_terms), max_size=12))
def test_watched_disequalities_agree_with_recheck_all(ops):
    # Every prefix of a random unify/disunify sequence succeeds or fails
    # alike under both stores and leaves the same substitution answer.
    # After each prefix, every var-var unification, in both directions,
    # must also succeed or fail alike.
    watched = reference = State(PMap(), (), {}, len(_VARS), Counters())
    answer = C("vars", *_VARS)
    goals = {"==": (unify, oracles.recheck_unify), "=/=": (disunify, oracles.recheck_disunify)}
    for op, a, b in ops:
        mine, ref = goals[op]
        w, r = mine(a, b)(watched), ref(a, b)(reference)
        assert (w is None) == (r is None), (op, a, b)
        if w is None:
            return
        watched, reference = w[0], r[0]
        assert reify_term(answer, watched.subst) == reify_term(answer, reference.subst)
        for x in _VARS:
            for y in _VARS:
                fails = unify(x, y)(watched) is None
                assert fails == (oracles.recheck_unify(x, y)(reference) is None), (x, y)


# Terms over four shared variables, for var-var chains and occurs hooks.
_CHAIN_VARS = [Var(i) for i in range(4)]
_chain_terms = st.deferred(
    lambda: st.one_of(
        st.sampled_from([C("a"), C("b")]),
        st.sampled_from(_CHAIN_VARS),
        st.sampled_from(_CHAIN_VARS),
        st.builds(lambda x: C("s", x), _chain_terms),
        st.builds(lambda x, y: C("p", x, y), _chain_terms, _chain_terms),
    )
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(_chain_terms, _chain_terms), max_size=4),
    st.one_of(st.sampled_from(_CHAIN_VARS), _chain_terms),
    _chain_terms,
    st.booleans(),
    st.sets(st.integers(0, len(_CHAIN_VARS) - 1)),
)
def test_unification_reports_every_binding(prior, a, b, cyclic, unhooked):
    # Prior unifications leave chains and compound bindings to walk
    # through; hooked variables close a failed occurs check into a mu,
    # which a cyclic pair (b contains a) makes likely.
    if cyclic:
        b = C("p", b, a)
    subst = PMap()
    for x, y in prior:
        subst = engine._unify_terms(x, y, subst, None) or subst
    hooks = {v.id: type_occurs_hook for v in _CHAIN_VARS if v.id not in unhooked}
    result = engine._unify_terms(a, b, subst, hooks)
    if result is None:
        return
    reported = result.keys_since(subst)
    gained = [v.id for v in _CHAIN_VARS if subst.get(v.id) is None and result.get(v.id) is not None]
    assert sorted(reported) == gained
    assert (result is subst) == (not gained)


def test_hook_made_binding_is_reported():
    x = Var(0)
    result = engine._unify_terms(x, C("s", x), PMap(), {0: type_occurs_hook})
    assert result.keys_since(PMap()) == [0]
    assert result.get(0).tag == "TMu"


_leaves = st.sampled_from([C("a"), C("b"), *_CHAIN_VARS])
_leaf_pairs = st.builds(lambda x, y: C("p", x, y), _leaves, _leaves)
_store_ops = st.one_of(
    st.tuples(st.sampled_from(["==", "=/="]), _chain_terms, _chain_terms),
    # A disequality on a variable, a var-var link, a unification that
    # binds several variables at once, and one whose occurs failure a hook
    # closes.
    st.tuples(st.just("=/="), st.sampled_from(_CHAIN_VARS), _leaves),
    st.tuples(st.just("=="), st.sampled_from(_CHAIN_VARS), st.sampled_from(_CHAIN_VARS)),
    st.tuples(st.just("=="), _leaf_pairs, _leaf_pairs),
    st.tuples(st.just("mu"), st.sampled_from(_CHAIN_VARS), _chain_terms),
)


def test_every_binding_of_a_unification_wakes_its_pairs():
    # y is bound first, x second; the pair watches only x.
    x, y = Var(0), Var(1)
    (state, _) = disunify(x, C("a"))(State(PMap(), (), {}, 2, Counters()))
    assert unify(C("p", y, x), C("p", C("b"), C("a")))(state) is None
    assert unify(C("p", y, x), C("p", C("b"), C("c")))(state) is not None


@settings(max_examples=300, deadline=None)
@given(st.lists(_store_ops, max_size=14))
def test_indexed_disequalities_agree_with_recheck_all_through_links_and_hooks(ops):
    # As the test above, with var-var chains and hook-made mu bindings.
    indexed = reference = State(PMap(), (), {}, len(_CHAIN_VARS), Counters())
    answer = C("vars", *_CHAIN_VARS)
    probes = [*_CHAIN_VARS, C("a"), C("s", C("b"))]
    for op, a, b in ops:
        if op == "mu":
            mine = conj(bind_occurs_hook(a, type_occurs_hook), unify(a, b))
            ref = conj(bind_occurs_hook(a, type_occurs_hook), oracles.recheck_unify(a, b))
        elif op == "==":
            mine, ref = unify(a, b), oracles.recheck_unify(a, b)
        else:
            mine, ref = disunify(a, b), oracles.recheck_disunify(a, b)
        w, r = mine(indexed), ref(reference)
        assert (w is None) == (r is None), (op, a, b)
        if w is None:
            return
        indexed, reference = w[0], r[0]
        assert reify_term(answer, indexed.subst) == reify_term(answer, reference.subst)
        for x in _CHAIN_VARS:
            for y in probes:
                fails = unify(x, y)(indexed) is None
                assert fails == (oracles.recheck_unify(x, y)(reference) is None), (x, y)


def _filed(watch):
    """A watch index as a set of (variable id, pair identity)."""
    return {(vid, id(entry)) for vid, bucket in watch.items() for entry in bucket}


def _expected_index(pending):
    return {(vid, id(entry)) for entry in pending for vid in entry[2:] if vid is not None}


@settings(max_examples=300, deadline=None)
@given(st.lists(_store_ops, max_size=14))
def test_watch_index_files_exactly_the_pending_pairs(ops):
    # After any run of unifications and disequalities, every pending pair
    # is filed under each of its watch ids and nothing else is filed.
    state = State(PMap(), (), {}, len(_CHAIN_VARS), Counters())
    for op, a, b in ops:
        if op == "mu":
            goal = conj(bind_occurs_hook(a, type_occurs_hook), unify(a, b))
        else:
            goal = (unify if op == "==" else disunify)(a, b)
        out = goal(state)
        if out is None:
            return
        state = out[0]
        assert _filed(state.watch) == _expected_index(state.diseqs)
        assert all(state.watch.values())  # no empty bucket is left behind


def test_one_woken_pair_leaves_the_rest_of_the_watch_index_alone():
    # 200 pending pairs, each watching its own variable; binding one
    # variable wakes one pair, which is re-watched under a new variable.
    # Every other bucket of the index is the very tuple it was: the index
    # changes by the woken pair only, not by a rebuild of all 200.
    n = 200
    xs = [Var(i) for i in range(n)]
    w = Var(n)
    state = State(PMap(), (), {}, n + 1, Counters())
    for x in xs:
        (state, _) = disunify(x, C("s", C("a")))(state)
    before = state.watch
    (after, _) = unify(xs[7], C("s", w))(state)
    assert len(after.diseqs) == n
    assert _filed(after.watch) == _expected_index(after.diseqs)
    assert 7 not in after.watch and len(after.watch[w.id]) == 1
    untouched = [x.id for x in xs if x.id != 7]
    assert all(after.watch[vid] is before[vid] for vid in untouched)
    # The pair is still enforced through its new watch.
    assert unify(w, C("a"))(after) is None and unify(w, C("b"))(after) is not None


def test_var_var_links_stay_one_step_from_the_oldest_variable(monkeypatch):
    # A variable unified with one fresh variable after another, as
    # a goal that names a free subject by a fresh variable would: each
    # fresh one is bound to the older variable, so no chain grows, and
    # walking any of them costs at most two map lookups.
    n = 100
    state = State(PMap(), (), {}, 0, Counters())
    subject, state = state.fresh_var()
    fresh = []
    for _ in range(n):
        u, state = state.fresh_var()
        fresh.append(u)
        (state, _) = unify(subject, u)(state)
    gets = []
    original = PMap.get

    def counting(self, key, default=None):
        gets.append(key)
        return original(self, key, default)

    monkeypatch.setattr(PMap, "get", counting)
    for v in (subject, fresh[0], fresh[-1]):
        del gets[:]
        assert shallow_walk(v, state.subst) == subject
        assert len(gets) <= 2


# ---------------------------------------------------------------------------
# is_var / is_not_var
# ---------------------------------------------------------------------------


def test_is_var_on_fresh():
    assert run(lambda q: conj(is_var(q), unify(q, C("ok")))).answers == [C("ok")]


def test_is_var_on_bound_fails():
    assert run(lambda q: conj(unify(q, C("a")), is_var(q))).answers == []


def test_is_not_var_on_bound():
    assert run(lambda q: conj(unify(q, C("a")), is_not_var(q))).answers == [C("a")]


def test_is_not_var_on_fresh_fails():
    assert run(lambda q: is_not_var(q)).answers == []


# ---------------------------------------------------------------------------
# Occurs hooks
# ---------------------------------------------------------------------------


def test_occurs_hook_fires_and_suggestion_accepted():
    # On x = f(x), suggest binding x to the constant "fix" instead. The
    # hook gets x's id and the walked term, and builds no compound.
    seen = []

    def hook(vid, t, subst):
        seen.append((vid, t))
        return C("fix"), 0

    def goal(q):
        def k(x):
            return conj(bind_occurs_hook(x, hook), unify(x, C("f", x)), unify(q, x))

        return fresh_with(k)

    res = run(goal)
    # Suggestion replaces the whole offending unification target for x.
    assert res.answers == [C("fix")]
    assert seen == [(1, C("f", Var(1)))]


def test_occurs_hook_bad_suggestion_rejected():
    # A suggestion that itself fails occurs (hooks disabled) kills the branch.
    def hook(vid, t, subst):
        return C("f", Var(vid)), 1  # still cyclic once re-checked

    def goal(q):
        def k(x):
            return conj(bind_occurs_hook(x, hook), unify(x, C("f", x)), unify(q, x))

        return fresh_with(k)

    assert run(goal).answers == []


def test_occurs_hook_cleared_after_successful_unification():
    calls = []

    def hook(vid, t, subst):
        calls.append(vid)
        return C("fix"), 0

    def goal(q):
        def k(x):
            return conj(
                bind_occurs_hook(x, hook),
                unify(x, C("g", C("a"))),  # succeeds; registry must be cleared
                unify(q, C("f", C("h"))),
            )

        return fresh_with(k)

    def goal2(q):
        def k(x):
            return conj(
                bind_occurs_hook(x, hook),
                unify(C("a"), C("a")),
                unify(x, C("f", x)),
            )

        return fresh_with(k)

    assert run(goal).answers == [C("f", C("h"))]
    assert calls == []
    # Any successful unification clears the registry, so the later cyclic
    # unification fails plainly without consulting the hook.
    assert run(goal2).answers == []
    assert calls == []


def test_hook_not_consulted_without_occurs_failure():
    def hook(vid, t, subst):
        raise AssertionError("hook must not fire")

    def goal(q):
        return fresh_with(lambda x: conj(bind_occurs_hook(x, hook), unify(x, q), unify(q, C("v"))))

    assert run(goal).answers == [C("v")]


# ---------------------------------------------------------------------------
# Search: interleaving, delay, append
# ---------------------------------------------------------------------------


def appendo(xs, ys, zs):
    def rec():
        def k(vs):
            h, t, rest = vs
            return conj(unify(xs, cons(h, t)), unify(zs, cons(h, rest)), appendo(t, ys, rest))

        return fresh_many(3, k)

    return disj(conj(unify(xs, NIL), unify(ys, zs)), delay(rec))


def test_append_enumerates_all_splits():
    items = [C(str(i)) for i in range(5)]

    def goal(q):
        def k(vs):
            a, b = vs
            return conj(unify(q, C("split", a, b)), appendo(a, b, from_list(items)))

        return fresh_many(2, k)

    res = run(goal, max_answers=None)
    assert res.ended
    assert len(res.answers) == 6
    splits = [(to_list(a.args[0]), to_list(a.args[1])) for a in res.answers]
    assert sorted(len(x) for x, _ in splits) == [0, 1, 2, 3, 4, 5]
    for xs, ys in splits:
        assert xs + ys == items


def test_infinite_stream_pulls_lazily():
    def ones(x):
        return disj(unify(x, C("one")), delay(lambda: ones(x)))

    res = run(lambda q: ones(q), max_answers=3)
    assert res.answers == [C("one")] * 3
    assert not res.ended


def test_disj_is_fair_between_infinite_branches():
    def rep(x, tag):
        return disj(unify(x, C(tag)), delay(lambda: rep(x, tag)))

    res = run(lambda q: disj(rep(q, "a"), rep(q, "b")), max_answers=10)
    tags = [a.tag for a in res.answers]
    assert tags.count("a") == 5 and tags.count("b") == 5


def test_fairness_bound_on_interleaving():
    # An answer at depth s in either branch of a binary disj must appear
    # within a fixed linear amount of engine work: interleaving advances
    # both branches, never starving either one.
    def at_depth(x, n):
        if n == 0:
            return unify(x, C("hit"))
        return delay(lambda: at_depth(x, n - 1))

    def never(x):
        return delay(lambda: never(x))

    for depth in (5, 20, 60, 200):
        res = run(lambda q: disj(never(q), at_depth(q, depth)), max_answers=1, fuel=4 * depth + 20)
        assert res.answers == [C("hit")], f"answer at depth {depth} not found within bound"


def test_fuel_exhaustion_reported_not_raised():
    def never(x):
        return delay(lambda: never(x))

    res = run(lambda q: never(q), max_answers=1, fuel=100)
    assert res.answers == [] and res.fuel_exhausted and not res.ended


def test_counters_track_unifications():
    c = Counters()
    run(lambda q: conj(unify(q, C("a")), unify(C("b"), C("b"))), counters=c)
    assert c.unifications >= 2
    assert c.answers_found == 1


def test_conj_of_a_mature_goal_and_a_delayed_one_costs_one_forcing():
    # One unification and one forcing of the delayed goal: the delayed
    # stream is the conjunction's own, not wrapped in a second thunk.
    res = run(lambda q: conj(unify(q, C("a")), delay(lambda: succeed)))
    assert res.answers == [C("a")]
    assert (res.counters.unifications, res.counters.steps) == (1, 2)


def test_a_run_inside_a_goal_counts_into_its_own_counters():
    # The inner run starts inside a forcing of the outer stream, closes a
    # term with an occurs hook (fuel per compound) and forces its own
    # delayed goals; none of that is the outer run's work.
    def inner_query(q):
        def k(x):
            return conj(bind_occurs_hook(x, type_occurs_hook), delay(lambda: unify(x, C("f", x))), unify(q, x))

        return fresh_with(k)

    def outer(answer):
        def goal(q):
            return conj(delay(lambda: lambda st: unify(q, answer())(st)), delay(lambda: unify(C("b"), C("b"))))

        return goal

    alone = run(inner_query)
    precomputed = run(outer(lambda: alone.answers[0]))
    inner = Counters()
    nested = run(outer(lambda: run(inner_query, counters=inner).answers[0]))
    assert nested.answers == precomputed.answers == alone.answers
    assert nested.counters.steps == precomputed.counters.steps
    assert nested.counters.unifications == precomputed.counters.unifications
    assert (inner.steps, inner.unifications) == (alone.counters.steps, alone.counters.unifications)


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

_terms = st.deferred(
    lambda: st.one_of(
        st.sampled_from([C("a"), C("b"), C("z")]),
        st.builds(lambda x: C("s", x), _terms),
        st.builds(lambda x, y: C("p", x, y), _terms, _terms),
    )
)


@settings(max_examples=300, deadline=None)
@given(_terms)
def test_unify_reflexive(t):
    assert run(lambda q: conj(unify(t, t), unify(q, C("ok")))).answers == [C("ok")]


@settings(max_examples=300, deadline=None)
@given(_terms, _terms)
def test_unify_symmetric(a, b):
    fwd = run(lambda q: conj(unify(a, b), unify(q, C("ok")))).answers
    bwd = run(lambda q: conj(unify(b, a), unify(q, C("ok")))).answers
    assert fwd == bwd


@settings(max_examples=300, deadline=None)
@given(_terms, _terms)
def test_unify_and_disunify_are_complementary_on_ground(a, b):
    eq = run(lambda q: conj(unify(a, b), unify(q, C("ok")))).answers
    ne = run(lambda q: conj(disunify(a, b), unify(q, C("ok")))).answers
    assert (eq == [C("ok")]) != (ne == [C("ok")])


@settings(max_examples=200, deadline=None)
@given(_terms)
def test_unify_var_then_walk_gives_term(t):
    res = run(lambda q: unify(q, t))
    assert res.answers == [t]


@settings(max_examples=200, deadline=None)
@given(_terms, _terms, _terms)
def test_conj_order_does_not_change_ground_success(a, b, c):
    g1 = run(lambda q: conj(unify(a, b), unify(b, c), unify(q, C("ok")))).answers
    g2 = run(lambda q: conj(unify(b, c), unify(a, b), unify(q, C("ok")))).answers
    assert g1 == g2


def test_engine_laws_run_quickly():
    # The property batteries above collectively exceed a thousand cases;
    # this sentinel keeps an eye on their wall-clock cost.
    t0 = time.monotonic()
    for _ in range(200):
        run(lambda q: unify(q, C("p", C("a"), C("s", C("b")))))
    assert time.monotonic() - t0 < 5.0


def test_occurs_predicate_direct():
    st_ = empty_state()
    x, st_ = st_.fresh_var()
    y, st_ = st_.fresh_var()
    subst = st_.subst.set(y.id, C("f", x))
    assert occurs(x.id, y, subst)
    assert not occurs(x.id, C("g", C("a")), subst)
