"""End-to-end acceptance gate.

Eight checks: engine laws as bulk property tests, recursive-type
construction through the occurs hook, bounded enumeration of constructor
lists against a brute-force count, call-site and constructor-list pruning
effects, the shipped corpus with its expected verdicts and types, ground
entailment against an independent derivation checker, and determinism of
the full corpus run.
"""

import io
import time

import pytest
from hypothesis import given, settings, strategies as st

from shapecheck.cli import main
from shapecheck.engine import (
    Compound,
    Counters,
    conj,
    disj,
    delay,
    disunify,
    fresh_many,
    run,
    unify,
)
from shapecheck.solver import SolverOpts, entail_all
from shapecheck.types import (
    LNIL,
    T_INT,
    T_STR,
    TagTable,
    c_call,
    c_ind,
    c_sexp,
    eq_t,
    llist,
    t_array,
    t_arrow,
    t_ctor,
    t_mu,
    t_name,
    t_sexp,
    ty_from_term,
    types_equal,
)

import oracles as O
from oracles import fresh_with

OKC = Compound("ok", ())


def ok(goal_of_var, **kw):
    return run(lambda q: conj(goal_of_var(q), unify(q, OKC)), **kw).answers == [OKC]


# ---------------------------------------------------------------------------
# 1. Engine law suite: >=1000 random cases, depth <= 4, under 10 s.
# ---------------------------------------------------------------------------

_atoms = st.sampled_from([Compound("a", ()), Compound("b", ()), Compound("c", ())])


def _grow(children):
    return st.one_of(
        st.builds(lambda x: Compound("s", (x,)), children),
        st.builds(lambda x, y: Compound("p", (x, y)), children, children),
    )


_terms_d4 = st.recursive(_atoms, _grow, max_leaves=8)


@pytest.fixture(scope="module")
def law_clock():
    """Set up when the first law test starts, so the runtime sentinel
    times the law batteries and nothing collected or run before them."""
    return time.monotonic()


@settings(max_examples=250, deadline=None)
@given(_terms_d4, _terms_d4)
def test_law_unification_symmetry(law_clock, a, b):
    fwd = ok(lambda q: unify(a, b))
    bwd = ok(lambda q: unify(b, a))
    assert fwd == bwd


@settings(max_examples=250, deadline=None)
@given(_terms_d4)
def test_law_triangular_soundness(law_clock, t):
    # Binding q via a chain of intermediate variables resolves, on
    # reification, to the same term as a direct binding.
    def chained(q):
        def k(vs):
            x, y = vs
            return conj(unify(q, x), unify(x, y), unify(y, t))

        return fresh_many(2, k)

    assert run(chained).answers == [t]


@settings(max_examples=250, deadline=None)
@given(_terms_d4, _terms_d4)
def test_law_disequality_persistence(law_clock, a, b):
    # A recorded disequality keeps holding after later bindings: binding
    # x to a after x =/= b succeeds exactly when a and b differ.
    def goal(q):
        return fresh_with(lambda x: conj(disunify(x, b), unify(x, a)))

    ground_equal = ok(lambda q: unify(a, b))
    assert ok(goal) == (not ground_equal)


@settings(max_examples=150, deadline=None)
@given(_terms_d4)
def test_law_hook_clearing(law_clock, t):
    # After any successful unification the hook registry is empty, so a
    # later cyclic bind fails plainly instead of consulting the hook.
    fired = []

    def hook(vid, reified):
        fired.append(vid)
        return Compound("sub", ())

    def goal(q):
        def k(x):
            return conj(
                O.bind_occurs_hook(x, hook),
                unify(t, t),  # succeeds, clears hooks
                unify(x, Compound("f", (x,))),
            )

        return fresh_with(k)

    assert run(goal).answers == []
    assert fired == []


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=30))
def test_law_disjunction_fairness(law_clock, depth):
    # A diverging branch never starves a producing one.
    def never(x):
        return delay(lambda: never(x))

    def at_depth(x, n):
        if n == 0:
            return unify(x, OKC)
        return delay(lambda: at_depth(x, n - 1))

    res = run(lambda q: disj(never(q), at_depth(q, depth)), max_answers=1, fuel=4 * depth + 20)
    assert res.answers == [OKC]


def test_law_suite_runtime(law_clock):
    # The five law batteries above run 1050 cases in total; they all
    # execute before this sentinel within the module.
    assert time.monotonic() - law_clock < 10.0


# ---------------------------------------------------------------------------
# 2. Cyclic equation builds a recursive type equal to the hand-derived one.
# ---------------------------------------------------------------------------


def test_occurs_hook_constructs_recursive_list_type():
    tb = TagTable()
    cons = tb.intern("Cons", 2)

    # eq_t(x, Sexp containing Cons(Int, x)) must bind x to a type
    # eq_t-equal to the hand-derived  mu a. Cons(Int, a).
    def goal(q):
        return eq_t(q, t_sexp(llist([t_ctor(cons, llist([T_INT, q]))])))

    (ans,) = run(goal).answers
    hand = t_mu("a", t_sexp(llist([t_ctor(cons, llist([T_INT, t_name("a")]))])))
    assert ans.tag == "TMu"
    # Equivalence, not string equality: the constructed binder name is
    # machine-chosen, so compare through types_equal, which unfolds mu
    # types and so ignores their binder names.
    assert types_equal(ty_from_term(ans), ty_from_term(hand))
    # And the constructed type equals its own unfolding directly.
    assert ok(
        lambda q: eq_t(ans, t_sexp(llist([t_ctor(cons, llist([T_INT, ans]))]))),
        fuel=100_000,
    )


# ---------------------------------------------------------------------------
# 3. Three memberships over {A/1, B/1} enumerate exactly 8 answers.
# ---------------------------------------------------------------------------


def test_three_membership_constraints_enumerate_eight():
    tb = TagTable()
    a = tb.intern("A", 1)
    b = tb.intern("B", 1)
    opts = SolverOpts(table=tb)

    def query(q):
        def k(vs):
            x, y, z = vs
            queue = [
                c_sexp(a, x, llist([T_INT])),
                c_sexp(b, y, llist([T_STR])),
                c_sexp(a, z, llist([T_INT])),
            ]
            return conj(unify(q, llist(vs)), entail_all(queue, opts))

        return fresh_many(3, k)

    t0 = time.monotonic()
    res = run(query, max_answers=None, fuel=2_000_000)
    elapsed = time.monotonic() - t0
    assert res.ended
    # Independent count: each free subject admits candidate lists of
    # lengths 1..2 (universe size 2), so 2 per subject, 2**3 overall.
    assert O.count_sexp_candidates(3, tb.sexp_max_length) == 8
    assert len(res.answers) == 8
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 4. Call pruning: one arrow answer; no-prune agrees but works harder.
# ---------------------------------------------------------------------------


def _call_free(prune):
    tb = TagTable()
    counters = Counters()
    opts = SolverOpts(table=tb, prune=prune)

    def query(q):
        return entail_all([c_call(q, llist([T_INT]), T_STR)], opts)

    res = run(query, max_answers=1, fuel=2_000_000, counters=counters)
    return res, counters


def test_call_pruning_single_plain_arrow():
    res, counters = _call_free(prune=True)
    assert len(res.answers) == 1
    (ans,) = res.answers
    assert ans == t_arrow(LNIL, LNIL, llist([T_INT]), T_STR)
    # With pruning this is the only answer.
    res_all, _ = _call_free(prune=True)
    full = run(
        lambda q: entail_all([c_call(q, llist([T_INT]), T_STR)], SolverOpts(table=TagTable())),
        max_answers=None,
        fuel=500_000,
    )
    assert full.ended and len(full.answers) == 1


def test_no_prune_same_first_answer_more_steps():
    pruned, c1 = _call_free(prune=True)
    unpruned, c2 = _call_free(prune=False)
    assert unpruned.answers[:1] == pruned.answers[:1]
    assert c2.steps > c1.steps


# ---------------------------------------------------------------------------
# 5. Constructor-list pruning: candidate lists are bounded and ordered.
# ---------------------------------------------------------------------------


def test_free_subject_three_ctor_universe_three_answers():
    tb = TagTable()
    cons = tb.intern("Cons", 1)
    tb.intern("Nil", 0)
    tb.intern("Pair", 2)
    assert tb.sexp_max_length == 3
    opts = SolverOpts(table=tb)

    def query(q):
        return entail_all([c_sexp(cons, q, llist([T_INT]))], opts)

    res = run(query, max_answers=None, fuel=1_000_000)
    assert res.ended and len(res.answers) == 3
    lengths = set()
    for ans in res.answers:
        cells = []
        t = ans.args[0]
        while t.tag == "lcons":
            cells.append(t.args[0])
            t = t.args[1]
        lengths.add(len(cells))
        assert cells[0].args[0] == cons  # required member first
    assert lengths == {1, 2, 3}


def test_partially_known_subject_single_answer():
    # Subject already contains Nil with an open tail; requiring Cons
    # membership over the universe {Nil/0, Cons/1} leaves exactly one
    # candidate extension.
    tb = TagTable()
    nil = tb.intern("Nil", 0)
    cons = tb.intern("Cons", 1)
    opts = SolverOpts(table=tb)

    def query(q):
        subject = t_sexp(Compound("lcons", (t_ctor(nil, llist([])), q)))
        return entail_all([c_sexp(cons, subject, llist([T_INT]))], opts)

    res = run(query, max_answers=None, fuel=1_000_000)
    assert res.ended
    assert len(res.answers) == 1


# ---------------------------------------------------------------------------
# 6. Shipped corpus: verdicts, the reported list type, and the budget.
# ---------------------------------------------------------------------------


def _run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_corpus_verdicts_and_types_within_budget():
    t0 = time.monotonic()
    code, out = _run_cli("corpus", "corpus")
    elapsed = time.monotonic() - t0
    assert code == 0, out
    for line in (
        "sort.lama: PASS (Typed)",
        "case_list.lama: PASS (Typed)",
        "closure_chain.lama: PASS (Typed)",
        "self_array.lama: PASS (Unknown)",
    ):
        assert line in out, out
    assert "checked=6 failed=0" in out
    assert elapsed < 60.0, f"corpus took {elapsed:.1f}s"


def test_self_referential_array_is_unknown_for_the_right_reason():
    code, out = _run_cli("check", "corpus/self_array.lama", "--max-steps", "30000")
    assert code == 2
    lines = out.splitlines()
    assert lines[0] == "Unknown"
    # The search repeats the state of an earlier quantified call.
    assert lines[1].startswith("search cycles: Call(")
    assert lines[1].endswith(" at dispatch 5 repeats dispatch 3")


# ---------------------------------------------------------------------------
# 7. Ground entailment agrees with the brute-force derivation checker
#    over a fixed 40-case table.
# ---------------------------------------------------------------------------


def _universe():
    tb = TagTable()
    a = tb.intern("A", 1)
    b = tb.intern("B", 1)
    return tb, a, b


def _ground_cases():
    """(engine queue, oracle queue) pairs over {A/1, B/1}, depth <= 2."""
    tb, a, b = _universe()

    # Paired ground types: engine term and oracle tuple.
    INT = (T_INT, O.INT)
    STR = (T_STR, O.STR)
    AINT = (t_array(T_INT), O.arr(O.INT))
    ASTR = (t_array(T_STR), O.arr(O.STR))
    SA = (
        t_sexp(llist([t_ctor(a, llist([T_INT]))])),
        O.sexp(("A", (O.INT,))),
    )
    SAB = (
        t_sexp(llist([t_ctor(a, llist([T_INT])), t_ctor(b, llist([T_STR]))])),
        O.sexp(("A", (O.INT,)), ("B", (O.STR,))),
    )
    MU = (
        t_mu("r", t_sexp(llist([t_ctor(a, llist([t_name("r")]))]))),
        O.mu("r", O.sexp(("A", (O.name("r"),)))),
    )
    ID = (
        t_arrow(llist(["p"]), LNIL, llist([t_name("p")]), t_name("p")),
        O.arrow(("p",), (), (O.name("p"),), O.name("p")),
    )
    I2S = (
        t_arrow(LNIL, LNIL, llist([T_INT]), T_STR),
        O.arrow((), (), (O.INT,), O.STR),
    )

    def ind(c, e):
        return (c_ind(c[0], e[0]), ("ind", c[1], e[1]))

    def call(f, args, r):
        return (
            c_call(f[0], llist([x[0] for x in args]), r[0]),
            ("call", f[1], tuple(x[1] for x in args), r[1]),
        )

    def sx(tag_e, tag_o, subj, args):
        return (
            c_sexp(tag_e, subj[0], llist([x[0] for x in args])),
            ("sexpc", tag_o, subj[1], tuple(x[1] for x in args)),
        )

    singles = [
        ind(STR, INT),          # string indexes to Int: derivable
        ind(STR, STR),          # wrong element: not derivable
        ind(AINT, INT),         # array element
        ind(AINT, STR),         # wrong element
        ind(ASTR, STR),
        ind(INT, INT),          # Int is not indexable
        ind(SA, INT),           # all member args equal Int
        ind(SAB, INT),          # B carries Str: fails
        ind(MU, MU),            # unfolds to A(mu); member arg is mu itself
        ind(MU, INT),
        call(ID, [INT], INT),   # identity at Int
        call(ID, [STR], STR),
        call(ID, [INT], STR),   # result mismatch
        call(I2S, [INT], STR),  # monomorphic arrow
        call(I2S, [STR], STR),  # param mismatch
        call(I2S, [INT], INT),  # result mismatch
        call(INT, [INT], INT),  # not a function
        sx(0, "A", SA, [INT]),  # member present
        sx(1, "B", SA, [STR]),  # tag absent
        sx(1, "B", SAB, [STR]),
        sx(1, "B", SAB, [INT]),  # wrong args
        sx(0, "A", SAB, [INT]),
        sx(0, "A", AINT, [INT]),  # not a union
        sx(0, "A", MU, [MU]),     # through one unfolding
    ]
    pairs = [
        [singles[0], singles[2]],    # both derivable
        [singles[0], singles[1]],    # one underivable poisons the queue
        [singles[2], singles[4]],
        [singles[2], singles[3]],
        [singles[10], singles[13]],
        [singles[10], singles[12]],
        [singles[17], singles[19]],
        [singles[17], singles[18]],
        [singles[6], singles[23]],
        [singles[8], singles[23]],
        [singles[13], singles[0]],
        [singles[16], singles[0]],
        [singles[5], singles[5]],
        [singles[0], singles[0]],
        [singles[19], singles[21]],
        [singles[11], singles[4]],
    ]
    cases = [[s] for s in singles] + pairs
    assert len(cases) == 40
    return tb, cases


def test_ground_entailment_matches_derivation_oracle():
    tb, cases = _ground_cases()
    pool = [
        O.INT,
        O.STR,
        O.arr(O.INT),
        O.arr(O.STR),
        O.sexp(("A", (O.INT,))),
        O.sexp(("A", (O.INT,)), ("B", (O.STR,))),
        O.mu("r", O.sexp(("A", (O.name("r"),)))),
    ]
    opts = SolverOpts(table=tb)
    disagreements = []
    for i, case in enumerate(cases):
        queue = [eng for eng, _ in case]
        want = O.entails([orc for _, orc in case], pool)
        res = run(lambda q: entail_all(queue, opts), max_answers=1, fuel=300_000)
        got = len(res.answers) == 1
        if got != want:
            disagreements.append((i, case, got, want))
    assert not disagreements, disagreements


# ---------------------------------------------------------------------------
# 8. Determinism: two corpus runs are byte-identical.
# ---------------------------------------------------------------------------


def test_corpus_runs_are_byte_identical():
    code1, out1 = _run_cli("corpus", "corpus", "--stats")
    code2, out2 = _run_cli("corpus", "corpus", "--stats")
    assert code1 == code2
    assert out1 == out2
