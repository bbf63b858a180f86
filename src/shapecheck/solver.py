"""Entailment of the constraint queue.

The queue holds atomic constraints as engine terms. One constraint at a
time is picked by weight, dispatched to its kind-specific solver, and any
constraints it spawns (instantiated arrow obligations, pattern
sub-constraints, deferred residuals) are appended; the run succeeds when
the queue is empty. All forking happens inside the relational engine, so
each search branch carries its own queue.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .engine import (
    Compound,
    PMap,
    Var,
    conj,
    delay,
    disj,
    disunify,
    fail,
    fresh_many,
    fresh_with,
    is_not_var,
    is_var,
    reify_term,
    shallow_walk,
    succeed,
    unify,
)
from .types import (
    LNIL,
    T_INT,
    T_STR,
    TagTable,
    _walk_list,
    apply_type_subst,
    c_match,
    c_sexp,
    eq_t,
    eq_ts,
    lcons,
    llist,
    p_shape,
    t_array,
    t_arrow,
    t_ctor,
    t_sexp,
    unmu,
)


@dataclass
class SolverOpts:
    table: TagTable
    prune: bool = True
    max_ctors: int | None = None  # overrides the interned constructor count

    @property
    def sexp_bound(self) -> int:
        if self.max_ctors is not None:
            return self.max_ctors
        return self.table.sexp_max_length


# ---------------------------------------------------------------------------
# Scheduling.
# ---------------------------------------------------------------------------

_W_EQ = 0
_W_SEXP_GROUND = 1
_W_IND_GROUND = 2
_W_CALL_GROUND = 3
_W_SEXP_FREE = 4
_W_IND_FREE = 5
_W_MATCH = 6
_W_CALL_FREE = 7


def _is_free(t, subst) -> bool:
    return isinstance(shallow_walk(t, subst), Var)


def constraint_weight(c, state):
    """Weight of a constraint in the current state; None marks a residual
    that cannot make progress yet (a boxedness check on a still-free
    subject) and must not be picked."""
    w = shallow_walk(c, state.subst)
    if isinstance(w, Var):
        return None
    if w.tag == "Eq":
        return _W_EQ
    if w.tag == "SexpC":
        return _W_SEXP_GROUND if not _is_free(w.args[1], state.subst) else _W_SEXP_FREE
    if w.tag == "Ind":
        return _W_IND_GROUND if not _is_free(w.args[0], state.subst) else _W_IND_FREE
    if w.tag == "Call":
        return _W_CALL_GROUND if not _is_free(w.args[0], state.subst) else _W_CALL_FREE
    if w.tag == "Match":
        if _is_free(w.args[0], state.subst):
            pats = _walk_list(w.args[1], state.subst)
            if pats:
                walked = [shallow_walk(p, state.subst) for p in pats]
                if all(
                    isinstance(p, Compound) and p.tag == "PShape" and p.args[0] == "box"
                    for p in walked
                ):
                    return None
        return _W_MATCH
    raise ValueError(f"not a constraint: {w!r}")


def _reversed_chain(chain, tail=None):
    """The cons cells of chain, last first, in front of tail."""
    while chain is not None:
        tail = (chain[0], tail)
        chain = chain[1]
    return tail


class ConstraintQueue:
    """Persistent queue of pending constraints, in two lanes of cons cells
    (item, next), shared between search branches.

    An equality weighs 0 in every state, so equalities wait in their own
    FIFO lane (a front chain and a reversed rear chain) whose head is the
    pick, found without computing a weight. Every other item waits in the
    other lane in enqueue order, scanned by weight only when the equality
    lane is empty. The pick is the one a scan of a single list in enqueue
    order makes: minimal weight, ties to the earliest, a residual (weight
    None) never.

    `mixed` counts other-lane items that may weigh 0: raw variables, and
    equalities queued there because one was waiting. While it is
    nonzero new equalities join the other lane too, so every equality-lane
    item precedes every other-lane item that may weigh 0. `size` counts
    the items of both lanes.
    """

    __slots__ = ("eq_front", "eq_rear", "front", "rear", "mixed", "size")

    def __init__(self, eq_front=None, eq_rear=None, front=None, rear=None, mixed=0, size=0):
        self.eq_front = eq_front  # None only when eq_rear is None too
        self.eq_rear = eq_rear
        self.front = front
        self.rear = rear
        self.mixed = mixed
        self.size = size

    def __bool__(self):
        return not (self.eq_front is None and self.front is None and self.rear is None)

    def push_all(self, items) -> "ConstraintQueue":
        """The queue with items appended in order; itself when there are none."""
        if not items:
            return self
        eqs, rear, mixed = [], self.rear, self.mixed
        for c in items:
            if not isinstance(c, Compound) or (mixed and c.tag == "Eq"):
                rear = (c, rear)
                mixed += 1
            elif c.tag == "Eq":
                eqs.append(c)
            else:
                rear = (c, rear)
        eq_front, eq_rear = self.eq_front, self.eq_rear
        if eq_front is None:
            # Built front first, so a long initial queue is never held
            # twice, as a rear chain and its reversal.
            for c in reversed(eqs):
                eq_front = (c, eq_front)
        else:
            for c in eqs:
                eq_rear = (c, eq_rear)
        return ConstraintQueue(eq_front, eq_rear, self.front, rear, mixed, self.size + len(items))

    def pop(self, state):
        """(picked item, the remaining queue), or None when the queue is
        empty or holds only residuals."""
        cell = self.eq_front
        if cell is not None:
            eq_front, eq_rear = cell[1], self.eq_rear
            if eq_front is None and eq_rear is not None:
                eq_front, eq_rear = _reversed_chain(eq_rear), None
            rest = ConstraintQueue(eq_front, eq_rear, self.front, self.rear, self.mixed, self.size - 1)
            return cell[0], rest
        front = self.front
        if self.rear is not None:
            front = _reversed_chain(_reversed_chain(front), _reversed_chain(self.rear))
        # The lowest weight this lane can hold: nothing after an item of
        # that weight can beat it, so the scan stops there.
        floor = _W_EQ if self.mixed else _W_SEXP_GROUND
        best = best_w = None
        i, cell = 0, front
        while cell is not None:
            w = constraint_weight(cell[0], state)
            if w is not None and (best_w is None or w < best_w):
                best, best_w = i, w
                if w <= floor:
                    break
            i += 1
            cell = cell[1]
        if best is None:
            return None
        # Only the cells before the pick are copied; the rest is shared.
        prefix, cell = None, front
        for _ in range(best):
            prefix = (cell[0], prefix)
            cell = cell[1]
        item, rest = cell
        rest = _reversed_chain(prefix, rest)
        mixed = self.mixed
        if mixed and (not isinstance(item, Compound) or item.tag == "Eq"):
            mixed -= 1
        return item, ConstraintQueue(None, None, rest, None, mixed, self.size - 1)

    def lanes(self):
        """The equality lane and the other lane, each a list in pop order."""
        return _lane(self.eq_front, self.eq_rear), _lane(self.front, self.rear)


def _lane(front, rear) -> list:
    out = []
    while front is not None:
        out.append(front[0])
        front = front[1]
    back = []
    while rear is not None:
        back.append(rear[0])
        rear = rear[1]
    out.extend(reversed(back))
    return out


# ---------------------------------------------------------------------------
# Variant loop check.
# ---------------------------------------------------------------------------

_ATOM = object()  # token: the next token is a literal atom
_RAW = object()  # token: the next queue item was queued as a bare variable


def variant_key(item, queue: ConstraintQueue, subst, diseqs) -> tuple:
    """A flat token tuple naming a dispatch state up to renaming.

    It covers the query variable Var(0) (the roots), the picked item,
    both lanes of the remaining queue in order, and every pending
    disequality pair, deep-walked under subst in one iterative pre-order
    walk, so a long list takes no stack and hashing sees no nested term.
    Unbound variables become their first-occurrence numbers (0, 1, ...),
    name strings (TName leaves, mu and arrow binders) theirs as negative
    numbers (-1, -2, ...); a compound is its tag followed by its
    arguments (every tag has one arity), and any other atom, such as a
    PShape kind or a tag id, is `_ATOM` followed by itself. Two states
    have equal keys iff one is the other with variables and names renamed
    one-to-one, so both have the same search tree up to that renaming.
    """
    eq_lane, other_lane = queue.lanes()
    out = [queue.mixed, len(eq_lane), len(other_lane), len(diseqs)]
    todo = []
    for d in reversed(diseqs):
        todo += (d[1], d[0])
    for c in reversed([item, *eq_lane, *other_lane]):
        todo.append(c)
        if isinstance(c, Var):
            todo.append(_RAW)
    todo.append(Var(0))
    var_nums, name_nums = {}, {}
    while todo:
        t = shallow_walk(todo.pop(), subst)
        if isinstance(t, Var):
            n = var_nums.get(t.id)
            if n is None:
                n = var_nums[t.id] = len(var_nums)
            out.append(n)
        elif isinstance(t, Compound):
            out.append(t.tag)
            if t.tag == "PShape":
                out += (_ATOM, t.args[0])
            else:
                todo.extend(reversed(t.args))
        elif isinstance(t, str):
            n = name_nums.get(t)
            if n is None:
                n = name_nums[t] = -1 - len(name_nums)
            out.append(n)
        elif t is _RAW:
            out.append(t)
        else:
            out += (_ATOM, t)
    return tuple(out)


class _Visit:
    """A quantified Call dispatch on the current branch: its dispatch
    number and the state it saw, keyed lazily."""

    __slots__ = ("item", "rest", "subst", "diseqs", "dispatch", "_key")

    def __init__(self, item, rest, state):
        self.item = item
        self.rest = rest
        self.subst = state.subst
        self.diseqs = state.diseqs
        self.dispatch = state.counters.dispatched
        self._key = None

    def key(self) -> tuple:
        if self._key is None:
            self._key = variant_key(self.item, self.rest, self.subst, self.diseqs)
        return self._key

    def variant_of(self, visits: PMap):
        """The ancestor on this branch whose state this one renames, or
        None. visits maps a queue size to a chain (visit, next) of the
        ancestors that left that many items queued; only those with as
        many pending disequalities are keyed."""
        chain = visits.get(self.rest.size)
        while chain is not None:
            other, chain = chain
            if len(other.diseqs) == len(self.diseqs) and other.key() == self.key():
                return other
        return None


def _is_quantified_call(w, subst) -> bool:
    fn = shallow_walk(w.args[0], subst)
    if not (isinstance(fn, Compound) and fn.tag == "TArrow"):
        return False
    binders = shallow_walk(fn.args[0], subst)
    return isinstance(binders, Compound) and binders.tag == "lcons"


# ---------------------------------------------------------------------------
# The dispatch loop.
# ---------------------------------------------------------------------------


def entail_all(constraints, opts: SolverOpts):
    """Succeed iff every constraint is entailed.

    The empty queue succeeds; otherwise one constraint is picked, solved,
    and the loop recurses on the remainder plus whatever it spawned. A
    nonempty queue of only unpickable residuals is stuck and fails.

    A branch that dispatches a Call of a quantified arrow in a state that
    is a variant of an ancestor's (see `variant_key`) ends there: its
    search tree is the ancestor's up to renaming, so it can find only
    answers the ancestor finds sooner. That holds when the query's answer
    is Var(0) and entail_all is its last goal, as in `checker.solve_gen`.
    Counters record the first such cut in `cycle`.
    """
    return _entail(ConstraintQueue().push_all(constraints), opts, PMap())


def _entail(queue: ConstraintQueue, opts: SolverOpts, visits: PMap):
    def goal(state):
        picked = queue.pop(state)
        if picked is None:
            return None if queue else succeed(state)
        item, rest = picked
        counters = state.counters
        counters.dispatched += 1
        # Stored lazily (term + persistent substitution); reified only if
        # the failure report needs it.
        counters.last_constraint = (item, state.subst)
        below = visits

        def kont(spawned):
            return delay(lambda: _entail(rest.push_all(spawned), opts, below))

        w = shallow_walk(item, state.subst)
        if w.tag == "Eq":
            return conj(eq_t(w.args[0], w.args[1]), kont([]))(state)
        if w.tag == "Ind":
            return solve_ind(w.args[0], w.args[1], opts, kont)(state)
        if w.tag == "Call":
            args = _walk_list(w.args[1], state.subst)
            if args is None:
                return None
            if _is_quantified_call(w, state.subst):
                visit = _Visit(item, rest, state)
                seen = visit.variant_of(visits)
                if seen is not None:
                    if counters.cycle is None:
                        counters.cycle = (item, state.subst, visit.dispatch, seen.dispatch)
                    return None
                below = visits.set(rest.size, (visit, visits.get(rest.size)))
            return solve_call(w.args[0], args, w.args[2], opts, kont)(state)
        if w.tag == "SexpC":
            args = _walk_list(w.args[2], state.subst)
            if args is None:
                return None
            return solve_sexp(w.args[0], w.args[1], args, opts, kont)(state)
        if w.tag == "Match":
            return solve_match(w.args[0], w.args[1], opts, kont)(state)
        return None

    return goal


# ---------------------------------------------------------------------------
# Ind: indexing into strings, arrays and S-expressions.
# ---------------------------------------------------------------------------


def solve_ind(container, elem, opts: SolverOpts, kont):
    table = opts.table

    def dispatch(u):
        def goal(state):
            w = shallow_walk(u, state.subst)
            if isinstance(w, Var):
                branches = [
                    conj(unify(w, T_STR), eq_t(elem, T_INT)),
                    fresh_with(lambda t: conj(unify(w, t_array(t)), eq_t(elem, t))),
                ]
                for length in range(1, opts.sexp_bound + 1):
                    for combo in combinations(table.all_ids(), length):
                        branches.append(delay(lambda c=combo: _ind_sexp_branch(w, elem, c, table)))
                return disj(*branches)(state)
            if w.tag == "TStr":
                return eq_t(elem, T_INT)(state)
            if w.tag == "TArray":
                return eq_t(elem, w.args[0])(state)
            if w.tag == "TSexp":
                goals = []
                entries = w.args[0]
                entries = shallow_walk(entries, state.subst)
                while isinstance(entries, Compound) and entries.tag == "lcons":
                    cell = shallow_walk(entries.args[0], state.subst)
                    if isinstance(cell, Compound) and cell.tag == "ctor":
                        args = _walk_list(cell.args[1], state.subst)
                        if args is not None:
                            goals.extend(eq_t(a, elem) for a in args)
                    entries = shallow_walk(entries.args[1], state.subst)
                return conj(*goals)(state) if goals else succeed(state)
            return None

        return goal

    return fresh_with(lambda u: conj(unmu(container, u), dispatch(u), kont([])))


def _ind_sexp_branch(w, elem, tag_ids, table: TagTable):
    """w becomes an S-expression type listing exactly these tags (in id
    order), every argument position equal to the element type."""

    def build(tid_list, cells):
        if not tid_list:
            ctors = llist(cells)
            return unify(w, t_sexp(ctors))
        tid = tid_list[0]
        arity = table.arity(tid)
        return fresh_many(
            arity,
            lambda vs: conj(
                *[eq_t(v, elem) for v in vs],
                build(tid_list[1:], cells + [t_ctor(tid, llist(vs))]),
            ),
        )

    return build(list(tag_ids), [])


# ---------------------------------------------------------------------------
# Call: function application.
# ---------------------------------------------------------------------------


def solve_call(fn, args, result, opts: SolverOpts, kont):
    nargs = len(args)

    def with_arrow(u, fxs, fc, ps, r):
        def instantiate(state):
            st = state
            names = _walk_list(fxs, st.subst) or []
            mapping = {}
            for name in names:
                name = shallow_walk(name, st.subst)
                if isinstance(name, str):
                    v, st = st.fresh_var()
                    mapping[name] = v
            spawned = [
                apply_type_subst(mapping, c, st.subst)
                for c in (_walk_list(fc, st.subst) or [])
            ]
            params = _walk_list(ps, st.subst) or []
            goals = [
                eq_t(apply_type_subst(mapping, p, st.subst), a)
                for p, a in zip(params, args)
            ]
            goals.append(eq_t(apply_type_subst(mapping, r, st.subst), result))
            goals.append(kont(spawned))
            return conj(*goals)(st)

        return conj(
            unmu(fn, u),
            unify(u, t_arrow(fxs, fc, ps, r)),
            fresh_many(nargs, lambda vs: unify(ps, llist(vs))),
            _force_empty(fxs, opts),
            _force_empty(fc, opts),
            instantiate,
        )

    return fresh_many(5, lambda vs: with_arrow(*vs))


def _force_empty(lst, opts: SolverOpts):
    """A free binder/constraint list of an applied function is forced
    empty; a determined one is kept. Without pruning a free list is
    enumerated instead (empty first, then ever longer)."""
    if opts.prune:
        return disj(conj(is_var(lst), unify(lst, LNIL)), is_not_var(lst))

    def gen(v):
        return disj(
            unify(v, LNIL),
            delay(
                lambda: fresh_with(
                    lambda h: fresh_with(lambda t: conj(unify(v, lcons(h, t)), gen(t)))
                )
            ),
        )

    return disj(conj(is_var(lst), gen(lst)), is_not_var(lst))


# ---------------------------------------------------------------------------
# Sexp: exactly-one-constructor membership with bounded lists.
# ---------------------------------------------------------------------------


def solve_sexp(tag, subject, args, opts: SolverOpts, kont):
    max_len = opts.sexp_bound
    want_args = llist(args)

    def check_n(n):
        # The length bound is part of the pruning; without it candidate
        # constructor lists grow without limit (lazily).
        if not opts.prune:
            return succeed
        return succeed if n <= max_len else fail

    def not_in_tail(n, xs):
        # xs must not contain the tag; the disequality is a pure tag test,
        # so generated cells keep a free argument-list variable that later
        # constraints can still fill in.
        def cell(tv, cargs, rest):
            return conj(
                unify(xs, lcons(t_ctor(tv, cargs), rest)),
                disunify(tag, tv),
                not_in_tail(n + 1, rest),
            )

        more = delay(lambda: fresh_many(3, lambda vs: cell(*vs)))
        return conj(check_n(n), disj(unify(xs, LNIL), more))

    def hlp(n, xs):
        # xs contains exactly one entry with this tag, matching args; any
        # entry scanned past must already have a determined, distinct tag.
        def cell(tv, tsv, rest):
            return conj(
                unify(xs, lcons(t_ctor(tv, tsv), rest)),
                disj(
                    conj(
                        unify(tag, tv),
                        eq_ts(want_args, tsv),
                        not_in_tail(n + 1, rest),
                    ),
                    conj(
                        is_not_var(tv),
                        disunify(tag, tv),
                        hlp(n + 1, rest),
                    ),
                ),
            )

        return conj(check_n(n), delay(lambda: fresh_many(3, lambda vs: cell(*vs))))

    def solve(u, cl):
        return conj(
            unmu(subject, u),
            unify(u, t_sexp(cl)),
            hlp(0, cl),
            kont([]),
        )

    return fresh_many(2, lambda vs: solve(*vs))


# ---------------------------------------------------------------------------
# Match: pattern shapes as lower bounds on the subject.
# ---------------------------------------------------------------------------


def solve_match(subject, pats, opts: SolverOpts, kont):
    def process(u):
        def goal(state):
            st = state
            goals = []
            spawned = []

            def fv():
                nonlocal st
                v, st2 = st.fresh_var()
                st = st2
                return v

            def handle(p, subj):
                p = shallow_walk(p, st.subst)
                if p.tag == "PWild":
                    return
                if p.tag == "PAt":
                    goals.append(eq_t(p.args[0], subj))
                    handle(p.args[1], subj)
                    return
                if p.tag == "PArray":
                    e = fv()
                    goals.append(eq_t(subj, t_array(e)))
                    for q in _walk_list(p.args[0], st.subst) or []:
                        handle(q, e)
                    return
                if p.tag == "PSexp":
                    qs = _walk_list(p.args[1], st.subst) or []
                    ts = [fv() for _ in qs]
                    spawned.append(c_sexp(p.args[0], subj, llist(ts)))
                    for q, t in zip(qs, ts):
                        handle(q, t)
                    return
                if p.tag == "PShape":
                    kind = p.args[0]
                    if kind == "unbox":
                        goals.append(eq_t(subj, T_INT))
                    elif kind == "str":
                        goals.append(eq_t(subj, T_STR))
                    elif kind == "array":
                        goals.append(eq_t(subj, t_array(fv())))
                    elif kind == "sexp":
                        goals.append(eq_t(subj, t_sexp(fv())))
                    elif kind == "fun":
                        fxs, fc, ps, r = fv(), fv(), fv(), fv()
                        goals.append(eq_t(subj, t_arrow(fxs, fc, ps, r)))
                        goals.append(_force_empty(fxs, opts))
                        goals.append(_force_empty(fc, opts))
                    elif kind == "box":
                        w = shallow_walk(subj, st.subst)
                        if isinstance(w, Var):
                            # Cannot decide boxedness yet: leave a residual
                            # that reschedules once the subject determines.
                            spawned.append(c_match(subj, llist([p_shape("box")])))
                        else:
                            goals.append(disunify(subj, T_INT))
                    return
                raise ValueError(f"not a pattern: {p!r}")

            for p in _walk_list(pats, st.subst) or []:
                handle(p, u)
            goals.append(kont(spawned))
            return conj(*goals)(st)

        return goal

    return fresh_with(lambda u: conj(unmu(subject, u), process(u)))
