"""Entailment of the constraint queue.

The queue holds atomic constraints as engine terms. One constraint at a
time is picked by weight, dispatched to its kind-specific solver, and any
constraints it spawns (instantiated arrow obligations, pattern
sub-constraints, deferred residuals) are appended; the run succeeds when
the queue is empty. A queue left holding only residuals has its open
constructor rows closed by one labeling step (`_label`). All forking
happens inside the relational engine, so each search branch carries its
own queue.
"""

from __future__ import annotations

from bisect import bisect_left, insort

from .engine import (
    Compound,
    PMap,
    Var,
    bind,
    conj,
    delay,
    disj,
    disunify,
    fresh_many,
    mbind,
    shallow_walk,
    succeed,
    unify,
)
from .syntax import Record
from .types import (
    LNIL,
    T_INT,
    T_STR,
    TagTable,
    _walk_list,
    apply_type_subst,
    c_ind_args,
    c_ind_row,
    c_lacks,
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
    unfold_mu,
)


class SolverOpts(Record):
    __slots__ = ("table", "prune", "max_ctors")

    def __init__(self, table: TagTable, prune: bool = True, max_ctors: int | None = None):
        self.table = table
        self.prune = prune
        self.max_ctors = max_ctors  # overrides the interned constructor count

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

# The residuals that rows leave (see `solve_sexp` and `solve_ind`), each
# with the weight it takes once the list it reads is bound.
_ROW_RESIDUALS = {"Lacks": _W_SEXP_GROUND, "IndRow": _W_IND_GROUND, "IndArgs": _W_IND_GROUND}


def _is_free(t, subst) -> bool:
    return isinstance(shallow_walk(t, subst), Var)


def _subject(c):
    """The argument of a constraint whose top its weight reads."""
    return c.args[1] if c.tag in ("SexpC", "Lacks") else c.args[0]


def constraint_weight(c, state):
    """Weight of a constraint in the current state; None marks a residual
    that cannot make progress yet (a boxedness check on a still-free
    subject, a row residual on a still-open list) and must not be picked."""
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
    if w.tag in _ROW_RESIDUALS:
        # A row residual waits while the list it reads is open.
        return None if _is_free(_subject(w), state.subst) else _ROW_RESIDUALS[w.tag]
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


# The weights that can still change: a residual's (None) and a free
# subject's. An item of such a weight sleeps on the one unbound variable
# whose binding changes it (see `_sleep_var`).
_WAITING = (None, _W_SEXP_FREE, _W_IND_FREE, _W_CALL_FREE)


def _sleep_var(item, subst, weight):
    """The id of the variable an item of this weight, just weighed under
    subst, sleeps on; None when its weight is final.

    A raw queued variable still unbound weighs None and waits on itself;
    otherwise the weight reads the top of one subject (a row residual's
    list), which for a weight in `_WAITING` is an unbound variable. (A
    Match's pattern list and the top of each pattern are built concrete,
    so only its subject can turn a box residual pickable.) Binding that
    variable to another one leaves the weight as it is; binding it to
    anything else may change it."""
    if weight not in _WAITING:
        return None
    c = shallow_walk(item, subst)
    if isinstance(c, Var):
        return c.id
    return shallow_walk(_subject(c), subst).id


class ConstraintQueue:
    """Persistent queue of pending constraints, shared between search
    branches.

    The pick is the one a scan of a single list in enqueue order makes:
    minimal weight, ties to the earliest, a residual (weight None) never.
    Items are weighed lazily and once. They join unweighed, in `fresh`;
    the next pick weighs them and gives each its enqueue rank. Pickable
    items then wait in `ranked`, a tuple sorted by (weight, rank), whose
    head is the pick. An item whose weight can still change (a residual,
    or a free subject) also sleeps in `sleepers`: variable id -> the
    (weight, rank, item) entries waiting on it. A pick first wakes the
    sleepers of every variable bound since `seen`, the substitution the
    queue was last brought up to date with, listed by the substitution
    itself (`PMap.keys_since`). A variable bound to another one hands its
    sleepers to that one; one bound to anything else has them weighed
    again, once, into their new place. So an item is weighed once when it
    is first picked past and once per binding that changes its weight,
    never at every pick.

    `mixed` counts the items that may weigh 0: raw variables and
    equalities. While it is 0 the solver dispatches new equalities at
    once instead of queuing them (see `_enqueue`). `size` counts the
    items.
    """

    __slots__ = ("fresh", "mixed", "size", "ranked", "sleepers", "seen", "rank")

    def __init__(self, fresh=(), mixed=0, size=0, ranked=(), sleepers=None, seen=None, rank=0):
        self.fresh = fresh  # unweighed items, in enqueue order
        self.mixed = mixed
        self.size = size
        self.ranked = ranked
        self.sleepers = sleepers if sleepers is not None else {}  # copied on write
        self.seen = seen
        self.rank = rank  # the next enqueue rank

    def __bool__(self):
        return self.size != 0

    def push_all(self, items) -> "ConstraintQueue":
        """The queue with items appended in order; itself when there are none."""
        if not items:
            return self
        mixed = self.mixed + sum(not isinstance(c, Compound) or c.tag == "Eq" for c in items)
        return ConstraintQueue(
            self.fresh + tuple(items), mixed, self.size + len(items),
            self.ranked, self.sleepers, self.seen, self.rank,
        )

    def pop(self, state):
        """(picked item, the remaining queue), or None when the queue is
        empty or holds only residuals."""
        ranked, sleepers, rank, dropped = self._settle(state)
        if not ranked:
            return None
        weight, picked, item = ranked[0]
        ranked = ranked[1:]
        vid = _sleep_var(item, state.subst, weight)
        if vid is not None:
            sleepers = dict(sleepers)
            waiting = tuple(e for e in sleepers[vid] if e[1] != picked)
            if waiting:
                sleepers[vid] = waiting
            else:
                del sleepers[vid]
        mixed = self.mixed
        if not isinstance(item, Compound) or item.tag == "Eq":
            mixed -= 1
        size = self.size - 1 - dropped
        return item, ConstraintQueue((), mixed, size, ranked, sleepers, state.subst, rank)

    def residuals(self, state) -> list:
        """The items of a queue that `pop` finds holding only residuals,
        in enqueue order."""
        sleepers = self._settle(state)[1]
        entries = [e for bucket in sleepers.values() for e in bucket]
        return [e[2] for e in sorted(entries, key=lambda e: e[1])]

    def _settle(self, state):
        """The queue brought up to date with state: (ranked, sleepers,
        next rank, items dropped), after waking the sleepers of every
        variable bound since `seen` and weighing the unweighed items. An
        item is dropped when it repeats a lacks residual already sleeping
        on its row (see `_sleep`)."""
        subst = state.subst
        ranked, sleepers, rank = self.ranked, self.sleepers, self.rank
        order = None  # ranked as a list, once something moves
        dropped = 0
        if sleepers and self.seen is not subst:
            for bound in subst.keys_since(self.seen):
                woken = sleepers.get(bound)
                if woken is None:
                    continue
                if order is None:
                    order, sleepers = list(ranked), dict(sleepers)
                del sleepers[bound]
                to = shallow_walk(subst.get(bound), subst)
                if isinstance(to, Var):
                    for entry in woken:
                        dropped += not _sleep(sleepers, to.id, entry)
                    continue
                for entry in woken:
                    if entry[0] is not None:
                        del order[bisect_left(order, entry[:2])]
                    dropped += not self._place(entry[2], entry[1], state, order, sleepers)
        if self.fresh:
            if order is None:
                order, sleepers = list(ranked), dict(sleepers)
            for item in self.fresh:
                dropped += not self._place(item, rank, state, order, sleepers)
                rank += 1
        if order is not None:
            ranked = tuple(order)
        return ranked, sleepers, rank, dropped

    @staticmethod
    def _place(item, rank, state, order, sleepers) -> bool:
        """Weigh an item and file it: into order when pickable, into
        sleepers when its weight can still change. False when it is
        dropped instead (see `_sleep`)."""
        weight = constraint_weight(item, state)
        entry = (weight, rank, item)
        vid = _sleep_var(item, state.subst, weight)
        if vid is not None and not _sleep(sleepers, vid, entry):
            return False
        if weight is not None:
            insort(order, entry)
        return True

    def items(self) -> list:
        """The queued items, in enqueue order."""
        weighed = list(self.ranked)
        for entries in self.sleepers.values():
            weighed += [e for e in entries if e[0] is None]
        weighed.sort(key=lambda e: e[1])
        return [e[2] for e in weighed] + list(self.fresh)


def _sleep(sleepers, vid, entry) -> bool:
    """File an entry under the variable it sleeps on; False, filing
    nothing, for a lacks residual whose tag already sleeps there. A row
    holds one lacks residual per tag and open tail, however many
    memberships scan it, so a state that repeats an ancestor's rows stays
    a variant of it (see `variant_key`)."""
    bucket = sleepers.get(vid, ())
    item = entry[2]
    if entry[0] is None and isinstance(item, Compound) and item.tag == "Lacks":
        for other in bucket:
            c = other[2]
            if other[0] is None and isinstance(c, Compound) and c.tag == "Lacks" and c.args[0] == item.args[0]:
                return False
    sleepers[vid] = bucket + (entry,)
    return True


def _enqueue(queue: ConstraintQueue, items):
    """(queue with items appended, the equalities among them taken out to
    be dispatched at once, in order).

    An equality weighs 0, so while no queued item may weigh 0 as well
    (`mixed` is 0) it is the next pick, and so is every equality after
    it. The equalities of items up to the first raw variable are taken
    out; the rest of items is queued."""
    if queue.mixed:
        return queue.push_all(items), []
    eqs, others = [], []
    for i, c in enumerate(items):
        if not isinstance(c, Compound):
            others += items[i:]
            break
        (eqs if c.tag == "Eq" else others).append(c)
    return queue.push_all(others), eqs


# ---------------------------------------------------------------------------
# Variant loop check.
# ---------------------------------------------------------------------------

_ATOM = object()  # token: the next token is a literal atom
_RAW = object()  # token: the next queue item was queued as a bare variable


def variant_key(item, queue: ConstraintQueue, subst, diseqs) -> tuple:
    """A flat token tuple naming a dispatch state up to renaming.

    It covers the query variable Var(0) (the roots), the picked item,
    the items of the remaining queue in order, and every pending
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
    items = queue.items()
    out = [queue.mixed, len(items), len(diseqs)]
    todo = []
    for d in reversed(diseqs):
        todo += (d[1], d[0])
    for c in reversed([item, *items]):
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
    number and the state it saw, keyed lazily.

    `shape` holds parts of the state that renaming keeps, cheap to read:
    the pending disequality count and the tag the Call's function walks
    to. Two states whose shapes differ have different keys, so only
    ancestors of the same shape are keyed."""

    __slots__ = ("item", "rest", "subst", "diseqs", "dispatch", "shape", "_key")

    def __init__(self, item, rest, state, fn_tag):
        self.item = item
        self.rest = rest
        self.subst = state.subst
        self.diseqs = state.diseqs
        self.dispatch = state.counters.dispatched
        self.shape = (len(state.diseqs), fn_tag)
        self._key = None

    def key(self) -> tuple:
        if self._key is None:
            self._key = variant_key(self.item, self.rest, self.subst, self.diseqs)
        return self._key

    def variant_of(self, visits: PMap):
        """The ancestor on this branch whose state this one renames, or
        None. visits maps a queue size to a chain (visit, next) of the
        ancestors that left that many items queued; only those of the
        same shape are keyed."""
        chain = visits.get(self.rest.size)
        while chain is not None:
            other, chain = chain
            if other.shape == self.shape and other.key() == self.key():
                return other
        return None


def _quantified_fn(w, subst):
    """The tag a Call's function walks to ("TArrow", or "TMu" for a mu
    type directly around an arrow, as an occurs hook closes a recursive
    closure type) when that arrow is quantified; None otherwise."""
    fn = shallow_walk(w.args[0], subst)
    tag = fn.tag if isinstance(fn, Compound) else None
    if tag == "TMu":
        fn = shallow_walk(fn.args[1], subst)
    if not (isinstance(fn, Compound) and fn.tag == "TArrow"):
        return None
    binders = shallow_walk(fn.args[0], subst)
    return tag if isinstance(binders, Compound) and binders.tag == "lcons" else None


# ---------------------------------------------------------------------------
# The dispatch loop.
# ---------------------------------------------------------------------------


def entail_all(constraints, opts: SolverOpts):
    """Succeed iff every constraint is entailed.

    The empty queue succeeds; otherwise one constraint is picked, solved,
    and the loop recurses on the remainder plus whatever it spawned. An
    equality, the lightest constraint, is dispatched as soon as it is
    generated or spawned, unless a queued item may weigh 0 too; then it is
    queued like any other (see `_enqueue`). A nonempty queue of only
    unpickable residuals is labeled (`_label`): its open rows are closed,
    or it is stuck and fails.

    A branch that dispatches a Call of a quantified arrow in a state that
    is a variant of an ancestor's (see `variant_key`) ends there: its
    search tree is the ancestor's up to renaming, so it can find only
    answers the ancestor finds sooner. That holds when the query's answer
    is Var(0) and entail_all is its last goal, as in `checker.solve_gen`.
    Counters record the first such cut in `cycle`.

    A pick that its branch has dispatched before (see `_entailed_key`) is
    dropped: it counts as a dispatch but binds nothing. So the
    constraints are queued once each: one whose key, under the start
    state's substitution, an earlier one has is left out (the top-level
    presolve binds equal ground answers to one object, so constraints
    that read alike have one key). A row residual picked on a closed row
    (`_on_closed_row`) is passed over: it counts as a dispatch, but no
    handler runs and no stream step is taken.
    """

    def goal(state):
        once = {}
        for c in constraints:
            keyed = _entailed_key(c, state.subst) if c.__class__ is Compound else None
            once.setdefault(id(c) if keyed is None else keyed[0], c)
        return _entail(*_enqueue(ConstraintQueue(), list(once.values())), opts, PMap(), PMap())(state)

    return goal


def _entailed_key(c, subst):
    """The key of a picked constraint c (walked) in its branch's set of
    dispatched ones, and the terms it names: the tag and each argument
    walked one level, a list as its walked items and walked
    tail, each term by identity, so a key walks no term. The set keeps the
    terms, so their ids stay theirs. A constraint with an earlier one's
    key is that one under every later binding, entailed by its dispatch's
    bindings and residuals. None for a Call that may be its own
    descendant, which dropping would take as proved while proving it: only
    a Call spawns a Call, so a Call is keyed only when its arrow's
    constraint list is bound to its end and holds no Call and no raw
    variable."""
    if c.tag == "Call":
        fn = shallow_walk(c.args[0], subst)
        cs = _walk_list(fn.args[1], subst) if isinstance(fn, Compound) and fn.tag == "TArrow" else None
        if cs is None or not all([isinstance(x, Compound) and x.tag != "Call" for x in cs]):
            return None
    key, terms = [c.tag], []
    for a in c.args:
        a, n = shallow_walk(a, subst), len(terms)
        while isinstance(a, Compound) and a.tag == "lcons":
            terms.append(shallow_walk(a.args[0], subst))
            a = shallow_walk(a.args[1], subst)
        terms.append(a)
        key.append(id(a) if len(terms) == n + 1 else tuple(map(id, terms[n:])))
    return tuple(key), terms


def _entail(queue: ConstraintQueue, eqs: list, opts: SolverOpts, visits: PMap, entailed: PMap):
    """The goal that dispatches the equalities eqs, in order, then solves
    the queue. An equality is dispatched like a picked item (it counts,
    and it is the last constraint) without entering the queue (see
    `_enqueue`)."""

    def goal(state):
        counters = state.counters
        # While each walk is determinate (one mature answer), the
        # equalities are dispatched in this call; the rest resume in one
        # delayed step after the last one or after a walk that forks.
        for i, eq in enumerate(eqs):
            counters.dispatched += 1
            counters.last_constraint = (eq, state.subst)
            s = eq_t(eq.args[0], eq.args[1])(state)
            if i == len(eqs) - 1 or s is None or callable(s) or s[1] is not None:
                return mbind(s, delay(lambda: _entail(queue, eqs[i + 1:], opts, visits, entailed)), counters)
            state = s[0]
        rest = queue
        while True:
            picked = rest.pop(state)
            if picked is None:
                return _label(rest, opts, visits, entailed)(state) if rest else succeed(state)
            item, rest = picked
            counters.dispatched += 1
            # Stored lazily (term + persistent substitution); reified only
            # if the failure report needs it.
            counters.last_constraint = (item, state.subst)
            w = shallow_walk(item, state.subst)
            if w.tag not in _ROW_RESIDUALS or not _on_closed_row(w, state.subst, opts):
                break
        below, known = visits, entailed

        def kont(spawned):
            return delay(lambda: _entail(*_enqueue(rest, spawned), opts, below, known))

        if w.tag == "Eq":
            return mbind(eq_t(w.args[0], w.args[1])(state), kont([]), counters)
        keyed = _entailed_key(w, state.subst)
        if keyed is not None:
            if entailed.get(keyed[0]) is not None:
                return kont([])(state)
            known = entailed.set(*keyed)
        if w.tag == "Ind":
            return solve_ind(w.args[0], w.args[1], opts, kont)(state)
        if w.tag == "Call":
            args = _walk_list(w.args[1], state.subst)
            if args is None:
                return None
            fn_tag = _quantified_fn(w, state.subst)
            if fn_tag is not None:
                visit = _Visit(item, rest, state, fn_tag)
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
        if w.tag == "Lacks":
            return _lacks(w.args[0], w.args[1], w.args[2], opts, kont)(state)
        if w.tag == "IndRow":
            return _ind_row(w.args[0], w.args[1], kont)(state)
        if w.tag == "IndArgs":
            return _ind_args(w.args[0], w.args[1], kont)(state)
        if w.tag == "Match":
            return solve_match(w.args[0], w.args[1], opts, kont)(state)
        return None

    return goal


def _on_closed_row(w, subst, opts: SolverOpts) -> bool:
    """Whether a picked row residual w (walked) reads a row or argument
    list that is nil, within the length bound for a lacks one: its
    handler would bind nothing and spawn nothing, so the pick is passed
    over without a stream step."""
    if w.tag == "Lacks" and _too_long(w.args[2], opts):
        return False
    end = shallow_walk(_subject(w), subst)
    return end.__class__ is Compound and end.tag == "lnil"


def _label(queue: ConstraintQueue, opts: SolverOpts, visits: PMap, entailed: PMap):
    """Close the open rows of a queue that holds only residuals, one
    labeling step, then go on solving ("constrain, then label").

    The open tails are those of the lacks residuals, in enqueue order.
    The first branch closes every tail with nil; branch i closes the tails
    before the i-th and gives the i-th one more free-tag cell (up to the
    length bound when pruning), whose lacks residuals then wake. So every
    choice of row lengths is reached exactly once, and the first branch
    is an answer. Any other residual that is not a row's (a box Match on
    a free subject, a raw variable) no labeling can wake: the branch is
    stuck and fails. Row residuals left on a tail without a lacks
    residual, or on a free argument list, read an open row: the answer
    leaves it open."""

    def goal(state):
        tails = {}  # tail id -> (tail, its position in the row)
        for item in queue.residuals(state):
            c = shallow_walk(item, state.subst)
            if not isinstance(c, Compound) or c.tag not in _ROW_RESIDUALS:
                # Stuck: the branch fails on this residual.
                state.counters.last_constraint = (item, state.subst)
                return None
            if c.tag == "Lacks":
                tail = shallow_walk(c.args[1], state.subst)
                tails.setdefault(tail.id, (tail, c.args[2]))
        if not tails:
            return succeed(state)
        again = delay(lambda: _entail(queue, [], opts, visits, entailed))
        closed = [unify(tail, LNIL) for tail, _ in tails.values()]
        branches = [conj(*closed, again)]
        for i, (tail, n) in enumerate(tails.values()):
            if opts.prune and n >= opts.sexp_bound:
                continue
            cell = fresh_many(3, lambda vs, t=tail: unify(t, lcons(t_ctor(vs[0], vs[1]), vs[2])))
            branches.append(delay(lambda i=i, cell=cell: conj(*closed[:i], cell, again)))
        return disj(*branches)(state)

    return goal


# ---------------------------------------------------------------------------
# Handlers. Each reads its subject by walking it (`_unfolded`), binds with
# `bind`, and runs its equalities and other goals as one `conj`, which
# builds a stream only at a real choice.
# ---------------------------------------------------------------------------


def _unfolded(t, subst):
    """t walked, with one top-level mu unfolded. A free variable is taken
    not to stand for a recursive type."""
    w = shallow_walk(t, subst)
    if isinstance(w, Compound) and w.tag == "TMu":
        return unfold_mu(w, subst)
    return w


# ---------------------------------------------------------------------------
# Ind: indexing into strings, arrays and S-expressions.
# ---------------------------------------------------------------------------


def solve_ind(container, elem, opts: SolverOpts, kont):
    def goal(state):
        w = _unfolded(container, state.subst)
        if isinstance(w, Var):
            # A free container is a string, an array or, when the program
            # has a constructor, an S-expression whose row is left open:
            # its cells are constrained as memberships and labeling add
            # them (`_ind_row`). Each branch binds it and reads it again.
            (part,), st = state.fresh_vars(1)
            shapes = [T_STR, t_array(part)] + ([t_sexp(part)] if opts.sexp_bound else [])
            return disj(*(conj(unify(w, shape), goal) for shape in shapes))(st)
        if w.tag == "TStr":
            return conj(eq_t(elem, T_INT), kont([]))(state)
        if w.tag == "TArray":
            return conj(eq_t(elem, w.args[0]), kont([]))(state)
        if w.tag == "TSexp":
            return _ind_row(w.args[0], elem, kont)(state)
        return None

    return goal


def _ind_row(row, elem, kont):
    """Every argument of every cell of a row equals elem. The cells bound
    so far are read now; an open tail leaves an IndRow residual and a
    cell whose argument list is still open an IndArgs one, so cells and
    arguments added later are constrained too."""

    def goal(state):
        goals, spawned = [], []
        entries = shallow_walk(row, state.subst)
        while isinstance(entries, Compound) and entries.tag == "lcons":
            cell = shallow_walk(entries.args[0], state.subst)
            if isinstance(cell, Compound) and cell.tag == "ctor":
                _ind_items(cell.args[1], elem, state.subst, goals, spawned)
            entries = shallow_walk(entries.args[1], state.subst)
        if isinstance(entries, Var):
            spawned.append(c_ind_row(entries, elem))
        return conj(*goals, kont(spawned))(state)

    return goal


def _ind_args(args, elem, kont):
    """Every item of a cell's argument list equals elem (see `_ind_row`)."""

    def goal(state):
        goals, spawned = [], []
        _ind_items(args, elem, state.subst, goals, spawned)
        return conj(*goals, kont(spawned))(state)

    return goal


def _ind_items(args, elem, subst, goals, spawned):
    args = shallow_walk(args, subst)
    while isinstance(args, Compound) and args.tag == "lcons":
        goals.append(eq_t(args.args[0], elem))
        args = shallow_walk(args.args[1], subst)
    if isinstance(args, Var):
        spawned.append(c_ind_args(args, elem))


# ---------------------------------------------------------------------------
# Call: function application.
# ---------------------------------------------------------------------------


def solve_call(fn, args, result, opts: SolverOpts, kont):
    """fn is an arrow of len(args) parameters, instantiated at args and
    result. A free fn becomes an arrow of fresh parts."""

    def goal(state):
        w = _unfolded(fn, state.subst)
        if isinstance(w, Var):
            vs, state = state.fresh_vars(3 + len(args))
            arrow = t_arrow(vs[0], vs[1], llist(vs[3:]), vs[2])
            state, w = bind(state, w, arrow), arrow
            if state is None:
                return None
        elif not (isinstance(w, Compound) and w.tag == "TArrow"):
            return None
        fxs, fc, ps, r = w.args
        params = _walk_list(ps, state.subst)
        if params is None:  # a list still open gets fresh parameters
            params, state = state.fresh_vars(len(args))
            state = bind(state, ps, llist(params))
        if state is None or len(params) != len(args):
            return None

        def instantiate(st):
            mapping = {}
            for name in _walk_list(fxs, st.subst) or []:
                name = shallow_walk(name, st.subst)
                if isinstance(name, str):
                    mapping[name], st = st.fresh_var()
            cs = _walk_list(fc, st.subst) or []
            # One rewrite, with one memo, of the constraints, the parameters
            # and the result, as the arguments of one compound.
            parts = apply_type_subst(mapping, Compound("", (*cs, *params, r)), st.subst).args
            goals = [eq_t(p, a) for p, a in zip(parts[len(cs):], args)]
            goals.append(eq_t(parts[-1], result))
            return conj(*goals, kont(list(parts[:len(cs)])))(st)

        return conj(_force_empty(fxs, opts), _force_empty(fc, opts), instantiate)(state)

    return goal


def _force_empty(lst, opts: SolverOpts):
    """A free binder/constraint list of an applied function is forced
    empty; a determined one is kept. Without pruning a free list is
    enumerated instead (empty first, then ever longer)."""

    def goal(state):
        w = shallow_walk(lst, state.subst)
        if not isinstance(w, Var):
            return (state, None)
        return (unify(w, LNIL) if opts.prune else _lists(w))(state)

    return goal


def _lists(v):
    """v is nil, then (delayed) a cell of two fresh variables whose tail
    is enumerated the same way."""

    def longer(state):
        (h, t), st = state.fresh_vars(2)
        st = bind(st, v, lcons(h, t))
        return None if st is None else _lists(t)(st)

    return disj(unify(v, LNIL), delay(lambda: longer))


# ---------------------------------------------------------------------------
# Sexp: exactly-one-constructor membership in rows, left open until labeling.
# ---------------------------------------------------------------------------


def solve_sexp(tag, subject, args, opts: SolverOpts, kont):
    """Exactly one cell of the subject's row carries tag, with these
    arguments.

    The row is scanned as far as it is bound: cells of other tags are
    passed, a cell of this tag (or one whose tag is still free) takes the
    arguments, and an open tail (or a free subject) gets a new cell of
    this tag. Past that cell no other may carry the tag (`_lacks`). No
    choice is made here: an open tail is closed later, by labeling
    (`_label`)."""
    want_args = llist(args)

    def found(state, cell_args, rest, n):
        return conj(eq_ts(want_args, cell_args), _lacks(tag, rest, n + 1, opts, kont))(state)

    def new_cell(state, v, shape, n):
        (cell_args, rest), st = state.fresh_vars(2)
        st = bind(st, v, shape(lcons(t_ctor(tag, cell_args), rest)))
        return None if st is None else found(st, cell_args, rest, n)

    def goal(state):
        w = _unfolded(subject, state.subst)
        if isinstance(w, Var):
            return new_cell(state, w, t_sexp, 0)
        if not (isinstance(w, Compound) and w.tag == "TSexp"):
            return None
        xs, n = w.args[0], 0
        while not _too_long(n, opts):
            w = shallow_walk(xs, state.subst)
            if isinstance(w, Var):
                return new_cell(state, w, lambda row: row, n)
            if not (isinstance(w, Compound) and w.tag == "lcons"):
                return None
            # A cell is a `ctor` term: every goal that makes one binds
            # it within the same dispatch.
            cell = shallow_walk(w.args[0], state.subst)
            tv = shallow_walk(cell.args[0], state.subst)
            if isinstance(tv, Var):
                # A cell whose tag is still free is not passed: it takes this one.
                state = bind(state, tv, tag)
                return None if state is None else found(state, cell.args[1], w.args[1], n)
            if tv == tag:
                return found(state, cell.args[1], w.args[1], n)
            xs, n = w.args[1], n + 1
        return None

    return goal


def _too_long(n, opts: SolverOpts) -> bool:
    """Whether a row position is past the length bound; never without
    pruning, where rows grow without limit (lazily)."""
    return opts.prune and n > opts.sexp_bound


def _lacks(tag, row, n, opts: SolverOpts, kont):
    """No cell of the row from position n on carries tag. The cells bound
    so far have their tags disunified from it now; an open tail leaves a
    Lacks residual that sleeps on it and does the same for the cells it
    gets (labeling, a later membership or an equality)."""

    def goal(state):
        st, xs, at = state, row, n
        while True:
            if _too_long(at, opts):
                return None
            w = shallow_walk(xs, st.subst)
            if isinstance(w, Var):
                return kont([c_lacks(tag, w, at)])(st)
            if not (isinstance(w, Compound) and w.tag == "lcons"):
                return kont([])(st) if w == LNIL else None
            cell = shallow_walk(w.args[0], st.subst)
            stream = disunify(tag, cell.args[0])(st)
            if stream is None:
                return None
            st, xs, at = stream[0], w.args[1], at + 1

    return goal


# ---------------------------------------------------------------------------
# Match: pattern shapes as lower bounds on the subject.
# ---------------------------------------------------------------------------


def solve_match(subject, pats, opts: SolverOpts, kont):
    def goal(state):
        st = state
        goals, spawned = [], []

        def fv():
            nonlocal st
            v, st = st.fresh_var()
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
                    goals.extend((_force_empty(fxs, opts), _force_empty(fc, opts)))
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

        subj = _unfolded(subject, state.subst)
        for p in _walk_list(pats, st.subst) or []:
            handle(p, subj)
        return conj(*goals, kont(spawned))(st)

    return goal
