"""Embedded relational-logic engine.

First-order terms over logic variables, triangular substitutions, goals
as state-to-stream functions with fair interleaving, disequality
constraints, and per-variable occurs hooks that may substitute a finite
term when the occurs check would otherwise fail.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Optional


class Var:
    """A logic variable, identified by a monotonically allocated id."""

    __slots__ = ("id",)

    def __init__(self, vid: int):
        self.id = vid

    def __repr__(self):
        return f"_{self.id}"

    def __eq__(self, other):
        return isinstance(other, Var) and other.id == self.id

    def __hash__(self):
        return hash(("var", self.id))


class Compound:
    """A functor application: tag plus a tuple of argument terms."""

    __slots__ = ("tag", "args", "_var_free")

    def __init__(self, tag: str, args: tuple):
        self.tag = tag
        self.args = args
        self._var_free = None  # cached: no Var anywhere in the raw structure

    def __repr__(self):
        if not self.args:
            return self.tag
        return f"{self.tag}({', '.join(map(repr, self.args))})"

    def __eq__(self, other):
        return (
            isinstance(other, Compound)
            and other.tag == self.tag
            and other.args == self.args
        )

    def __hash__(self):
        return hash((self.tag, self.args))


class FreeVar:
    """A reified free variable: display index plus the original engine id.

    Keeping the engine id means a reified term can always be converted
    back to an engine term, as an occurs hook does.
    """

    __slots__ = ("index", "var_id")

    def __init__(self, index: int, var_id: int):
        self.index = index
        self.var_id = var_id

    def __repr__(self):
        return f"?{self.index}"

    def __eq__(self, other):
        return isinstance(other, FreeVar) and other.var_id == self.var_id

    def __hash__(self):
        return hash(("free", self.var_id))


# Atoms are plain Python ints and strings; anything that is not a Var,
# Compound or FreeVar is treated as an atom.
Term = Any


# ---------------------------------------------------------------------------
# Persistent substitution map (integer keys).
# ---------------------------------------------------------------------------

_BITS = 5
_FAN = 1 << _BITS
_MASK = _FAN - 1
_EMPTY_NODE = (None,) * _FAN


class PMap:
    """Persistent integer-keyed map: a path-copying 32-way trie.

    Substitutions are extended once per binding along every search branch;
    a copy-on-write dict would make long runs quadratic.
    """

    __slots__ = ("_root", "_depth")

    def __init__(self, root=None, depth: int = 0):
        self._root = root
        self._depth = depth

    def get(self, key: int, default=None):
        node = self._root
        if node is None or key >= _FAN << (_BITS * self._depth):
            return default
        depth = self._depth
        while depth > 0:
            node = node[(key >> (_BITS * depth)) & _MASK]
            if node is None:
                return default
            depth -= 1
        slot = node[key & _MASK]
        return default if slot is None else slot[0]

    def set(self, key: int, value) -> "PMap":
        root, depth = self._root, self._depth
        if root is None:
            root = _EMPTY_NODE
        while key >= _FAN << (_BITS * depth):
            wrapped = list(_EMPTY_NODE)
            wrapped[0] = root
            root = tuple(wrapped)
            depth += 1
        return PMap(self._assoc(root, depth, key, value), depth)

    @staticmethod
    def _assoc(node, depth, key, value):
        entries = list(node) if node is not None else list(_EMPTY_NODE)
        idx = (key >> (_BITS * depth)) & _MASK
        if depth == 0:
            entries[idx] = (value,)
        else:
            entries[idx] = PMap._assoc(entries[idx], depth - 1, key, value)
        return tuple(entries)


# ---------------------------------------------------------------------------
# Counters and run bookkeeping.
# ---------------------------------------------------------------------------


class Counters:
    """Mutable per-run statistics, shared by every state of one query."""

    __slots__ = (
        "steps",
        "unifications",
        "dispatched",
        "generated",
        "answers_found",
        "answers_requested",
        "last_constraint",
    )

    def __init__(self):
        self.steps = 0
        self.unifications = 0
        self.dispatched = 0
        self.generated = 0
        self.answers_found = 0
        self.answers_requested = 0
        self.last_constraint = None


_tls = threading.local()


def _active_counters() -> Optional[Counters]:
    return getattr(_tls, "counters", None)


# ---------------------------------------------------------------------------
# States.
# ---------------------------------------------------------------------------


class State:
    """An immutable search state.

    Fields: triangular substitution, pending disequalities (each pair
    with its watch, see `_watched`), the occurs hook registry (emptied by
    every successful unification), the next fresh id, and a shared
    counters object (not logical state).
    """

    __slots__ = ("subst", "diseqs", "hooks", "counter", "counters")

    def __init__(self, subst, diseqs, hooks, counter, counters):
        self.subst = subst
        self.diseqs = diseqs
        self.hooks = hooks
        self.counter = counter
        self.counters = counters

    def fresh_var(self):
        v = Var(self.counter)
        st = State(self.subst, self.diseqs, self.hooks, self.counter + 1, self.counters)
        return v, st


def empty_state(counters: Optional[Counters] = None) -> State:
    return State(PMap(), (), {}, 0, counters or Counters())


# ---------------------------------------------------------------------------
# Walking, occurs check, unification.
# ---------------------------------------------------------------------------


def shallow_walk(t: Term, subst: PMap) -> Term:
    """Follow var-to-var bindings until a non-variable or an unbound var."""
    while isinstance(t, Var):
        nxt = subst.get(t.id, _MISSING)
        if nxt is _MISSING:
            return t
        t = nxt
    return t


_MISSING = object()


def var_free(t: Term) -> bool:
    """True when the raw structure of t contains no logic variable, so no
    substitution can make one appear (cached on compounds)."""
    if isinstance(t, Var):
        return False
    if not isinstance(t, Compound):
        return True
    flag = t._var_free
    if flag is None:
        if t.tag == "lcons":
            return _spine_var_free(t)
        flag = all(var_free(a) for a in t.args)
        t._var_free = flag
    return flag


def _spine_var_free(t: Compound) -> bool:
    """var_free of a list (a chain of `lcons` cells, see types.llist),
    caching every cell of its spine; the spine is walked in a loop, so a
    long list takes no stack."""
    cells = []
    while isinstance(t, Compound) and t.tag == "lcons" and t._var_free is None:
        cells.append(t)
        t = t.args[1]
    flag = var_free(t)
    for cell in reversed(cells):
        flag = flag and var_free(cell.args[0])
        cell._var_free = flag
    return flag


def occurs(vid: int, t: Term, subst: PMap) -> bool:
    stack = [t]
    while stack:
        x = stack.pop()
        while isinstance(x, Var):
            nxt = subst.get(x.id, _MISSING)
            if nxt is _MISSING:
                break
            x = nxt
        if isinstance(x, Var):
            if x.id == vid:
                return True
        elif isinstance(x, Compound) and not var_free(x):
            stack.extend(x.args)
    return False


def reify_term(t: Term, subst: PMap, numbering: Optional[dict] = None) -> Term:
    """Deep-walk a term, renaming free variables in first-occurrence order."""
    if numbering is None:
        numbering = {}

    def go(t):
        t = shallow_walk(t, subst)
        if isinstance(t, Var):
            if t.id not in numbering:
                numbering[t.id] = len(numbering)
            return FreeVar(numbering[t.id], t.id)
        if isinstance(t, Compound):
            if t.tag == "lcons":  # a list spine, walked in a loop
                heads = []
                while isinstance(t, Compound) and t.tag == "lcons":
                    heads.append(go(t.args[0]))
                    t = shallow_walk(t.args[1], subst)
                out = go(t)
                for h in reversed(heads):
                    out = Compound("lcons", (h, out))
                return out
            return Compound(t.tag, tuple(go(a) for a in t.args))
        return t

    return go(t)


def _unify_terms(a, b, subst, hooks):
    """Triangular unification. Returns (subst, first) or None, where first
    is the first binding made, (variable, term), or None if there was none.

    hooks is None when occurs hooks are disabled (trial unification and
    hook-suggestion re-checks).
    """
    a = shallow_walk(a, subst)
    b = shallow_walk(b, subst)
    if isinstance(a, Var) and isinstance(b, Var) and a.id == b.id:
        return subst, None
    if isinstance(a, Var):
        return _extend(a, b, subst, hooks)
    if isinstance(b, Var):
        return _extend(b, a, subst, hooks)
    if isinstance(a, Compound) and isinstance(b, Compound):
        if a.tag != b.tag or len(a.args) != len(b.args):
            return None
        first = None
        for x, y in zip(a.args, b.args):
            res = _unify_terms(x, y, subst, hooks)
            if res is None:
                return None
            subst, bound = res
            if first is None:
                first = bound
        return subst, first
    return (subst, None) if a == b else None


def _extend(v: Var, t, subst, hooks):
    if occurs(v.id, t, subst):
        hook = hooks.get(v.id) if hooks is not None else None
        if hook is None:
            return None
        suggested = hook(v.id, reify_term(t, subst))
        # The suggestion is re-checked with hooks disabled.
        if occurs(v.id, suggested, subst):
            return None
        return subst.set(v.id, suggested), (v, suggested)
    return subst.set(v.id, t), (v, t)


def _watched(a, b, first):
    """A pending disequality: the pair plus the ids of its watch, the
    variables of the first binding a trial unification of the pair made.

    Until one of them is bound, every step of the trial before that
    binding still succeeds without binding anything, and the binding
    itself still binds, so the pair cannot have become equal. The second
    watch is the other side when it is a variable (binding it to the
    first makes the two equal), and None otherwise."""
    v, t = first
    return (a, b, v.id, t.id if isinstance(t, Var) else None)


def _diseq_survives(pending, subst):
    """Recheck the pending disequalities whose watch subst binds; None
    signals a violated pair. Returns pending itself when no watch is
    bound."""
    get = subst.get
    keep = None
    for i, entry in enumerate(pending):
        a, b, v, w = entry
        if get(v, _MISSING) is _MISSING and (w is None or get(w, _MISSING) is _MISSING):
            if keep is not None:
                keep.append(entry)
            continue
        if keep is None:
            keep = list(pending[:i])
        res = _unify_terms(a, b, subst, None)
        if res is None:
            continue  # can never become equal again: drop
        _, first = res
        if first is None:
            return None  # equal now: violation
        keep.append(_watched(a, b, first))
    return pending if keep is None else tuple(keep)


# ---------------------------------------------------------------------------
# Streams: None (empty) | (state, stream) | zero-arg callable (immature).
# ---------------------------------------------------------------------------


def _force(s):
    counters = _active_counters()
    if counters is not None:
        counters.steps += 1
    return s()


def mplus(s1, s2):
    if s1 is None:
        return s2
    if callable(s1):
        return lambda: mplus(s2, _force(s1))  # swap: fair interleaving
    return (s1[0], mplus(s1[1], s2))


def mbind(s, g):
    if s is None:
        return None
    if callable(s):
        return lambda: mbind(_force(s), g)
    return mplus(g(s[0]), mbind(s[1], g))


# ---------------------------------------------------------------------------
# Goals.
# ---------------------------------------------------------------------------

Goal = Callable[[State], Any]


def succeed(state: State):
    return (state, None)


def fail(state: State):
    return None


def conj(*goals: Goal) -> Goal:
    if not goals:
        return succeed
    if len(goals) == 1:
        return goals[0]

    def goal(state):
        s = goals[0](state)
        for g in goals[1:]:
            s = mbind(s, g)
        return s

    return goal


def disj(*goals: Goal) -> Goal:
    if not goals:
        return fail

    def goal(state):
        s = goals[-1](state)
        for g in reversed(goals[:-1]):
            s = mplus(g(state), s)
        return s

    return goal


def delay(thunk: Callable[[], Goal]) -> Goal:
    """Inverse-eta-delay: wrap a recursive goal so streams stay productive."""
    return lambda state: (lambda: thunk()(state))


def fresh_with(k: Callable[[Var], Goal]) -> Goal:
    """Allocate one fresh variable and continue (continuation-passing)."""

    def goal(state):
        v, st = state.fresh_var()
        return k(v)(st)

    return goal


def fresh_many(n: int, k: Callable[[list], Goal]) -> Goal:
    """Allocate n fresh variables, ids in order, and continue."""

    def goal(state):
        vs = [Var(state.counter + i) for i in range(n)]
        st = State(state.subst, state.diseqs, state.hooks, state.counter + n, state.counters)
        return k(vs)(st)

    return goal


def unify(a: Term, b: Term) -> Goal:
    def goal(state):
        # A unification is an engine work unit like a stream step, so
        # unification-heavy search burns fuel proportionally.
        state.counters.unifications += 1
        state.counters.steps += 1
        res = _unify_terms(a, b, state.subst, state.hooks)
        if res is None:
            return None
        subst, first = res
        diseqs = state.diseqs
        if first is not None and diseqs:
            diseqs = _diseq_survives(diseqs, subst)
            if diseqs is None:
                return None
        # Hook registry is emptied by every successful unification.
        return succeed(State(subst, diseqs, {}, state.counter, state.counters))

    return goal


def disunify(a: Term, b: Term) -> Goal:
    def goal(state):
        res = _unify_terms(a, b, state.subst, None)
        if res is None:
            return succeed(state)  # can never be equal: nothing to record
        _, first = res
        if first is None:
            return None  # already equal
        diseqs = state.diseqs + (_watched(a, b, first),)
        return succeed(State(state.subst, diseqs, state.hooks, state.counter, state.counters))

    return goal


def is_var(t: Term) -> Goal:
    def goal(state):
        w = shallow_walk(t, state.subst)
        if isinstance(w, Var):
            return succeed(state)
        return None

    return goal


def is_not_var(t: Term) -> Goal:
    def goal(state):
        w = shallow_walk(t, state.subst)
        if isinstance(w, Var):
            return None
        return succeed(state)

    return goal


def bind_occurs_hook(t: Term, hook) -> Goal:
    """Register an occurs hook; t must walk to an unbound variable.

    When binding that variable fails the occurs check, hook(variable id,
    reified target) is called and may return a term to bind instead.
    """

    def goal(state):
        w = shallow_walk(t, state.subst)
        if not isinstance(w, Var):
            return None
        hooks = dict(state.hooks)
        hooks[w.id] = hook
        return succeed(State(state.subst, state.diseqs, hooks, state.counter, state.counters))

    return goal


# ---------------------------------------------------------------------------
# Running queries.
# ---------------------------------------------------------------------------


class RunResult:
    __slots__ = ("answers", "ended", "fuel_exhausted", "counters")

    def __init__(self, answers, ended, fuel_exhausted, counters):
        self.answers = answers
        self.ended = ended
        self.fuel_exhausted = fuel_exhausted
        self.counters = counters


def run(
    query: Callable[[Var], Goal],
    max_answers: Optional[int] = None,
    fuel: Optional[int] = None,
    counters: Optional[Counters] = None,
) -> RunResult:
    """Pull up to max_answers reified answers for one query variable.

    Fuel is measured in engine work units (stream forcings plus
    unifications); exhausting it is reported on the result, never raised.
    The query variable is reified per answer with free variables numbered
    in first-occurrence order.
    """
    counters = counters or Counters()
    counters.answers_requested = max_answers if max_answers is not None else -1

    holder = {}

    def k(v):
        holder["q"] = v
        return query(v)

    prev = getattr(_tls, "counters", None)
    _tls.counters = counters
    try:
        stream = fresh_with(k)(empty_state(counters))
        answers = []
        ended = False
        fuel_exhausted = False
        while True:
            if max_answers is not None and len(answers) >= max_answers:
                break
            if stream is None:
                ended = True
                break
            if callable(stream):
                if fuel is not None and counters.steps >= fuel:
                    fuel_exhausted = True
                    break
                stream = _force(stream)
            else:
                st, stream = stream
                answers.append(reify_term(holder["q"], st.subst))
                counters.answers_found += 1
    finally:
        _tls.counters = prev
    return RunResult(answers, ended, fuel_exhausted, counters)
