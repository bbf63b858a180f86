"""Embedded relational-logic engine.

First-order terms over logic variables, triangular substitutions, goals
as state-to-stream functions with fair interleaving, disequality
constraints, and per-variable occurs hooks that may substitute a finite
term when the occurs check would otherwise fail.

Each run counts its work in its own `Counters`, which every state
carries and hands to the stream functions and the unifier, so a run
started inside another run's goal counts apart from it.
"""

from __future__ import annotations

from operator import is_
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
        return self.id  # equal to hash(self.id): ids are small non-negative ints


class Compound:
    """A functor application: tag plus a tuple of argument terms. Terms
    are immutable, so what is computed from one is cached on it."""

    __slots__ = ("tag", "args", "_flags", "_hash")

    def __init__(self, tag: str, args: tuple):
        self.tag = tag
        self.args = args
        self._flags = None  # cached: VAR_FREE and CLOSED (see `flags`)
        self._hash = None  # cached hash

    def __repr__(self):
        if not self.args:
            return self.tag
        return f"{self.tag}({', '.join(map(repr, self.args))})"

    def __eq__(self, other):
        # Pairs of compound arguments wait on a stack of their own, so a
        # deep term (a long list, a nested array) takes no Python stack; a
        # pair whose cached hashes differ is unequal without a walk.
        if self is other:
            return True
        if other.__class__ is not Compound or self.tag != other.tag:
            return False
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if b.__class__ is not Compound or a.tag != b.tag or len(a.args) != len(b.args):
                return False
            if a._hash is not None and b._hash is not None and a._hash != b._hash:
                return False
            for x, y in zip(a.args, b.args):
                if x is not y:
                    if x.__class__ is Compound:
                        todo.append((x, y))
                    elif y.__class__ is Compound or x != y:
                        return False
        return True

    def __hash__(self):
        h = self._hash
        if h is None:
            for a in self.args:
                if a.__class__ is Compound and a._hash is None:
                    return _deep_hash(self)
            h = self._hash = hash((self.tag, self.args))
        return h


def _deep_hash(t: Compound) -> int:
    """The hash of t, cached on every compound below it from the leaves
    up, so that the tuple hash of a compound's arguments meets only
    hashed ones: a deep term (a long list, a nested array) takes no
    Python stack."""
    stack = [t]  # each compound waits below its unhashed arguments
    while stack:
        x = stack[-1]
        if x._hash is None:
            for a in x.args:
                if a.__class__ is Compound and a._hash is None:
                    stack.append(a)
            if stack[-1] is not x:
                continue
            x._hash = hash((x.tag, x.args))
        stack.pop()
    return t._hash


class FreeVar:
    """A reified free variable: display index plus the original engine id,
    by which two are compared."""

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
# Persistent substitution map.
# ---------------------------------------------------------------------------

_ABSENT = object()  # a diff's old value for a key the next version added


class PMap:
    """Persistent map over hashable keys, rerooted (Baker 1991, "Shallow
    binding makes functional arrays fast").

    Every version made from one `PMap()` shares one dict. The live
    version owns it; every other version is a diff (key, its value there
    or `_ABSENT`, the next version toward the live one). Reading or
    extending a version that is not live first reverses the diffs on its
    path (`_assoc`), so the version the search is using reads and writes
    at dict speed. Reading an old version mutates the shared dict, so
    versions of one map must not be used from two threads at once.

    Substitutions are extended once per binding along every search branch;
    a copy-on-write dict would make long runs quadratic. Each version also
    keeps the chain of keys set to make it, newest first, so a later
    version can list what it gained (`keys_since`).
    """

    __slots__ = ("_data", "_log")

    def __init__(self):
        self._data = {}  # the dict when live, else a diff
        self._log = None  # (key, older log) cells, newest first

    def get(self, key, default=None):
        data = self._data
        if data.__class__ is not dict:
            data = self._assoc()
        return data.get(key, default)

    def set(self, key, value) -> "PMap":
        data = self._data
        if data.__class__ is not dict:
            data = self._assoc()
        new = PMap.__new__(PMap)
        new._data = data
        new._log = (key, self._log)
        self._data = (key, data.get(key, _ABSENT), new)
        data[key] = value
        return new

    def keys_since(self, older: Optional["PMap"]) -> list:
        """The keys set to make this version from `older`, newest first.
        When `older` is not a version this one was made from (or is None),
        every key ever set to make this one."""
        stop = older._log if older is not None else None
        out = []
        cell = self._log
        while cell is not stop and cell is not None:
            out.append(cell[0])
            cell = cell[1]
        return out

    def _assoc(self) -> dict:
        """Reroot: make this version live and return the shared dict.
        The diffs on the path to the live version are undone from its end,
        each turned around to point back along the path."""
        path = []
        v = self
        while v._data.__class__ is not dict:
            path.append(v)
            v = v._data[2]
        data = v._data
        for v in reversed(path):
            key, old, nxt = v._data
            nxt._data = (key, data.get(key, _ABSENT), v)
            if old is _ABSENT:
                del data[key]
            else:
                data[key] = old
            v._data = data
        return data


# ---------------------------------------------------------------------------
# Counters and run bookkeeping.
# ---------------------------------------------------------------------------


class Counters:
    """Mutable per-run statistics, shared by every state of one query and
    passed explicitly to whatever counts work (each state's `counters`)."""

    __slots__ = (
        "steps",
        "unifications",
        "dispatched",
        "generated",
        "answers_found",
        "answers_requested",
        "last_constraint",
        "cycle",
    )

    def __init__(self):
        self.steps = 0
        self.unifications = 0
        self.dispatched = 0
        self.generated = 0
        self.answers_found = 0
        self.answers_requested = 0
        self.last_constraint = None
        # The first branch the solver's loop check ended: (item, subst,
        # its dispatch number, the repeated ancestor's dispatch number).
        self.cycle = None


# ---------------------------------------------------------------------------
# States.
# ---------------------------------------------------------------------------


_NO_WATCH: dict = {}  # shared, never mutated: indexes are copied on write


class State:
    """An immutable search state.

    Fields: triangular substitution, pending disequalities in the order
    they were recorded (each pair with its watch, see `_watched`), the
    occurs hook registry (emptied by every successful unification), the
    next fresh id, a shared counters object (not logical state), and the
    watch index of the pending disequalities: variable id -> the pairs
    that watch it (a state built with pending pairs must pass theirs).
    """

    __slots__ = ("subst", "diseqs", "hooks", "counter", "counters", "watch")

    def __init__(self, subst, diseqs, hooks, counter, counters, watch=_NO_WATCH):
        self.subst = subst
        self.diseqs = diseqs
        self.hooks = hooks
        self.counter = counter
        self.counters = counters
        self.watch = watch

    def fresh_var(self):
        (v,), st = self.fresh_vars(1)
        return v, st

    def fresh_vars(self, n: int):
        """n fresh variables, ids in order, and the state past them."""
        vs = [Var(self.counter + i) for i in range(n)]
        st = State(self.subst, self.diseqs, self.hooks, self.counter + n, self.counters, self.watch)
        return vs, st


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


# A compound's flags: VAR_FREE when its raw structure holds no logic
# variable, so no substitution can change it; CLOSED when it also holds
# no `TName` compound (a type name, see `types.apply_type_subst`), so no
# rewrite of names or variables can change it.
VAR_FREE, CLOSED = 1, 3


def flags(t: Compound) -> int:
    """The flags of a compound: 0, VAR_FREE or CLOSED, cached on it. The
    walk keeps its own stack, so a deep term takes no Python stack."""
    if t._flags is None:
        stack = [t]  # each compound waits for the flags of the one above it
        while stack:
            x = stack[-1]
            f = VAR_FREE if x.tag == "TName" else CLOSED
            for a in x.args:
                if isinstance(a, Compound):
                    if a._flags is None:
                        f = None  # known once a's are
                        stack.append(a)
                        break
                    f &= a._flags
                    if not f:
                        break
                elif isinstance(a, Var):
                    f = 0
                    break
            if f is not None:
                x._flags = f
                stack.pop()
    return t._flags


def var_free(t: Term) -> bool:
    """True when the raw structure of t contains no logic variable, so no
    substitution can make one appear (see `flags`)."""
    if isinstance(t, Var):
        return False
    return not isinstance(t, Compound) or (t._flags if t._flags is not None else flags(t)) != 0


def occurs(vid: int, t: Term, subst: PMap) -> bool:
    """Whether t, walked under subst, contains the variable vid; compounds
    known to be variable-free are not entered, and no compound is entered
    twice, however many paths lead to it (through the substitution, or as
    a `mu` type that unfolding referenced more than once)."""
    get = subst.get
    stack = [t]
    entered = set()
    while stack:
        x = stack.pop()
        while isinstance(x, Var):
            nxt = get(x.id, _MISSING)
            if nxt is _MISSING:
                if x.id == vid:
                    return True
                break
            x = nxt
        else:
            if isinstance(x, Compound) and id(x) not in entered:
                f = x._flags
                if f is None:
                    f = flags(x)
                if not f:
                    entered.add(id(x))
                    stack.extend(x.args)
    return False


def rebuilt(t: Compound, parts) -> Compound:
    """t itself when parts are its arguments, object for object; else a
    new compound of t's tag over parts."""
    if all(map(is_, parts, t.args)):
        return t
    return Compound(t.tag, tuple(parts))


_BUILD = object()  # rebuild_term's marker: the compound below it has its parts built


def rebuild_term(t: Term, subst: PMap, leaf: Callable[[Var], Term], node=None):
    """t deep-walked under subst, every unbound variable x replaced by
    leaf(x) in pre-order: (the term, the number of compounds built).

    node, when given, is asked first of each compound that could change:
    it returns the compound's replacement, or None to rewrite its parts.
    A subterm that cannot change comes back as it is: one var-free, or
    with node, one closed, since node may rename what it holds (see
    `flags`). So does a compound whose parts all do (see `rebuilt`); a
    compound reached again (see `occurs`) is rewritten once. The walk
    keeps its own stack, so a deep term takes no Python stack."""
    kept = VAR_FREE if node is None else CLOSED  # flags from this up (0 < VAR_FREE < CLOSED) cannot change
    done = {}  # id of a walked compound -> its rebuilt form
    built = 0
    out = []  # rebuilt subterms, in order
    todo = [t]
    while todo:
        x = todo.pop()
        if x is _BUILD:
            x = todo.pop()
            n = len(x.args)
            new = done[id(x)] = rebuilt(x, out[len(out) - n:])
            del out[len(out) - n:]
            out.append(new)
            built += new is not x
            continue
        if x.__class__ is Var:
            x = shallow_walk(x, subst)
            if x.__class__ is Var:
                out.append(leaf(x))
                continue
        if x.__class__ is not Compound or (x._flags if x._flags is not None else flags(x)) >= kept:
            out.append(x)
            continue
        new = done.get(id(x))
        if new is None and node is not None:
            new = node(x)
            if new is not None:
                done[id(x)] = new
        if new is not None:
            out.append(new)
            continue
        todo += (x, _BUILD)
        todo.extend(reversed(x.args))
    return out[0], built


def reify_term(t: Term, subst: PMap) -> Term:
    """Deep-walk a term, renaming free variables in first-occurrence order
    (see `rebuild_term`)."""
    numbering = {}

    def leaf(x):
        n = numbering.setdefault(x.id, len(numbering))
        return FreeVar(n, x.id)

    return rebuild_term(t, subst, leaf)[0]


def _unify_terms(a, b, subst, hooks, counters=None):
    """Triangular unification: the extended substitution, or None. The
    result reports every binding made: `result.keys_since(subst)` lists
    the bound variable ids, newest first, and the result is subst itself
    when nothing was bound.

    hooks is None when occurs hooks are disabled (trial unification and
    hook-suggestion re-checks). counters, when given, pay for the
    compounds the hooks build (see `_extend`).
    """
    a = shallow_walk(a, subst)
    b = shallow_walk(b, subst)
    if a is b:  # a term shared through the substitution binds nothing
        return subst
    if isinstance(a, Var):
        if isinstance(b, Var):
            if a.id == b.id:
                return subst
            # The younger variable is bound to the older one, so a variable
            # unified with fresh ones again and again stays one link away.
            return subst.set(a.id, b) if a.id > b.id else subst.set(b.id, a)
        return _extend(a, b, subst, hooks, counters)
    if isinstance(b, Var):
        return _extend(b, a, subst, hooks, counters)
    if isinstance(a, Compound) and isinstance(b, Compound):
        if a.tag != b.tag or len(a.args) != len(b.args):
            return None
        for x, y in zip(a.args, b.args):
            subst = _unify_terms(x, y, subst, hooks, counters)
            if subst is None:
                return None
        return subst
    return subst if a == b else None


def _extend(v: Var, t, subst, hooks, counters):
    """Bind v to t, a walked term. When v occurs in t, v's occurs hook,
    hook(v's id, t, subst), may suggest a term to bind instead; it
    returns the suggestion and the number of compounds it built."""
    # An atom, a variable-free compound or another unbound variable cannot
    # contain v, so only other compounds are searched.
    if isinstance(t, Compound) and not var_free(t) and occurs(v.id, t, subst):
        hook = hooks.get(v.id) if hooks is not None else None
        if hook is None:
            return None
        suggested, built = hook(v.id, t, subst)
        # A unit of fuel per compound the hook builds: fuel then bounds a
        # term that grows at every binding (a row whose cells hold its own
        # open tail grows by about 1.6 times per closing).
        if counters is not None:
            counters.steps += built
        # The suggestion is re-checked with hooks disabled.
        if occurs(v.id, suggested, subst):
            return None
        return subst.set(v.id, suggested)
    return subst.set(v.id, t)


def _watched(a, b, trial, subst):
    """A pending disequality: the pair plus the ids of its watch, the
    variables of the first binding that `trial`, a trial unification of
    the pair under subst, made.

    Until one of them is bound, every step of the trial before that
    binding still succeeds without binding anything, and the binding
    itself still binds, so the pair cannot have become equal. The second
    watch is the other side when it is a variable (binding it to the
    first makes the two equal), and None otherwise."""
    v = trial.keys_since(subst)[-1]
    t = trial.get(v)
    return (a, b, v, t.id if isinstance(t, Var) else None)


def _watching(watch: dict, entries) -> dict:
    """watch, copied, with entries added under both of their watch ids."""
    watch = dict(watch)
    for entry in entries:
        for vid in entry[2:]:
            if vid is not None:
                watch[vid] = watch.get(vid, ()) + (entry,)
    return watch


def _diseq_survives(pending, watch, subst, before):
    """Recheck the pending disequalities that watch a variable bound since
    `before`: (pairs, watch index), or None for a violated pair.

    The watch index is the wake-up list: each bound id looks up only the
    pairs that watch it, so a binding that no pair watches costs one dict
    lookup and no trial unification. Each woken pair leaves the index (its
    bound id's bucket is dropped whole: nothing watches a bound variable)
    and is rechecked: dropped, re-watched in place, or a violation. Only
    the re-watched pairs are filed again, so the index changes by the
    woken pairs alone. Returns the arguments themselves when no pair
    wakes."""
    woken = {}  # id(entry) -> entry
    for vid in subst.keys_since(before):
        pairs = watch.get(vid)
        if pairs is not None:
            if not woken:
                watch = dict(watch)
            del watch[vid]
            for entry in pairs:
                woken[id(entry)] = entry
    if not woken:
        return pending, watch
    replaced = {}  # id(entry) -> its re-watched entry, or None when dropped
    for key, entry in woken.items():
        for vid in entry[2:]:
            bucket = watch.get(vid)
            if bucket is not None:
                bucket = tuple(e for e in bucket if e is not entry)
                if bucket:
                    watch[vid] = bucket
                else:
                    del watch[vid]
        a, b = entry[0], entry[1]
        trial = _unify_terms(a, b, subst, None)
        if trial is None:
            replaced[key] = None  # can never become equal again: drop
            continue
        if trial is subst:
            return None  # equal now: violation
        replaced[key] = again = _watched(a, b, trial, subst)
        for vid in again[2:]:
            if vid is not None:
                watch[vid] = watch.get(vid, ()) + (again,)
    pending = tuple(
        entry for entry in (replaced.get(id(e), e) for e in pending) if entry is not None
    )
    return pending, watch


# ---------------------------------------------------------------------------
# Streams: None (empty) | (state, stream) | zero-arg callable (immature).
# ---------------------------------------------------------------------------


def _force(s, counters: Counters):
    counters.steps += 1
    return s()


def mplus(s1, s2, counters: Counters):
    if s1 is None:
        return s2
    if callable(s1):
        return lambda: mplus(s2, _force(s1, counters), counters)  # swap: fair interleaving
    return (s1[0], mplus(s1[1], s2, counters))


def mbind(s, g, counters: Counters):
    if s is None:
        return None
    if callable(s):
        return lambda: mbind(_force(s, counters), g, counters)
    return mplus(g(s[0]), mbind(s[1], g, counters), counters)


# ---------------------------------------------------------------------------
# Goals.
# ---------------------------------------------------------------------------

Goal = Callable[[State], Any]


def succeed(state: State):
    return (state, None)


def fail(state: State):
    return None


def conj(*goals: Goal) -> Goal:
    """The goals in order: run directly while each gives one mature
    answer, and from the first that gives another stream on, each bound
    to that stream in order."""
    if not goals:
        return succeed
    if len(goals) == 1:
        return goals[0]

    def goal(state):
        for i, g in enumerate(goals):
            s = g(state)
            if s is None or callable(s) or s[1] is not None:
                for later in goals[i + 1:]:
                    s = mbind(s, later, state.counters)
                return s
            state = s[0]
        return s

    return goal


def disj(*goals: Goal) -> Goal:
    if not goals:
        return fail

    def goal(state):
        s = goals[-1](state)
        for g in reversed(goals[:-1]):
            s = mplus(g(state), s, state.counters)
        return s

    return goal


def delay(thunk: Callable[[], Goal]) -> Goal:
    """Inverse-eta-delay: wrap a recursive goal so streams stay productive."""
    return lambda state: (lambda: thunk()(state))


def fresh_many(n: int, k: Callable[[list], Goal]) -> Goal:
    """Allocate n fresh variables, ids in order, and continue."""

    def goal(state):
        vs, st = state.fresh_vars(n)
        return k(vs)(st)

    return goal


def bind(state: State, a: Term, b: Term, hooks: Optional[dict] = None) -> Optional[State]:
    """Unify a and b in state: the new state, with an empty hook registry,
    or None. The occurs hooks are hooks when given, else the state's.
    A unification is an engine work unit like a stream step, so
    unification-heavy search burns fuel proportionally."""
    counters = state.counters
    counters.unifications += 1
    counters.steps += 1
    subst = _unify_terms(a, b, state.subst, state.hooks if hooks is None else hooks, counters)
    if subst is None:
        return None
    diseqs, watch = state.diseqs, state.watch
    if watch and subst is not state.subst:
        woken = _diseq_survives(diseqs, watch, subst, state.subst)
        if woken is None:
            return None
        diseqs, watch = woken
    return State(subst, diseqs, {}, state.counter, counters, watch)


def unify(a: Term, b: Term) -> Goal:
    def goal(state):
        st = bind(state, a, b)
        return None if st is None else (st, None)

    return goal


def disunify(a: Term, b: Term) -> Goal:
    def goal(state):
        trial = _unify_terms(a, b, state.subst, None)
        if trial is None:
            return succeed(state)  # can never be equal: nothing to record
        if trial is state.subst:
            return None  # already equal
        entry = _watched(a, b, trial, state.subst)
        watch = _watching(state.watch, (entry,))
        st = State(state.subst, state.diseqs + (entry,), state.hooks, state.counter, state.counters, watch)
        return succeed(st)

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

    Fuel is measured in engine work units (stream forcings, unifications,
    and a unit per compound an occurs hook builds);
    exhausting it is reported on the result, never raised.
    The query variable is reified per answer with free variables numbered
    in first-occurrence order.
    """
    counters = counters or Counters()
    counters.answers_requested = max_answers if max_answers is not None else -1

    (q,), st = empty_state(counters).fresh_vars(1)
    stream = query(q)(st)
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
            stream = _force(stream, counters)
        else:
            st, stream = stream
            answers.append(reify_term(q, st.subst))
            counters.answers_found += 1
    return RunResult(answers, ended, fuel_exhausted, counters)
