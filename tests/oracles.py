"""Independent brute-force oracles used by the test-suite.

Ground entailment is decided by direct rule application with bounded
recursive-type unfolding, and the candidate-list enumerator counts bounded
constructor lists directly; neither touches the relational engine.
`pick_next` is the list-based reference for the solver's pick order: it
reads weights through the solver's own `constraint_weight` and nothing else.
`ListQueue` is the reference for the solver's queue and its equality
bypass: a plain list of every pending item, equalities too, picked by
`pick_next`.
`recheck_unify`/`recheck_disunify` are the reference disequality store,
built on the engine's own `_unify_terms`: it rechecks every pending pair
after every unification, without watches. `resolve_scopes` is the
reference scope resolution: a separate walk over a parsed program, one
case per node kind, copying its environment at every scope.
`reference_tokenize` is the reference lexer: one character at a time,
building `Token` objects.
`eager_solve_sexp` is the reference for constructor-row membership: it
chooses every row's length where the row is scanned, forking at each
open tail, instead of leaving the tail to the solver's labeling step.
`reference_eq_t` is the reference type equality: one relational goal per
tag (types, lists, rows, constructor cells, constraints, patterns), each
list cell a `disj` of nil and cons over fresh variables, where the
checker walks both types once and forks only at a real choice.
`reference_types_equal` is the earlier comparison of reified or parsed
types: the checker's `eq_t` run over both types after `canonicalize`,
within a fuel budget, where the checker's `types_equal` runs no engine.
`bind_occurs_hook` registers an occurs hook as a goal, for tests that
build goal pipelines by hand.
`reference_apply_type_subst`, `reference_rebuild_term`,
`reference_reify_term` and `reference_type_occurs_hook` are the copying
rewriters: each builds every compound in reach anew, and the hook
reifies its term and then turns it back, where the checker's rewriters
return what cannot change as the same object. `reference_generalize` is
the copying generalizer: it collects a function's variables in one walk
and renames them in another, copying every compound, where the checker
names and renames in one rewrite that shares what it does not change;
`reference_presolve` is the copying stand-in for the checker's solving
of a function's own equalities before it generalizes, and
`reference_presolving_generalize` runs the two in turn.
`fresh_with` and `map_args` are goal and term helpers only tests use.
`reference_solve_gen` is the checker's solving without the program
body's presolve: it hands every generated constraint to the solver and
starts the search from an empty substitution, past the generator's
variables, which it allocates.
`reference_solve_sexp`, `reference_solve_call`, `reference_solve_ind`,
`reference_ind_row`, `reference_ind_args` and `reference_solve_match` are
the reference constraint handlers, as goal pipelines: each unifies a
fresh variable with its subject (`unmu`), names the parts of a shape by
unifying fresh variables with them, and passes every step through
`conj`, one `eq_t` goal per equality, where the checker's handlers walk
the subject, bind once and build a stream only at a real choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

from shapecheck import syntax as S
from shapecheck.engine import (
    Compound,
    Counters,
    FreeVar,
    Goal,
    PMap,
    State,
    Term,
    Var,
    _unify_terms,
    conj,
    delay,
    disj,
    disunify,
    fail,
    fresh_many,
    run,
    shallow_walk,
    succeed,
    unify,
)
from shapecheck.checker import CheckOptions
from shapecheck.gen import GenResult
from shapecheck.solver import (
    ConstraintQueue,
    SolverOpts,
    _enqueue,
    _entail,
    _lacks,
    _too_long,
    constraint_weight,
)
from shapecheck.syntax import ParseError
from shapecheck.types import (
    LNIL,
    T_INT,
    T_STR,
    _binder_name,
    _items,
    _list_from_term,
    _var_id,
    _walk_list,
    c_ind_args,
    c_ind_row,
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
    t_mu,
    t_name,
    t_sexp,
    type_occurs_hook,
    unfold_mu,
)

# ---------------------------------------------------------------------------
# Goal and term helpers that only tests use.
# ---------------------------------------------------------------------------


def fresh_with(k) -> Goal:
    """One fresh variable, then the goal k(it)."""
    return fresh_many(1, lambda vs: k(vs[0]))


def map_args(t: Compound, f) -> Compound:
    """t with f applied to each argument. A list spine is walked in a
    loop, so a long list (a large function's constraints) takes no stack."""
    if t.tag != "lcons":
        return Compound(t.tag, tuple(f(a) for a in t.args))
    items, tail = _list_from_term(t)
    return llist([f(x) for x in items], f(tail))


def reference_solve_gen(genr: GenResult, options: CheckOptions):
    """A stand-in for `checker.solve_gen`: (RunResult, Counters) of a
    search over every generated constraint, from an empty substitution."""
    opts = SolverOpts(genr.table, prune=options.prune, max_ctors=options.max_constructors)
    counters = Counters()
    counters.generated = len(genr.constraints)
    roots = llist([t for _, t in genr.roots])

    def query(q):
        # q is Var(0); the generator's variables are Var(1) ... Var(n),
        # so n more are taken before the solver allocates its own.
        entail = _entail(*_enqueue(ConstraintQueue(), genr.constraints), opts, PMap(), PMap())
        return fresh_many(genr.var_count, lambda _: conj(unify(q, roots), entail))

    result = run(query, max_answers=options.max_answers, fuel=options.fuel, counters=counters)
    return result, counters


# Ground type syntax for the oracle: plain tuples.
#   ("int",) ("str",) ("arr", t) ("sexp", ((tag, (t, ...)), ...))
#   ("arrow", (names...), (constraints...), (params...), ret)
#   ("mu", name, body) ("name", sym)

INT = ("int",)
STR = ("str",)


def arr(t):
    return ("arr", t)


def sexp(*ctors):
    return ("sexp", tuple(ctors))


def arrow(names, constraints, params, ret):
    return ("arrow", tuple(names), tuple(constraints), tuple(params), ret)


def mu(name, body):
    return ("mu", name, body)


def name(sym):
    return ("name", sym)


# Constraints: ("ind", c, e) | ("call", fn, args, res) | ("sexpc", tag, subj, args)


def subst(mapping, t):
    kind = t[0]
    if kind in ("int", "str"):
        return t
    if kind == "name":
        return mapping.get(t[1], t)
    if kind == "arr":
        return ("arr", subst(mapping, t[1]))
    if kind == "sexp":
        return ("sexp", tuple((tag, tuple(subst(mapping, a) for a in args)) for tag, args in t[1]))
    if kind == "arrow":
        inner = {k: v for k, v in mapping.items() if k not in t[1]}
        return (
            "arrow",
            t[1],
            tuple(subst_c(inner, c) for c in t[2]),
            tuple(subst(inner, p) for p in t[3]),
            subst(inner, t[4]),
        )
    if kind == "mu":
        inner = {k: v for k, v in mapping.items() if k != t[1]}
        return ("mu", t[1], subst(inner, t[2]))
    raise ValueError(t)


def subst_c(mapping, c):
    if c[0] == "ind":
        return ("ind", subst(mapping, c[1]), subst(mapping, c[2]))
    if c[0] == "call":
        return ("call", subst(mapping, c[1]), tuple(subst(mapping, a) for a in c[2]), subst(mapping, c[3]))
    if c[0] == "sexpc":
        return ("sexpc", c[1], subst(mapping, c[2]), tuple(subst(mapping, a) for a in c[3]))
    raise ValueError(c)


def unfold(t):
    assert t[0] == "mu"
    return subst({t[1]: t}, t[2])


def teq(a, b, depth=3) -> bool:
    """Syntactic equality modulo bounded recursive-type unfolding."""
    if a == b:
        return True
    if a[0] == "mu" and depth > 0 and teq(unfold(a), b, depth - 1):
        return True
    if b[0] == "mu" and depth > 0 and teq(a, unfold(b), depth - 1):
        return True
    if a[0] == "mu" or b[0] == "mu" or a[0] != b[0]:
        return False
    if a[0] == "arr":
        return teq(a[1], b[1], depth)
    if a[0] == "sexp":
        if len(a[1]) != len(b[1]):
            return False
        return all(
            ta == tb and len(xa) == len(xb) and all(teq(x, y, depth) for x, y in zip(xa, xb))
            for (ta, xa), (tb, xb) in zip(a[1], b[1])
        )
    if a[0] == "arrow":
        if a[1] != b[1] or len(a[3]) != len(b[3]) or a[2] != b[2]:
            return False
        return all(teq(x, y, depth) for x, y in zip(a[3], b[3])) and teq(a[4], b[4], depth)
    return False


def entails(constraints, pool, depth=3, fuel=10_000) -> bool:
    """Brute-force derivability of a ground constraint list.

    pool is the set of ground types tried for instantiating quantified
    arrow variables in call constraints.
    """
    state = {"fuel": fuel}

    def one(c) -> bool:
        if state["fuel"] <= 0:
            return False
        state["fuel"] -= 1
        kind = c[0]
        if kind == "ind":
            subject = c[1]
            for _ in range(depth + 1):
                if subject[0] != "mu":
                    break
                subject = unfold(subject)
            if subject[0] == "str":
                return teq(c[2], INT, depth)
            if subject[0] == "arr":
                return teq(c[2], subject[1], depth)
            if subject[0] == "sexp":
                return all(teq(a, c[2], depth) for _, args in subject[1] for a in args)
            return False
        if kind == "call":
            fn = c[1]
            for _ in range(depth + 1):
                if fn[0] != "mu":
                    break
                fn = unfold(fn)
            if fn[0] != "arrow":
                return False
            names, bound_cs, params, ret = fn[1], fn[2], fn[3], fn[4]
            if len(params) != len(c[2]):
                return False
            for values in product(pool, repeat=len(names)):
                mapping = dict(zip(names, values))
                if not all(teq(subst(mapping, p), a, depth) for p, a in zip(params, c[2])):
                    continue
                if not teq(subst(mapping, ret), c[3], depth):
                    continue
                if all(one(subst_c(mapping, bc)) for bc in bound_cs):
                    return True
            return False
        if kind == "sexpc":
            subject = c[2]
            for _ in range(depth + 1):
                if subject[0] != "mu":
                    break
                subject = unfold(subject)
            if subject[0] != "sexp":
                return False
            return any(
                tag == c[1]
                and len(args) == len(c[3])
                and all(teq(x, y, depth) for x, y in zip(args, c[3]))
                for tag, args in subject[1]
            )
        raise ValueError(c)

    return all(one(c) for c in constraints)


@dataclass(frozen=True)
class FreeCell:
    """A constructor slot whose tag is undetermined."""


def count_sexp_candidates(n_constraints_on_fresh: int, max_len: int) -> int:
    """How many bounded candidate constructor lists exist per fresh
    subject, and the product over independent subjects.

    A candidate list has the required constructor first (list order is
    fixed, no permutations) followed by k undetermined slots; k ranges
    over 0 .. max_len - 1, so each fresh subject yields max_len
    candidates and independent subjects multiply.
    """
    per_subject = len([k for k in range(max_len)])
    return per_subject ** n_constraints_on_fresh


def pick_next(queue, state):
    """Index of the minimal-weight pickable constraint in a plain list
    (ties broken by position); None when every remaining constraint is
    residual. Scans the whole list at every pick."""
    best = None
    best_w = None
    for i, c in enumerate(queue):
        w = constraint_weight(c, state)
        if w is None:
            continue
        if best_w is None or w < best_w:
            best, best_w = i, w
            if w == 0:
                break
    return best


class ListQueue:
    """`solver.ConstraintQueue` as a tuple of every pending item in
    enqueue order, equalities included, picked by `pick_next`: with
    `solver._enqueue` queuing everything, each equality is picked like any
    other item.

    Like the solver's queue, it holds one lacks residual per tag and open
    tail: a waiting lacks residual that repeats an earlier waiting one is
    dropped. (The solver's queue keeps the one it filed on the tail first,
    which is the earlier one until two open tails are unified.)"""

    def __init__(self, pending=()):
        self.pending = pending

    @property
    def size(self) -> int:
        return len(self.pending)

    @property
    def mixed(self) -> int:
        return sum(not isinstance(c, Compound) or c.tag == "Eq" for c in self.pending)

    def __bool__(self):
        return bool(self.pending)

    def push_all(self, items) -> "ListQueue":
        return ListQueue(self.pending + tuple(items)) if items else self

    def items(self) -> list:
        return list(self.pending)

    def pop(self, state):
        pending = self._kept(state)
        i = pick_next(pending, state)
        if i is None:
            return None
        return pending[i], ListQueue(pending[:i] + pending[i + 1 :])

    def residuals(self, state) -> list:
        return list(self._kept(state))

    def _kept(self, state) -> tuple:
        kept, seen = [], set()
        for c in self.pending:
            w = shallow_walk(c, state.subst)
            if isinstance(w, Compound) and w.tag == "Lacks" and constraint_weight(c, state) is None:
                key = (w.args[0], shallow_walk(w.args[1], state.subst).id)
                if key in seen:
                    continue
                seen.add(key)
            kept.append(c)
        return tuple(kept)


def queue_everything(queue, items):
    """`solver._enqueue` with no equality taken out: every item is queued."""
    return queue.push_all(items), []


def diseq_survives(pairs, subst):
    """Recheck every pending disequality by a trial unification; None
    signals a violated pair."""
    keep = []
    for a, b in pairs:
        trial = _unify_terms(a, b, subst, None)
        if trial is None:
            continue  # can never become equal again: drop
        if trial is subst:
            return None  # equal now: violation
        keep.append((a, b))
    return tuple(keep)


def recheck_unify(a, b):
    """`engine.unify` over a store of plain (a, b) pairs, every one of
    them rechecked after every unification."""

    def goal(state):
        subst = _unify_terms(a, b, state.subst, state.hooks, state.counters)
        if subst is None:
            return None
        diseqs = diseq_survives(state.diseqs, subst)
        if diseqs is None:
            return None
        return (State(subst, diseqs, {}, state.counter, state.counters), None)

    return goal


def recheck_disunify(a, b):
    """`engine.disunify` over the store of `recheck_unify`."""

    def goal(state):
        trial = _unify_terms(a, b, state.subst, None)
        if trial is None:
            return (state, None)
        if trial is state.subst:
            return None
        diseqs = state.diseqs + ((a, b),)
        return (State(state.subst, diseqs, state.hooks, state.counter, state.counters), None)

    return goal


# ---------------------------------------------------------------------------
# Reference tokenizer: the character-by-character lexer the tuple tokenizer
# in shapecheck.syntax replaced, kept as it was. It counts a column per
# character, so its positions are wrong after a newline inside a string
# or a block comment, and it raises ValueError on a digit run int()
# cannot read (`²`, or more than 4,300 digits).
# ---------------------------------------------------------------------------

_KEYWORDS = {
    "var", "fun", "case", "of", "esac",
    "if", "then", "else", "elif", "fi",
    "while", "do", "od", "for",
}

_PUNCT = [
    ":=", "->", "==", "!=", "<=", ">=",
    "(", ")", "[", "]", "{", "}", ",", ";", ".",
    "<", ">", "+", "-", "*", "/", "%", "=", "|", "@", "_",
]
# The punctuators a character can start, longest first as in _PUNCT.
_PUNCT_BY_FIRST = {c: [p for p in _PUNCT if p[0] == c] for c in {p[0] for p in _PUNCT}}

_SHAPES = {"box": "box", "unbox": "unbox", "str": "str", "string": "str",
           "array": "array", "sexp": "sexp", "fun": "fun"}


@dataclass
class Token:
    kind: str  # "int" | "str" | "ident" | "tag" | keyword | punct | "eof"
    value: object
    line: int
    col: int


def reference_tokenize(src: str) -> list:
    toks = []
    i, line, col = 0, 1, 1
    n = len(src)

    def err(msg):
        raise ParseError(line, col, msg)

    while i < n:
        c = src[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c == "-" and src.startswith("--", i):  # line comment
            while i < n and src[i] != "\n":
                i += 1
            continue
        if c == "(" and src.startswith("(*", i):  # block comment
            depth, j = 1, i + 2
            while j < n and depth:
                if src.startswith("(*", j):
                    depth += 1
                    j += 2
                elif src.startswith("*)", j):
                    depth -= 1
                    j += 2
                else:
                    if src[j] == "\n":
                        line += 1
                        col = 0
                    j += 1
            if depth:
                err("unterminated comment")
            col += j - i
            i = j
            continue
        start_line, start_col = line, col
        if c.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            toks.append(Token("int", int(src[i:j]), start_line, start_col))
            col += j - i
            i = j
            continue
        if c == '"':
            j = i + 1
            buf = []
            while j < n and src[j] != '"':
                if src[j] == "\\" and j + 1 < n and src[j + 1] in ('"', "\\"):
                    buf.append(src[j + 1])
                    j += 2
                else:
                    buf.append(src[j])
                    j += 1
            if j >= n:
                err("unterminated string")
            toks.append(Token("str", "".join(buf), start_line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        if c == "#":
            j = i + 1
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            word = src[i + 1 : j]
            if word not in _SHAPES:
                err(f"unknown shape pattern #{word}")
            toks.append(Token("shape", _SHAPES[word], start_line, start_col))
            col += j - i
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            word = src[i:j]
            if word in _KEYWORDS:
                toks.append(Token(word, word, start_line, start_col))
            elif word[0].isupper():
                toks.append(Token("tag", word, start_line, start_col))
            else:
                toks.append(Token("ident", word, start_line, start_col))
            col += j - i
            i = j
            continue
        for p in _PUNCT_BY_FIRST.get(c, ()):
            if src.startswith(p, i):
                toks.append(Token(p, p, start_line, start_col))
                col += len(p)
                i += len(p)
                break
        else:
            err(f"unexpected character {c!r}")
    toks.append(Token("eof", None, line, col))
    return toks


def resolve_scopes(prog):
    """Assign unique binder ids, overwriting those the parser gave. A
    named `fun` sees itself (recursion) and a `var` is visible in its own
    initializer as well as the remainder of its scope; case-branch
    binders are scoped to their branch."""
    counter = [0]

    def new_binder() -> int:
        counter[0] += 1
        return counter[0] - 1

    builtins = {name: new_binder() for name in S.BUILTINS}

    def resolve(node, env):
        if isinstance(node, (S.IntLit, S.StrLit, S.PWild, S.PShape, S.PInt)):
            return
        if isinstance(node, S.VarRef):
            if node.name not in env:
                raise S.ResolveError(node.name, node.line, node.col)
            node.binder = env[node.name]
            return
        if isinstance(node, S.Scope):
            inner = dict(env)
            for item in node.items:
                if isinstance(item, S.VarDecl):
                    item.binder = new_binder()
                    inner[item.name] = item.binder
                    if item.init is not None:
                        resolve(item.init, inner)
                elif isinstance(item, S.FunDecl):
                    item.binder = new_binder()
                    inner[item.name] = item.binder
                    resolve(item.fun, inner)
                else:
                    resolve(item, inner)
            return
        if isinstance(node, S.FunLit):
            inner = dict(env)
            node.params = [(n, new_binder()) for n, _ in node.params]
            for n, b in node.params:
                inner[n] = b
            resolve(node.body, inner)
            return
        if isinstance(node, S.Case):
            resolve(node.scrutinee, env)
            for pat, body in node.branches:
                inner = dict(env)
                resolve_pattern(pat, inner)
                resolve(body, inner)
            return
        if isinstance(node, S.Assign):
            resolve(node.lhs, env), resolve(node.rhs, env)
            return
        if isinstance(node, S.If):
            resolve(node.cond, env), resolve(node.then, env)
            if node.orelse is not None:
                resolve(node.orelse, env)
            return
        if isinstance(node, S.While):
            resolve(node.cond, env), resolve(node.body, env)
            return
        if isinstance(node, S.For):
            for part in (node.init, node.cond, node.step, node.body):
                resolve(part, env)
            return
        if isinstance(node, S.Binop):
            resolve(node.left, env), resolve(node.right, env)
            return
        if isinstance(node, S.CallE):
            resolve(node.fn, env)
            for a in node.args:
                resolve(a, env)
            return
        if isinstance(node, S.Index):
            resolve(node.subject, env), resolve(node.index, env)
            return
        if isinstance(node, (S.ArrayLit, S.SexpLit)):
            for a in (node.elems if isinstance(node, S.ArrayLit) else node.args):
                resolve(a, env)
            return
        if isinstance(node, S.Length):
            resolve(node.subject, env)
            return
        raise TypeError(f"unexpected node: {node!r}")

    def resolve_pattern(pat, env):
        if isinstance(pat, (S.PWild, S.PShape, S.PInt)):
            return
        if isinstance(pat, S.PBind):
            pat.binder = new_binder()
            env[pat.name] = pat.binder
            return
        if isinstance(pat, S.PAt):
            pat.binder = new_binder()
            env[pat.name] = pat.binder
            resolve_pattern(pat.pat, env)
            return
        if isinstance(pat, (S.PSexp, S.PArray)):
            for sub in (pat.args if isinstance(pat, S.PSexp) else pat.elems):
                resolve_pattern(sub, env)
            return
        raise TypeError(f"unexpected pattern: {pat!r}")

    resolve(prog.body, dict(builtins))
    prog.builtins = builtins
    return prog


def eager_solve_sexp(tag, subject, args, opts, kont):
    """`solver.solve_sexp` with every row closed where it is scanned.

    The row must hold exactly one cell of this tag, with these
    arguments; cells scanned past must carry other, determined tags. Past
    that cell every open tail forks: close it with nil, or add a cell
    whose free tag is disunified from this one, up to the length bound
    when pruning. A cell whose tag is still free takes this tag."""
    max_len = opts.sexp_bound
    want_args = llist(args)

    def check_n(n):
        if not opts.prune:
            return succeed
        return succeed if n <= max_len else fail

    def not_in_tail(n, xs):
        def cell(tv, cargs, rest):
            return conj(
                unify(xs, lcons(t_ctor(tv, cargs), rest)),
                disunify(tag, tv),
                not_in_tail(n + 1, rest),
            )

        more = delay(lambda: fresh_many(3, lambda vs: cell(*vs)))
        return conj(check_n(n), disj(unify(xs, LNIL), more))

    def hlp(n, xs):
        def cell(tv, tsv, rest):
            return conj(
                unify(xs, lcons(t_ctor(tv, tsv), rest)),
                disj(
                    conj(unify(tag, tv), reference_eq_ts(want_args, tsv), not_in_tail(n + 1, rest)),
                    conj(is_not_var(tv), disunify(tag, tv), hlp(n + 1, rest)),
                ),
            )

        return conj(check_n(n), delay(lambda: fresh_many(3, lambda vs: cell(*vs))))

    def solve(u, cl):
        return conj(unmu(subject, u), unify(u, t_sexp(cl)), hlp(0, cl), kont([]))

    return fresh_many(2, lambda vs: solve(*vs))


# ---------------------------------------------------------------------------
# Reference rewriters: every compound copied.
# ---------------------------------------------------------------------------


def reference_apply_type_subst(mapping: dict, term, subst):
    """Capture-avoiding replacement of TName occurrences, deep-walking as
    it goes, every compound in reach built anew (closed ones too), each
    once per set of names in scope. Binders in TMu / TArrow shadow
    identically-named entries."""
    memos = {}  # names in scope -> {id of a compound: its rewrite}
    out = []  # rewritten subterms, in order
    # Tasks: (term, names in scope, memo, None) rewrites term; (compound,
    # None, memo, kept) builds it from kept and the rewrites of its other
    # arguments, the last ones on out.
    todo = [(term, mapping, memos.setdefault(frozenset(mapping), {}), None)]
    while todo:
        t, names, memo, kept = todo.pop()
        if kept is not None:
            n = len(t.args) - len(kept)
            built = memo[id(t)] = Compound(t.tag, kept + tuple(out[len(out) - n:]))
            del out[len(out) - n:]
            out.append(built)
            continue
        t = shallow_walk(t, subst)
        if not isinstance(t, Compound):
            out.append(t)
            continue
        done = memo.get(id(t))
        if done is None:
            tag, kept, inner, inner_memo = t.tag, (), names, memo
            if tag == "TName":
                done = names.get(t.args[0], t)
            elif tag == "TMu" or tag == "TArrow":
                if tag == "TMu":
                    kept = shadowed = (shallow_walk(t.args[0], subst),)
                else:
                    kept, bvars = t.args[:1], _walk_list(t.args[0], subst)
                    shadowed = {shallow_walk(b, subst) for b in bvars} if bvars is not None else ()
                inner = {k: v for k, v in names.items() if k not in shadowed}
                done = None if inner else t
                inner_memo = memos.setdefault(frozenset(inner), {})
            if done is None:
                todo.append((t, None, memo, kept))
                todo.extend((a, inner, inner_memo, None) for a in reversed(t.args[len(kept):]))
                continue
            memo[id(t)] = done
        out.append(done)
    return out[0]


_BUILD = object()  # reference_rebuild_term's marker: the compound below it has its parts built


def reference_rebuild_term(t, subst, leaf, done: dict):
    """t deep-walked under subst (None: as it is), every compound in reach
    built anew from its rebuilt parts and every other subterm x replaced
    by leaf(x). done collects {id of a walked compound: its rebuilt form};
    a compound reached again is rebuilt once."""
    out = []  # rebuilt subterms, in order
    todo = [t]
    while todo:
        x = todo.pop()
        if x is _BUILD:
            x = todo.pop()
            n = len(x.args)
            parts = tuple(out[len(out) - n:])
            del out[len(out) - n:]
            built = done[id(x)] = Compound(x.tag, parts)
            out.append(built)
            continue
        if subst is not None:
            x = shallow_walk(x, subst)
        if not isinstance(x, Compound):
            out.append(leaf(x))
            continue
        built = done.get(id(x))
        if built is not None:
            out.append(built)
            continue
        todo += (x, _BUILD)
        todo.extend(reversed(x.args))
    return out[0]


def reference_reify_term(t, subst, done: Optional[dict] = None):
    """t deep-walked, every compound copied, free variables renamed in
    first-occurrence order."""
    numbering = {}

    def leaf(x):
        if isinstance(x, Var):
            n = numbering.setdefault(x.id, len(numbering))
            return FreeVar(n, x.id)
        return x

    return reference_rebuild_term(t, subst, leaf, {} if done is None else done)


def reference_type_occurs_hook(vid: int, t, subst):
    """The type occurs hook in two passes: t reified under subst, then
    rebuilt with each free variable turned back into a variable and vid
    into the mu's name. Returns the mu and the number of compounds of the
    walked t (the hook's fuel under an earlier rule)."""
    done = {}
    reified = reference_reify_term(t, subst, done)
    name = f"r{vid}"

    def back(x):
        if isinstance(x, FreeVar):
            return t_name(name) if x.var_id == vid else Var(x.var_id)
        return x

    return t_mu(name, reference_rebuild_term(reified, None, back, {})), len(done)


def _vars(t, out: dict) -> dict:
    """Add the engine variables of t to out, an ordered set, in
    first-occurrence order."""
    todo = [t]
    while todo:
        x = todo.pop()
        if isinstance(x, Var):
            out[x] = None
        elif isinstance(x, Compound):
            todo.extend(reversed(x.args))
    return out


def _rename(t, mapping: dict):
    """t with each variable in mapping replaced by a type name, every
    compound copied."""
    if isinstance(t, Var):
        return t_name(mapping[t]) if t in mapping else t
    if isinstance(t, Compound) and t.args:
        return map_args(t, lambda a: _rename(a, mapping))
    return t


def reference_generalize(gen, env_top, params, result, body):
    """The copying generalizer, a stand-in for the method
    `gen._Gen.generalize`: the variables of the parameters, the result
    and the body are collected first, those newer than env_top named in
    first-occurrence order, and then every term that mentions one is
    copied with the names in. A constraint mentioning a named variable
    travels with the arrow; the others join the enclosing body's."""
    own = {}
    for t in params:
        _vars(t, own)
    _vars(result, own)
    body_vars = [_vars(c, {}) for c in body]
    for vs in body_vars:
        own.update(vs)
    mapping = {v: gen.fresh_bound_name() for v in own if v.id > env_top}
    moved = []
    for c, vs in zip(body, body_vars):
        if any(v in mapping for v in vs):
            moved.append(_rename(c, mapping))
        else:
            gen.out[c] = None
    return t_arrow(
        llist(list(mapping.values())),
        llist(moved),
        llist([_rename(p, mapping) for p in params]),
        _rename(result, mapping),
    )


def reference_presolve(env_top, body):
    """The copying presolve, a stand-in for `gen._presolve`: the body
    constraints that stay, and a dict from each variable the others solve
    to its term. An equality is solved when its sides, with their bound
    variables looked through, are one variable, or two equal terms with
    no variable in them, or a variable newer than env_top (of two
    variables the younger) and a term that, copied with every solved
    variable in, does not hold it; two array types are solved when their
    elements are. A call of a variable-free arrow with
    empty binder and constraint lists is solved when every
    parameter/argument pair and the result pair is, tried on a copy of
    the dict."""
    solved = {}
    kept = []
    for c in body:
        pairs = None
        if c.tag == "Eq":
            pairs = [c.args]
        elif c.tag == "Call":
            fn = _looked_through(c.args[0], solved)
            if isinstance(fn, Compound) and fn.tag == "TArrow" and not _vars(fn, {}) and fn.args[:2] == (LNIL, LNIL):
                (ps, ps_tail), (args, args_tail) = _list_from_term(fn.args[2]), _list_from_term(c.args[1])
                if len(ps) == len(args) and ps_tail == args_tail == LNIL:
                    pairs = [*zip(ps, args), (fn.args[3], c.args[2])]
        trial = dict(solved)
        if pairs is not None and all(_reference_bind(env_top, a, b, trial) for a, b in pairs):
            solved = trial
        else:
            kept.append(c)
    return kept, solved


def _looked_through(t, solved: dict):
    while isinstance(t, Var) and t in solved:
        t = solved[t]
    return t


def _substitute(t, solved: dict):
    """t with every variable solved copied in, every compound copied."""
    if isinstance(t, Var):
        return _substitute(solved[t], solved) if t in solved else t
    if isinstance(t, Compound) and t.args:
        return map_args(t, lambda a: _substitute(a, solved))
    return t


def _reference_bind(env_top, a, b, solved: dict) -> bool:
    a, b = _looked_through(a, solved), _looked_through(b, solved)
    if isinstance(a, Compound) and isinstance(b, Compound) and a.tag == b.tag == "TArray":
        return _reference_bind(env_top, a.args[0], b.args[0], solved)
    if isinstance(b, Var) and (not isinstance(a, Var) or b.id > a.id):
        a, b = b, a
    if not isinstance(a, Var):
        return not _vars(a, {}) and not _vars(b, {}) and a == b
    if a == b:
        return True
    if a.id <= env_top or a in _vars(_substitute(b, solved), {}):
        return False
    solved[a] = b
    return True


def reference_presolving_generalize(gen, env_top, params, result, body):
    """`reference_generalize` after `reference_presolve`, a stand-in for
    the method `gen._Gen.generalize`: the solved variables are copied
    into the parameters, the result and every constraint that mentions a
    variable newer than env_top; such a constraint travels with the
    arrow, once however many the copying made equal, and the others join
    the enclosing body's."""
    kept, solved = reference_presolve(env_top, body)
    params = [_substitute(p, solved) for p in params]
    result = _substitute(result, solved)
    local = [any(v.id > env_top for v in _vars(c, {})) for c in kept]
    body = [_substitute(c, solved) if moves else c for c, moves in zip(kept, local)]
    own = {}
    for t in (*params, result, *body):
        _vars(t, own)
    mapping = {v: gen.fresh_bound_name() for v in own if v.id > env_top}
    moved = {}
    for c, moves in zip(body, local):
        if moves:
            moved[_rename(c, mapping)] = None
        else:
            gen.out[c] = None
    return t_arrow(
        llist(list(mapping.values())),
        llist(list(moved)),
        llist([_rename(p, mapping) for p in params]),
        _rename(result, mapping),
    )


# ---------------------------------------------------------------------------
# Reference type equality: the relational goals, one per tag.
# ---------------------------------------------------------------------------


def bind_occurs_hook(t: Term, hook) -> Goal:
    """Register an occurs hook; t must walk to an unbound variable.

    When binding that variable fails the occurs check, hook(variable id,
    walked target, substitution) is called and returns a term to bind
    instead and the number of compounds it built (see `engine._extend`).
    """

    def goal(state):
        w = shallow_walk(t, state.subst)
        if not isinstance(w, Var):
            return None
        hooks = dict(state.hooks)
        hooks[w.id] = hook
        return succeed(State(state.subst, state.diseqs, hooks, state.counter, state.counters, state.watch))

    return goal


def set_type_hook(t) -> Goal:
    return bind_occurs_hook(t, type_occurs_hook)


def reference_eq_t(t, u) -> Goal:
    """Syntactic equality w.r.t. recursive type unfolding.

    When exactly one side is determined, an occurs hook is registered on
    the variable side immediately before unifying, so a cyclic equation
    resolves to a mu-type instead of failing.
    """

    def goal(state):
        a = shallow_walk(t, state.subst)
        b = shallow_walk(u, state.subst)
        a_var = isinstance(a, Var)
        b_var = isinstance(b, Var)
        if a_var and b_var:
            return unify(a, b)(state)
        if a_var:
            return conj(set_type_hook(a), unify(a, b))(state)
        if b_var:
            return conj(set_type_hook(b), unify(b, a))(state)
        a_mu = a.tag == "TMu"
        b_mu = b.tag == "TMu"
        if a_mu and b_mu:
            x1 = shallow_walk(a.args[0], state.subst)
            x2 = shallow_walk(b.args[0], state.subst)
            same = conj(unify(a.args[0], b.args[0]), delay(lambda: reference_eq_t(a.args[1], b.args[1])))
            if x1 == x2 and not isinstance(x1, Var):
                return same(state)
            # Differing binders: both sides unfold (contractivity keeps
            # ground comparisons productive).
            both = delay(lambda: reference_eq_t(unfold_mu(a, state.subst), unfold_mu(b, state.subst)))
            return disj(same, conj(disunify(a.args[0], b.args[0]), both))(state)
        if a_mu:
            return delay(lambda: reference_eq_t(unfold_mu(a, state.subst), b))(state)
        if b_mu:
            return delay(lambda: reference_eq_t(a, unfold_mu(b, state.subst)))(state)
        return _ref_eq_structural(a, b)(state)

    return goal


def _ref_eq_structural(a: Compound, b: Compound) -> Goal:
    if a.tag != b.tag:
        return lambda state: None
    if a.tag in ("TInt", "TStr"):
        return succeed
    if a.tag == "TArray":
        return reference_eq_t(a.args[0], b.args[0])
    if a.tag == "TSexp":
        return _ref_eq_list(a.args[0], b.args[0], _ref_eq_ctor)
    if a.tag == "TArrow":
        return _ref_eq_arrow(a, b)
    return unify(a, b)


def _ref_eq_arrow(a: Compound, b: Compound) -> Goal:
    """Arrows are equal up to the names of their binders. Ground binder
    lists of one length that differ are renamed, position by position, to
    the same new names `%<fresh engine id>`, which no parsed or generated
    type contains, so no free name is captured. Other lists must unify."""

    def goal(state):
        xs = _ref_ground_names(a.args[0], state.subst)
        ys = _ref_ground_names(b.args[0], state.subst)
        if xs is None or ys is None or xs == ys or len(xs) != len(ys):
            return conj(
                unify(a.args[0], b.args[0]),
                _ref_eq_list(a.args[1], b.args[1], _ref_eq_constraint),
                reference_eq_ts(a.args[2], b.args[2]),
                reference_eq_t(a.args[3], b.args[3]),
            )(state)

        def renamed(fresh):
            new = [t_name(f"%{v.id}") for v in fresh]
            ra, rb = (
                reference_apply_type_subst(dict(zip(names, new)), t_arrow(LNIL, *t.args[1:]), state.subst)
                for t, names in ((a, xs), (b, ys))
            )
            return _ref_eq_arrow(ra, rb)

        return fresh_many(len(xs), renamed)(state)

    return goal


def _ref_ground_names(lst, subst) -> Optional[list]:
    """The names of a binder list; None unless the spine and every name
    are ground."""
    items = _walk_list(lst, subst)
    if items is None:
        return None
    names = [shallow_walk(x, subst) for x in items]
    return names if all(isinstance(n, str) for n in names) else None


def _ref_eq_list(xs, ys, elem_eq) -> Goal:
    """Element-wise equality of engine lists, decomposing spines
    relationally so free spines are synthesized cell by cell. A
    non-list tail (e.g. a name standing for further union members)
    must match the other side's tail exactly."""

    def goal(state):
        a = shallow_walk(xs, state.subst)
        b = shallow_walk(ys, state.subst)
        if (isinstance(a, Compound) and a.tag not in ("lcons", "lnil")) or (
            isinstance(b, Compound) and b.tag not in ("lcons", "lnil")
        ):
            return unify(a, b)(state)
        if elem_eq is _ref_eq_ctor and isinstance(a, Var) and isinstance(b, Var):
            # Two open rows end in one tail from here on; the solver's
            # labeling closes it, so its lengths are not enumerated here.
            return unify(a, b)(state)
        return disj(conj(unify(a, LNIL), unify(b, LNIL)), delay(lambda: step(a, b)))(state)

    def step(a, b):
        def cells(hx, tx, hy, ty):
            return conj(
                unify(a, lcons(hx, tx)),
                unify(b, lcons(hy, ty)),
                elem_eq(hx, hy),
                _ref_eq_list(tx, ty, elem_eq),
            )

        return fresh_many(4, lambda vs: cells(*vs))

    return goal


def _ref_eq_ctor(c, d) -> Goal:
    def entries(xt, xa, yt, ya):
        return conj(
            unify(c, t_ctor(xt, xa)),
            unify(d, t_ctor(yt, ya)),
            unify(xt, yt),
            reference_eq_ts(xa, ya),
        )

    return fresh_many(4, lambda vs: entries(*vs))


def reference_eq_ts(ts, us) -> Goal:
    """reference_eq_t mapped over equal-length type lists."""
    return _ref_eq_list(ts, us, reference_eq_t)


def canonicalize(t):
    """Rename every variable and binder, free or bound, to n0, n1, ... in
    first-occurrence order; the result is ground, with TName leaves in
    place of variables."""
    names: dict[tuple, str] = {}

    def fresh(key):
        return names.setdefault(key, f"n{len(names)}")

    def go(x):
        vid = _var_id(x)
        if vid is not None:
            return t_name(fresh(("var", vid)))
        if not isinstance(x, Compound):
            return x  # constructor ids, shape kinds
        if x.tag == "TName":
            return t_name(fresh(("name", x.args[0])))
        if x.tag == "TMu":
            return t_mu(fresh(("name", _binder_name(x.args[0]))), go(x.args[1]))
        if x.tag == "TArrow":
            bvars = [fresh(("name", _binder_name(b))) for b in _items(x.args[0])]
            return t_arrow(llist(bvars), *(go(a) for a in x.args[1:]))
        return map_args(x, go)

    return go(t)


def reference_types_equal(a, b, fuel: int = 200_000) -> Optional[bool]:
    """The reference type comparison: the checker's `eq_t` run as a
    search over the canonicalized (hence ground) types, within `fuel`
    engine steps; None when the fuel ends before an answer. Each side's
    binders are numbered from n0 on their own, so two mu types with the
    same canonical binder are compared body to body, and it answers False
    for some equal types (`mu a. [a]` against `mu b. [[b]]`)."""
    ta, tb = canonicalize(a), canonicalize(b)
    res = run(lambda q: conj(unify(q, 1), eq_t(ta, tb)), max_answers=1, fuel=fuel)
    if res.answers:
        return True
    return None if res.fuel_exhausted else False


def _ref_eq_constraint(c, d) -> Goal:
    def goal(state):
        a = shallow_walk(c, state.subst)
        b = shallow_walk(d, state.subst)
        if isinstance(a, Var) or isinstance(b, Var):
            return unify(a, b)(state)
        if a.tag != b.tag:
            return None
        if a.tag in ("Ind", "Eq"):
            return conj(reference_eq_t(a.args[0], b.args[0]), reference_eq_t(a.args[1], b.args[1]))(state)
        if a.tag == "Call":
            return conj(
                reference_eq_t(a.args[0], b.args[0]),
                reference_eq_ts(a.args[1], b.args[1]),
                reference_eq_t(a.args[2], b.args[2]),
            )(state)
        if a.tag == "SexpC":
            return conj(
                unify(a.args[0], b.args[0]),
                reference_eq_t(a.args[1], b.args[1]),
                reference_eq_ts(a.args[2], b.args[2]),
            )(state)
        if a.tag == "Match":
            return conj(reference_eq_t(a.args[0], b.args[0]), _ref_eq_list(a.args[1], b.args[1], _ref_eq_pattern))(state)
        return unify(a, b)(state)

    return goal


def _ref_eq_pattern(p, q) -> Goal:
    def goal(state):
        a = shallow_walk(p, state.subst)
        b = shallow_walk(q, state.subst)
        if isinstance(a, Var) or isinstance(b, Var):
            return unify(a, b)(state)
        if a.tag != b.tag:
            return None
        if a.tag == "PAt":
            return conj(reference_eq_t(a.args[0], b.args[0]), _ref_eq_pattern(a.args[1], b.args[1]))(state)
        if a.tag == "PArray":
            return _ref_eq_list(a.args[0], b.args[0], _ref_eq_pattern)(state)
        if a.tag == "PSexp":
            return conj(unify(a.args[0], b.args[0]), _ref_eq_list(a.args[1], b.args[1], _ref_eq_pattern))(state)
        return unify(a, b)(state)

    return goal


# ---------------------------------------------------------------------------
# Reference constraint handlers: the goal pipelines the solver's direct
# handlers replaced, kept as they were, with the goals only they used.
# ---------------------------------------------------------------------------


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


def unmu(t, out) -> Goal:
    """out is t with a single top-level mu unfolded, if there is one.

    A free variable is assumed not to stand for a recursive type.
    """

    def goal(state):
        w = shallow_walk(t, state.subst)
        if isinstance(w, Compound) and w.tag == "TMu":
            return unify(out, unfold_mu(w, state.subst))(state)
        return unify(w, out)(state)

    return goal


def reference_solve_ind(container, elem, opts, kont):
    def by_shape(w):
        if w.tag == "TStr":
            return conj(eq_t(elem, T_INT), kont([]))
        if w.tag == "TArray":
            return conj(eq_t(elem, w.args[0]), kont([]))
        if w.tag == "TSexp":
            return reference_ind_row(w.args[0], elem, kont)
        return fail

    def dispatch(u):
        def goal(state):
            unfolded = unmu(container, u)(state)
            if unfolded is None:
                return None
            state = unfolded[0]
            w = shallow_walk(u, state.subst)
            if not isinstance(w, Var):
                return by_shape(w)(state)
            shapes = [unify(w, T_STR), fresh_with(lambda t: unify(w, t_array(t)))]
            if opts.sexp_bound:
                shapes.append(fresh_with(lambda row: unify(w, t_sexp(row))))
            return conj(disj(*shapes), lambda st: by_shape(shallow_walk(w, st.subst))(st))(state)

        return goal

    return fresh_with(dispatch)


def reference_ind_row(row, elem, kont):
    def goal(state):
        goals, spawned = [], []
        entries = shallow_walk(row, state.subst)
        while isinstance(entries, Compound) and entries.tag == "lcons":
            cell = shallow_walk(entries.args[0], state.subst)
            if isinstance(cell, Compound) and cell.tag == "ctor":
                _ref_ind_items(cell.args[1], elem, state.subst, goals, spawned)
            entries = shallow_walk(entries.args[1], state.subst)
        if isinstance(entries, Var):
            spawned.append(c_ind_row(entries, elem))
        goals.append(kont(spawned))
        return conj(*goals)(state)

    return goal


def reference_ind_args(args, elem, kont):
    def goal(state):
        goals, spawned = [], []
        _ref_ind_items(args, elem, state.subst, goals, spawned)
        goals.append(kont(spawned))
        return conj(*goals)(state)

    return goal


def _ref_ind_items(args, elem, subst, goals, spawned):
    args = shallow_walk(args, subst)
    while isinstance(args, Compound) and args.tag == "lcons":
        goals.append(eq_t(args.args[0], elem))
        args = shallow_walk(args.args[1], subst)
    if isinstance(args, Var):
        spawned.append(c_ind_args(args, elem))


def reference_solve_call(fn, args, result, opts, kont):
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
                reference_apply_type_subst(mapping, c, st.subst)
                for c in (_walk_list(fc, st.subst) or [])
            ]
            params = _walk_list(ps, st.subst) or []
            goals = [
                eq_t(reference_apply_type_subst(mapping, p, st.subst), a)
                for p, a in zip(params, args)
            ]
            goals.append(eq_t(reference_apply_type_subst(mapping, r, st.subst), result))
            goals.append(kont(spawned))
            return conj(*goals)(st)

        return conj(
            unmu(fn, u),
            unify(u, t_arrow(fxs, fc, ps, r)),
            fresh_many(nargs, lambda vs: unify(ps, llist(vs))),
            reference_force_empty(fxs, opts),
            reference_force_empty(fc, opts),
            instantiate,
        )

    return fresh_many(5, lambda vs: with_arrow(*vs))


def reference_force_empty(lst, opts):
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


def reference_solve_sexp(tag, subject, args, opts, kont):
    want_args = llist(args)

    def found(cell_args, rest, n):
        return conj(eq_ts(want_args, cell_args), _lacks(tag, rest, n + 1, opts, kont))

    def solve(u, cl):
        def find(state):
            xs, n = cl, 0
            while True:
                if _too_long(n, opts):
                    return None
                w = shallow_walk(xs, state.subst)
                if isinstance(w, Var):
                    return fresh_many(
                        2, lambda vs: conj(unify(w, lcons(t_ctor(tag, vs[0]), vs[1])), found(vs[0], vs[1], n))
                    )(state)
                if not (isinstance(w, Compound) and w.tag == "lcons"):
                    return None
                cell = shallow_walk(w.args[0], state.subst)
                tv = shallow_walk(cell.args[0], state.subst)
                if isinstance(tv, Var):
                    return conj(unify(tv, tag), found(cell.args[1], w.args[1], n))(state)
                if tv == tag:
                    return found(cell.args[1], w.args[1], n)(state)
                xs, n = w.args[1], n + 1

        return conj(unmu(subject, u), unify(u, t_sexp(cl)), find)

    return fresh_many(2, lambda vs: solve(*vs))


def reference_solve_match(subject, pats, opts, kont):
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
                        goals.append(reference_force_empty(fxs, opts))
                        goals.append(reference_force_empty(fc, opts))
                    elif kind == "box":
                        w = shallow_walk(subj, st.subst)
                        if isinstance(w, Var):
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


# The solver's handler names and their references, for a test to swap in.
REFERENCE_HANDLERS = {
    "solve_ind": reference_solve_ind,
    "_ind_row": reference_ind_row,
    "_ind_args": reference_ind_args,
    "solve_call": reference_solve_call,
    "solve_sexp": reference_solve_sexp,
    "solve_match": reference_solve_match,
}
