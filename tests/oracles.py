"""Independent brute-force oracles used by the test-suite.

Ground entailment is decided by direct rule application with bounded
recursive-type unfolding, and the candidate-list enumerator counts bounded
constructor lists directly; neither touches the relational engine.
`pick_next` is the list-based reference for the solver's pick order: it
reads weights through the solver's own `constraint_weight` and nothing else.
`recheck_unify`/`recheck_disunify` are the reference disequality store,
built on the engine's own `_unify_terms`: it rechecks every pending pair
after every unification, without watches. `resolve_scopes` is the
reference scope resolution: a separate walk over a parsed program, one
case per node kind, copying its environment at every scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from shapecheck import syntax as S
from shapecheck.engine import State, _unify_terms
from shapecheck.solver import constraint_weight

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


def diseq_survives(pairs, subst):
    """Recheck every pending disequality by a trial unification; None
    signals a violated pair."""
    keep = []
    for a, b in pairs:
        res = _unify_terms(a, b, subst, None)
        if res is None:
            continue  # can never become equal again: drop
        _, first = res
        if first is None:
            return None  # equal now: violation
        keep.append((a, b))
    return tuple(keep)


def recheck_unify(a, b):
    """`engine.unify` over a store of plain (a, b) pairs, every one of
    them rechecked after every unification."""

    def goal(state):
        res = _unify_terms(a, b, state.subst, state.hooks)
        if res is None:
            return None
        subst, _ = res
        diseqs = diseq_survives(state.diseqs, subst)
        if diseqs is None:
            return None
        return (State(subst, diseqs, {}, state.counter, state.counters), None)

    return goal


def recheck_disunify(a, b):
    """`engine.disunify` over the store of `recheck_unify`."""

    def goal(state):
        res = _unify_terms(a, b, state.subst, None)
        if res is None:
            return (state, None)
        _, first = res
        if first is None:
            return None
        diseqs = state.diseqs + ((a, b),)
        return (State(state.subst, diseqs, state.hooks, state.counter, state.counters), None)

    return goal


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
