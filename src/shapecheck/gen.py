"""Syntax-directed constraint extraction.

A resolved program is traversed once: each construct contributes a type
and a list of atomic constraints, and each S-expression label is interned
where it occurs (the solver needs the global constructor count, which is
complete before it starts). Function literals are generalized on the
spot: variables created inside the function are quantified and the body
constraints that mention them move into the arrow, to be instantiated at
call sites.

Types, constraints and patterns are built as engine terms; a type variable
is an engine variable, so the solver takes them as they are.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import syntax as S
from .engine import Compound, Var
from .types import (
    LNIL,
    P_WILD,
    T_INT,
    T_STR,
    TagTable,
    c_call,
    c_eq,
    c_ind,
    c_match,
    c_sexp,
    llist,
    map_args,
    p_array,
    p_at,
    p_sexp,
    p_shape,
    t_array,
    t_arrow,
    t_name,
)


@dataclass
class GenResult:
    constraints: list  # of constraint terms
    table: TagTable
    roots: list  # of (name, type term) in declaration order
    var_count: int  # the type variables are Var(1) ... Var(var_count)


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
    """t with each variable in mapping replaced by a type name."""
    if isinstance(t, Var):
        return t_name(mapping[t]) if t in mapping else t
    if isinstance(t, Compound) and t.args:
        return map_args(t, lambda a: _rename(a, mapping))
    return t


class _Gen:
    def __init__(self, table: TagTable):
        self.table = table
        self.counter = 0
        self.bound_counter = 0
        self.env: dict[int, object] = {}

    def fresh(self) -> Var:
        # Var(0) is left to the solver's query variable.
        self.counter += 1
        return Var(self.counter)

    def fresh_bound_name(self) -> str:
        self.bound_counter += 1
        return f"q{self.bound_counter}"

    # -- expressions --------------------------------------------------------

    def infer_expr(self, e):
        """Returns (type, constraints)."""
        if isinstance(e, S.IntLit):
            return T_INT, []
        if isinstance(e, S.StrLit):
            return T_STR, []
        if isinstance(e, S.VarRef):
            return self.env[e.binder], []
        if isinstance(e, S.ArrayLit):
            elem = self.fresh()
            cs = []
            for x in e.elems:
                t, c = self.infer_expr(x)
                cs += c
                cs.append(c_eq(t, elem))
            return t_array(elem), cs
        if isinstance(e, S.SexpLit):
            tid = self.table.intern(e.label, len(e.args))
            subject = self.fresh()
            cs = []
            args = []
            for x in e.args:
                t, c = self.infer_expr(x)
                cs += c
                args.append(t)
            cs.append(c_sexp(tid, subject, llist(args)))
            return subject, cs
        if isinstance(e, S.Index):
            ts, cs = self.infer_expr(e.subject)
            ti, ci = self.infer_expr(e.index)
            elem = self.fresh()
            return elem, cs + ci + [c_eq(ti, T_INT), c_ind(ts, elem)]
        if isinstance(e, S.CallE):
            tf, cs = self.infer_expr(e.fn)
            args = []
            for x in e.args:
                t, c = self.infer_expr(x)
                cs += c
                args.append(t)
            r = self.fresh()
            return r, cs + [c_call(tf, llist(args), r)]
        if isinstance(e, S.Length):
            ts, cs = self.infer_expr(e.subject)
            return T_INT, cs + [c_match(ts, llist([p_shape("box")]))]
        if isinstance(e, S.Assign):
            tl, cl = self.infer_expr(e.lhs)
            tr, cr = self.infer_expr(e.rhs)
            return T_INT, cl + cr + [c_eq(tl, tr)]
        if isinstance(e, S.Binop):
            tl, cl = self.infer_expr(e.left)
            tr, cr = self.infer_expr(e.right)
            return T_INT, cl + cr + [c_eq(tl, T_INT), c_eq(tr, T_INT)]
        if isinstance(e, S.If):
            tc, cs = self.infer_expr(e.cond)
            cs.append(c_eq(tc, T_INT))
            tt, ct = self.infer_expr(e.then)
            cs += ct
            if e.orelse is None:
                return T_INT, cs
            te, ce = self.infer_expr(e.orelse)
            return tt, cs + ce + [c_eq(tt, te)]
        if isinstance(e, S.While):
            tc, cs = self.infer_expr(e.cond)
            _, cb = self.infer_expr(e.body)
            return T_INT, cs + cb + [c_eq(tc, T_INT)]
        if isinstance(e, S.For):
            _, c0 = self.infer_expr(e.init)
            tc, c1 = self.infer_expr(e.cond)
            _, c2 = self.infer_expr(e.step)
            _, c3 = self.infer_expr(e.body)
            return T_INT, c0 + c1 + [c_eq(tc, T_INT)] + c2 + c3
        if isinstance(e, S.Case):
            ts, cs = self.infer_expr(e.scrutinee)
            res = self.fresh()
            pats = []
            for pat, body in e.branches:
                tp = self.infer_pattern(pat)
                pats.append(tp)
                tb, cb = self.infer_expr(body)
                cs += cb
                cs.append(c_eq(tb, res))
            cs.append(c_match(ts, llist(pats)))
            return res, cs
        if isinstance(e, S.FunLit):
            return self.infer_fun(e)
        if isinstance(e, S.Scope):
            return self.infer_scope(e)
        raise TypeError(f"unexpected expression: {e!r}")

    def infer_scope(self, scope: S.Scope):
        ty = T_INT
        cs = []
        for item in scope.items:
            if isinstance(item, S.VarDecl):
                t = self.fresh()
                self.env[item.binder] = t  # visible in its own initializer
                if item.init is not None:
                    ti, ci = self.infer_expr(item.init)
                    cs += ci
                    cs.append(c_eq(t, ti))
                ty = T_INT
            elif isinstance(item, S.FunDecl):
                # The function sees itself monomorphically.
                m = self.fresh()
                self.env[item.binder] = m
                arrow, ci = self.infer_fun(item.fun)
                cs += ci
                cs.append(c_eq(m, arrow))
                ty = T_INT
            else:
                ty, ci = self.infer_expr(item)
                cs += ci
        return ty, cs

    def infer_fun(self, fn: S.FunLit):
        # Every environment value is a fresh variable or a ground builtin
        # arrow, so the variables free in the environment here are exactly
        # the ones created so far: those with ids up to the counter.
        env_top = self.counter
        params = []
        for name, binder in fn.params:
            t = self.fresh()
            self.env[binder] = t
            params.append(t)
        result, body_cs = self.infer_expr(fn.body)
        return self.generalize(env_top, params, result, body_cs)

    def generalize(self, env_top, params, result, body_cs):
        """Quantify every variable newer than env_top, that is, not free
        in the environment; constraints touching a quantified variable
        travel with the arrow."""
        own = {}
        for t in params:
            _vars(t, own)
        _vars(result, own)
        body_vars = [_vars(c, {}) for c in body_cs]
        for vs in body_vars:
            own.update(vs)
        mapping = {v: self.fresh_bound_name() for v in own if v.id > env_top}
        moved = []
        residual = []
        for c, vs in zip(body_cs, body_vars):
            if any(v in mapping for v in vs):
                moved.append(_rename(c, mapping))
            else:
                residual.append(c)
        arrow = t_arrow(
            llist(list(mapping.values())),
            llist(moved),
            llist([_rename(p, mapping) for p in params]),
            _rename(result, mapping),
        )
        return arrow, residual

    # -- patterns -----------------------------------------------------------

    def infer_pattern(self, p):
        """Translate a syntactic pattern into a type pattern, extending the
        environment with binder types. Integer literals become an
        integer-typed hole so the subject is pinned wherever it nests."""
        if isinstance(p, S.PWild):
            return P_WILD
        if isinstance(p, S.PInt):
            return p_at(T_INT, P_WILD)
        if isinstance(p, S.PBind):
            t = self.fresh()
            self.env[p.binder] = t
            return p_at(t, P_WILD)
        if isinstance(p, S.PAt):
            t = self.fresh()
            self.env[p.binder] = t
            return p_at(t, self.infer_pattern(p.pat))
        if isinstance(p, S.PSexp):
            tid = self.table.intern(p.label, len(p.args))
            return p_sexp(tid, llist([self.infer_pattern(x) for x in p.args]))
        if isinstance(p, S.PArray):
            return p_array(llist([self.infer_pattern(x) for x in p.elems]))
        if isinstance(p, S.PShape):
            return p_shape(p.kind)
        raise TypeError(f"unexpected pattern: {p!r}")


BUILTIN_TYPES = {
    "read": t_arrow(LNIL, LNIL, LNIL, T_INT),
    "write": t_arrow(LNIL, LNIL, llist([T_INT]), T_INT),
}


def infer_program(prog: S.Program) -> GenResult:
    gen = _Gen(TagTable())
    for name, binder in prog.builtins.items():
        gen.env[binder] = BUILTIN_TYPES[name]
    _, constraints = gen.infer_scope(prog.body)
    roots = []
    for item in prog.body.items:
        if isinstance(item, (S.VarDecl, S.FunDecl)) and item.binder in gen.env:
            roots.append((item.name, gen.env[item.binder]))
    return GenResult(constraints, gen.table, roots, gen.counter)
