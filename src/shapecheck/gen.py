"""Syntax-directed constraint extraction.

A resolved program is traversed once: each construct returns a type and
emits its atomic constraints, and each S-expression label is interned
where it occurs (the solver needs the global constructor count, which is
complete before it starts). A conjunction is idempotent, so each function
body, and the top level, collects its constraints in one insertion-ordered
set: a constraint equal to one already emitted there is dropped, and the
rest keep their first-emitted order. Function literals are generalized on
the spot: variables created inside the function are quantified and the
body constraints that mention them move into the arrow, to be
instantiated at call sites; the others join the enclosing set.

Types, constraints and patterns are built as engine terms; a type variable
is an engine variable, so the solver takes them as they are.
"""

from __future__ import annotations

from . import syntax as S
from .engine import Compound, PMap, Var, rebuild_term
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
    p_array,
    p_at,
    p_sexp,
    p_shape,
    t_array,
    t_arrow,
    t_name,
)


class GenResult(S.Record):
    __slots__ = ("constraints", "table", "roots", "var_count")

    def __init__(self, constraints: list, table: TagTable, roots: list, var_count: int):
        self.constraints = constraints  # of distinct constraint terms, in first-emitted order
        self.table = table
        self.roots = roots  # of (name, type term) in declaration order
        self.var_count = var_count  # the type variables are Var(1) ... Var(var_count)


class _Gen:
    def __init__(self, table: TagTable):
        self.table = table
        self.counter = 0
        self.bound_counter = 0
        self.env: dict[int, object] = {}
        # The constraints of the body being generated, an ordered set:
        # adding one equal to a member (`out[c] = None`) changes nothing.
        self.out: dict = {}
        self.eqs: dict = {}  # (id(a), id(b)) -> Eq(a, b), for the same body

    def fresh(self) -> Var:
        # Var(0) is left to the solver's query variable.
        self.counter += 1
        return Var(self.counter)

    def fresh_bound_name(self) -> str:
        self.bound_counter += 1
        return f"q{self.bound_counter}"

    def eq(self, a, b):
        """Add Eq(a, b) to `out`. A repeat of the same two term objects is
        found in `eqs` by their ids, without hashing a term; `eqs` holds
        each constraint it keys, so those ids stay in use. Any other
        repeat is dropped by `out` as every constraint is."""
        key = (id(a), id(b))
        if key not in self.eqs:
            c = self.eqs[key] = c_eq(a, b)
            self.out[c] = None

    # -- expressions --------------------------------------------------------

    def infer_expr(self, e):
        """The type of e; its constraints are added to `out`. The most
        frequent node types are tested first."""
        kind = type(e)
        if kind is S.VarRef:
            return self.env[e.binder]
        if kind is S.IntLit:
            return T_INT
        if kind is S.Binop:
            tl = self.infer_expr(e.left)
            tr = self.infer_expr(e.right)
            self.eq(tl, T_INT)
            self.eq(tr, T_INT)
            return T_INT
        if kind is S.Assign:
            tl = self.infer_expr(e.lhs)
            self.eq(tl, self.infer_expr(e.rhs))
            return T_INT
        if kind is S.Scope:
            return self.infer_scope(e)
        if kind is S.CallE:
            tf = self.infer_expr(e.fn)
            args = [self.infer_expr(x) for x in e.args]
            r = self.fresh()
            self.out[c_call(tf, llist(args), r)] = None
            return r
        if kind is S.Index:
            ts = self.infer_expr(e.subject)
            ti = self.infer_expr(e.index)
            elem = self.fresh()
            self.eq(ti, T_INT)
            self.out[c_ind(ts, elem)] = None
            return elem
        if kind is S.StrLit:
            return T_STR
        if kind is S.ArrayLit:
            elem = self.fresh()
            for x in e.elems:
                self.eq(self.infer_expr(x), elem)
            return t_array(elem)
        if kind is S.SexpLit:
            tid = self.table.intern(e.label, len(e.args))
            subject = self.fresh()
            args = [self.infer_expr(x) for x in e.args]
            self.out[c_sexp(tid, subject, llist(args))] = None
            return subject
        if kind is S.Length:
            self.out[c_match(self.infer_expr(e.subject), llist([p_shape("box")]))] = None
            return T_INT
        if kind is S.If:
            self.eq(self.infer_expr(e.cond), T_INT)
            tt = self.infer_expr(e.then)
            if e.orelse is None:
                return T_INT
            self.eq(tt, self.infer_expr(e.orelse))
            return tt
        if kind is S.While:
            tc = self.infer_expr(e.cond)
            self.infer_expr(e.body)
            self.eq(tc, T_INT)
            return T_INT
        if kind is S.For:
            self.infer_expr(e.init)
            self.eq(self.infer_expr(e.cond), T_INT)
            self.infer_expr(e.step)
            self.infer_expr(e.body)
            return T_INT
        if kind is S.Case:
            ts = self.infer_expr(e.scrutinee)
            res = self.fresh()
            pats = []
            for pat, body in e.branches:
                pats.append(self.infer_pattern(pat))
                self.eq(self.infer_expr(body), res)
            self.out[c_match(ts, llist(pats))] = None
            return res
        if kind is S.FunLit:
            return self.infer_fun(e)
        raise TypeError(f"unexpected expression: {e!r}")

    def infer_scope(self, scope: S.Scope):
        ty = T_INT
        for item in scope.items:
            if isinstance(item, S.VarDecl):
                t = self.fresh()
                self.env[item.binder] = t  # visible in its own initializer
                if item.init is not None:
                    self.eq(t, self.infer_expr(item.init))
                ty = T_INT
            elif isinstance(item, S.FunDecl):
                # A linkage variable, equated with the generalized arrow: a
                # call in the body instantiates the whole scheme afresh.
                m = self.fresh()
                self.env[item.binder] = m
                self.eq(m, self.infer_fun(item.fun))
                ty = T_INT
            else:
                ty = self.infer_expr(item)
        return ty

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
        outer = self.out, self.eqs
        self.out, self.eqs = {}, {}
        result = self.infer_expr(fn.body)
        body = self.out
        self.out, self.eqs = outer
        return self.generalize(env_top, params, result, body)

    def generalize(self, env_top, params, result, body):
        """Quantify every variable newer than env_top, that is, not free
        in the environment, naming each in first-occurrence order; in one
        rewrite (`engine.rebuild_term`), which returns what holds no such
        variable as it is. So a constraint touching a quantified variable
        comes back anew and travels with the arrow; the others join the
        enclosing body's."""
        names = {}  # quantified variable -> its type name

        def leaf(v):
            if v.id <= env_top:
                return v
            name = names.get(v)
            if name is None:
                name = names[v] = t_name(self.fresh_bound_name())
            return name

        n = len(params)
        parts = rebuild_term(Compound("", (*params, result, *body)), PMap(), leaf)[0].args
        moved = []
        for c, renamed in zip(body, parts[n + 1:]):
            if renamed is c:
                self.out[c] = None
            else:
                moved.append(renamed)
        return t_arrow(
            llist([name.args[0] for name in names.values()]),
            llist(moved),
            llist(parts[:n]),
            parts[n],
        )

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
    gen.infer_scope(prog.body)
    roots = []
    for item in prog.body.items:
        if isinstance(item, (S.VarDecl, S.FunDecl)) and item.binder in gen.env:
            roots.append((item.name, gen.env[item.binder]))
    return GenResult(list(gen.out), gen.table, roots, gen.counter)
