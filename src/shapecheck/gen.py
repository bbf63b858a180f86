"""Syntax-directed constraint extraction.

A resolved program is traversed once: each construct returns a type and
emits its atomic constraints, and each S-expression label is interned
where it occurs (the solver needs the global constructor count, which is
complete before it starts). A conjunction is idempotent, so each function
body, and the top level, collects its constraints in one insertion-ordered
set: a constraint equal to one already emitted there is dropped, and the
rest keep their first-emitted order; an equality of one term object with
itself holds and is not added. Function literals are generalized on the
spot: variables created inside the function are quantified and the body
constraints that mention them move into the arrow, to be instantiated at
call sites; the others join the enclosing set.

Before it generalizes, a function solves its own equalities: each body
constraint that `types.eq_t` would answer with plain bindings of the
function's variables is dropped and its bindings substituted (an `Eq`
between such a variable and a term it does not occur in, between two
variables one of them the function's, or between two equal var-free
terms, or between two array types whose elements are such; a `Call` of
a builtin whose argument and result pairs all are).
Every other constraint stays whole: an `Eq` that would bind an outer
variable travels in the scheme (the enclosing body never sees it, as
before), one that fails stays to fail when solved, and one that fails
the occurs check stays for the solver's hook to close into a `mu`. The
scheme means the same (exists q. q = T and C is C[T/q]) and is smaller,
and every call instantiates and dispatches less.

The program body is presolved too, by `checker.solve_gen`: `presolve`
with no outer variable, ending at the first equality it keeps that the
search may reject, and binding equal ground answers to one shared
object. `GenResult.constraints` stays the list generated, as
`--emit-constraints` prints it.

Types, constraints and patterns are built as engine terms; a type variable
is an engine variable, so the solver takes them as they are.
"""

from __future__ import annotations

from . import syntax as S
from .engine import Compound, PMap, Var, occurs, rebuild_term, shallow_walk, var_free
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
        repeat is dropped by `out` as every constraint is. An equality of
        one term object with itself holds, and is not added."""
        if a is b:
            return
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
        in the environment. First the body's equalities that bind only
        such variables are solved (`presolve`); then one rewrite
        (`engine.rebuild_term`) substitutes their answers and names each
        variable left in first-occurrence order, and returns what holds
        no such variable as it is. So a constraint touching a quantified
        or solved variable comes back anew and travels with the arrow;
        the others join the enclosing body's."""
        kept, subst = presolve(env_top, body)
        names = {}  # quantified variable -> its type name

        def leaf(v):
            if v.id <= env_top:
                return v
            name = names.get(v)
            if name is None:
                name = names[v] = t_name(self.fresh_bound_name())
            return name

        n = len(params)
        parts = rebuild_term(Compound("", (*params, result, *kept)), subst, leaf)[0].args
        moved = {}  # an ordered set: the substitution may make two equal
        for c, renamed in zip(kept, parts[n + 1:]):
            if renamed is c:
                self.out[c] = None
            else:
                moved[renamed] = None
        return t_arrow(
            llist([name.args[0] for name in names.values()]),
            llist(list(moved)),
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


def presolve(env_top, body, until_clash=False):
    """The constraints of body that stay, and the substitution that
    solves the others: in one pass, in order, each `Eq` or builtin `Call`
    that `types.eq_t` would answer with plain bindings of variables newer
    than env_top is dropped and its bindings kept (`_bind`, `_bind_call`).
    An `Eq` of two array types is split into their elements, level by
    level, as `eq_t` splits it; one whose innermost pair cannot be bound
    stays whole. Every other constraint stays, compounds unsplit, since
    `eq_t` unfolds `mu`s, renames arrows and forks on lists.

    With until_clash, the pass ends at the first equality it keeps that
    the search may reject (`_clashes`), and everything from there on
    stays: no later binding reaches the search before that equality.
    There, too, a variable whose answer is ground is bound to one shared
    object per distinct ground term (`_shared`), so constraints that
    read alike under the substitution hold the same objects, and the
    solver's set of dispatched constraints, which keys terms by identity,
    takes them as one."""
    subst = PMap()
    shared = {} if until_clash else None  # a ground term -> its shared object
    kept = []
    todo = iter(body)
    for c in todo:
        if c.tag == "Eq":
            solved = _bind(env_top, c.args[0], c.args[1], subst, shared)
        elif c.tag == "Call":
            solved = _bind_call(env_top, c.args, subst, shared)
        else:
            solved = None
        if solved is not None:
            subst = solved
            continue
        kept.append(c)
        if until_clash and c.tag == "Eq" and _clashes(c, subst):
            kept += todo
            break
    return kept, subst


def _split(a, b, subst):
    """a and b walked and, while both are array types, replaced by their
    elements walked: the pair that `eq_t` equates for them. A loop, so a
    deep array type takes no Python stack."""
    a = shallow_walk(a, subst)
    b = shallow_walk(b, subst)
    while a.__class__ is Compound and b.__class__ is Compound and a.tag == b.tag == "TArray":
        a = shallow_walk(a.args[0], subst)
        b = shallow_walk(b.args[0], subst)
    return a, b


def _clashes(eq, subst) -> bool:
    """Whether a kept equality is one the search may reject: its sides,
    split (`_split`), are two compounds whose tags differ, or one of
    which is var-free (a closed arrow, `Int`). Two compounds of one tag
    with variables on both sides, such as two arrows, are not."""
    a, b = _split(eq.args[0], eq.args[1], subst)
    if a.__class__ is not Compound or b.__class__ is not Compound:
        return False
    return a.tag != b.tag or var_free(a) or var_free(b)


def _bind(env_top, a, b, subst, shared=None):
    """subst extended to make a and b equal, or None: when, walked, they
    are one variable, two equal var-free terms, two array types whose
    elements are so, level by level, or a variable newer than env_top
    and a term it does not occur in (of two variables the younger is
    bound, as the unifier does). An equality that would bind an outer
    variable, fail, or close a `mu` (the solver's occurs hook) is None.
    With shared, a ground term is bound as its shared object."""
    a, b = _split(a, b, subst)
    if a.__class__ is Var:
        if b.__class__ is Var:
            if a is b:
                return subst
            v, t = (a, b) if a.id > b.id else (b, a)
        else:
            v, t = a, b
    elif b.__class__ is Var:
        v, t = b, a
    else:
        return subst if var_free(a) and var_free(b) and (a is b or a == b) else None
    if v.id <= env_top:
        return None
    if t.__class__ is Compound:
        # A ground answer cannot hold v, so only one that is not ground
        # is walked for it.
        ground = _shared(t, subst, shared) if shared is not None else None
        if ground is not None:
            t = ground
        elif not var_free(t) and occurs(v.id, t, subst):
            return None
    return subst.set(v.id, t)


def _shared(t, subst, shared):
    """The shared object of t's answer under subst when that answer is
    ground, else None. Every ground answer is bound as its shared
    object, which is var-free, so the answer is ground when each
    variable in t walks to a var-free term (one bound to a term with
    variables is not looked into); only then is t rebuilt with them in,
    once (`engine.rebuild_term`), over the shared objects of its parts."""
    if not var_free(t):
        todo = [t]
        while todo:
            for x in todo.pop().args:
                if x.__class__ is Var:
                    x = shallow_walk(x, subst)
                    if x.__class__ is Var or not var_free(x):
                        return None
                elif x.__class__ is Compound and not var_free(x):
                    todo.append(x)
        t = rebuild_term(t, subst, None)[0]
    return shared.setdefault(t, t)


def _bind_call(env_top, call, subst, shared=None):
    """subst extended by `_bind` over the parameter/argument pairs and the
    result pair of a call of a var-free arrow with empty binder and
    constraint lists, or None."""
    fn, args, result = call
    fn = shallow_walk(fn, subst)
    if fn.__class__ is not Compound or fn.tag != "TArrow" or not var_free(fn) or fn.args[0] != LNIL or fn.args[1] != LNIL:
        return None
    ps = fn.args[2]
    while ps.tag == "lcons" and args.__class__ is Compound and args.tag == "lcons":
        subst = _bind(env_top, ps.args[0], args.args[0], subst, shared)
        if subst is None:
            return None
        ps, args = ps.args[1], args.args[1]
    if ps != LNIL or args != LNIL:
        return None
    return _bind(env_top, fn.args[3], result, subst, shared)


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
