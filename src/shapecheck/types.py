"""The type language as engine terms.

Types cover integers, strings, homogeneous arrays, S-expression unions,
quantified arrows carrying a constraint list, and equirecursive mu-types.
Types, constraints and patterns are engine `Compound`s and nothing else,
from the generator through the solver to the report. This module houses
their constructors, tag interning, mu-unfolding, the hook-aware equality
relations, and the rendering / parsing of types.
"""

from __future__ import annotations

from typing import Optional

from .engine import (
    Compound,
    FreeVar,
    Goal,
    Var,
    bind_occurs_hook,
    conj,
    delay,
    disj,
    disunify,
    fresh_many,
    run,
    shallow_walk,
    succeed,
    unify,
)

# ---------------------------------------------------------------------------
# Engine-term constructors.
# ---------------------------------------------------------------------------

T_INT = Compound("TInt", ())
T_STR = Compound("TStr", ())
LNIL = Compound("lnil", ())


def lcons(h, t):
    return Compound("lcons", (h, t))


def llist(items, tail=LNIL):
    out = tail
    for x in reversed(items):
        out = lcons(x, out)
    return out


def t_name(sym: str):
    return Compound("TName", (sym,))


def t_array(elem):
    return Compound("TArray", (elem,))


def t_ctor(tag, args):
    return Compound("ctor", (tag, args))


def t_sexp(ctors):
    return Compound("TSexp", (ctors,))


def t_arrow(bvars, bconstr, params, result):
    return Compound("TArrow", (bvars, bconstr, params, result))


def t_mu(binder, body):
    return Compound("TMu", (binder, body))


# Constraint terms.


def c_ind(container, elem):
    return Compound("Ind", (container, elem))


def c_call(fn, args, result):
    return Compound("Call", (fn, args, result))


def c_sexp(tag, subject, args):
    return Compound("SexpC", (tag, subject, args))


def c_match(subject, pats):
    return Compound("Match", (subject, pats))


def c_eq(a, b):
    return Compound("Eq", (a, b))


# Type-pattern terms.

P_WILD = Compound("PWild", ())


def p_at(ty, pat):
    return Compound("PAt", (ty, pat))


def p_array(pats):
    return Compound("PArray", (pats,))


def p_sexp(tag, pats):
    return Compound("PSexp", (tag, pats))


def p_shape(kind: str):
    return Compound("PShape", (kind,))


# ---------------------------------------------------------------------------
# Tag interning.
# ---------------------------------------------------------------------------


class TagTable:
    """Bijection between (label, arity) pairs and numeric tag ids.

    Also tracks the total number of distinct constructors (the bound on
    generated constructor-list lengths).
    """

    def __init__(self):
        self._ids: dict[tuple[str, int], int] = {}
        self._info: list[tuple[str, int]] = []

    def intern(self, label: str, arity: int) -> int:
        key = (label, arity)
        tid = self._ids.get(key)
        if tid is None:
            tid = len(self._info)
            self._ids[key] = tid
            self._info.append(key)
        return tid

    def label(self, tid: int) -> str:
        return self._info[tid][0]

    def arity(self, tid: int) -> int:
        return self._info[tid][1]

    def all_ids(self) -> list[int]:
        return list(range(len(self._info)))

    @property
    def sexp_max_length(self) -> int:
        return len(self._info)


# ---------------------------------------------------------------------------
# Mu-unfolding and type substitution.
# ---------------------------------------------------------------------------


def apply_type_subst(mapping: dict, term, subst):
    """Capture-avoiding replacement of TName occurrences, deep-walking as
    it goes. Binders in TMu / TArrow shadow identically-named entries.
    """
    t = shallow_walk(term, subst)
    if not isinstance(t, Compound):
        return t
    if t.tag == "TName":
        return mapping.get(t.args[0], t)
    if t.tag == "TMu":
        binder = shallow_walk(t.args[0], subst)
        inner = {k: v for k, v in mapping.items() if k != binder}
        if not inner:
            return t
        return t_mu(binder, apply_type_subst(inner, t.args[1], subst))
    if t.tag == "TArrow":
        bvars = _walk_list(t.args[0], subst)
        if bvars is not None:
            shadowed = {shallow_walk(b, subst) for b in bvars}
            inner = {k: v for k, v in mapping.items() if k not in shadowed}
        else:
            inner = mapping
        if not inner:
            return t
        args = tuple(apply_type_subst(inner, a, subst) for a in t.args)
        return Compound(t.tag, (t.args[0],) + args[1:])
    if t.tag == "lcons":  # a list spine, walked in a loop
        heads = []
        while isinstance(t, Compound) and t.tag == "lcons":
            heads.append(apply_type_subst(mapping, t.args[0], subst))
            t = shallow_walk(t.args[1], subst)
        return llist(heads, apply_type_subst(mapping, t, subst))
    return Compound(t.tag, tuple(apply_type_subst(mapping, a, subst) for a in t.args))


def _walk_list(term, subst) -> Optional[list]:
    """Deep-walk an engine list spine; None if the spine is not ground."""
    out = []
    t = shallow_walk(term, subst)
    while isinstance(t, Compound) and t.tag == "lcons":
        out.append(t.args[0])
        t = shallow_walk(t.args[1], subst)
    if isinstance(t, Compound) and t.tag == "lnil":
        return out
    return None


def unfold_mu(t: Compound, subst):
    """One unfolding step: mu x. s  |->  s[x -> mu x. s]."""
    binder = shallow_walk(t.args[0], subst)
    return apply_type_subst({binder: t}, t.args[1], subst)


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


# ---------------------------------------------------------------------------
# Occurs hooks for types.
# ---------------------------------------------------------------------------


def type_occurs_hook(vid: int, reified):
    """Replace the offending variable with a type name and wrap in a mu."""
    name = f"r{vid}"

    def back(t):
        if isinstance(t, FreeVar):
            if t.var_id == vid:
                return t_name(name)
            return Var(t.var_id)
        if isinstance(t, Compound):
            return map_args(t, back)
        return t

    return t_mu(name, back(reified))


def set_type_hook(t) -> Goal:
    return bind_occurs_hook(t, type_occurs_hook)


# ---------------------------------------------------------------------------
# Equality of types modulo mu-unfolding.
# ---------------------------------------------------------------------------


def eq_t(t, u) -> Goal:
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
            same = conj(unify(a.args[0], b.args[0]), delay(lambda: eq_t(a.args[1], b.args[1])))
            if x1 == x2 and not isinstance(x1, Var):
                return same(state)
            # Differing binders: both sides unfold (contractivity keeps
            # ground comparisons productive).
            both = delay(lambda: eq_t(unfold_mu(a, state.subst), unfold_mu(b, state.subst)))
            return disj(same, conj(disunify(a.args[0], b.args[0]), both))(state)
        if a_mu:
            return delay(lambda: eq_t(unfold_mu(a, state.subst), b))(state)
        if b_mu:
            return delay(lambda: eq_t(a, unfold_mu(b, state.subst)))(state)
        return _eq_structural(a, b)(state)

    return goal


def _eq_structural(a: Compound, b: Compound) -> Goal:
    if a.tag != b.tag:
        return lambda state: None
    if a.tag in ("TInt", "TStr"):
        return succeed
    if a.tag == "TArray":
        return eq_t(a.args[0], b.args[0])
    if a.tag == "TSexp":
        return _eq_list(a.args[0], b.args[0], _eq_ctor)
    if a.tag == "TArrow":
        return _eq_arrow(a, b)
    return unify(a, b)


def _eq_arrow(a: Compound, b: Compound) -> Goal:
    """Arrows are equal up to the names of their binders. Ground binder
    lists of one length that differ are renamed, position by position, to
    the same new names `%<fresh engine id>`, which no parsed or generated
    type contains, so no free name is captured. Other lists must unify."""

    def goal(state):
        xs = _ground_names(a.args[0], state.subst)
        ys = _ground_names(b.args[0], state.subst)
        if xs is None or ys is None or xs == ys or len(xs) != len(ys):
            return conj(
                unify(a.args[0], b.args[0]),
                _eq_list(a.args[1], b.args[1], eq_constraint),
                eq_ts(a.args[2], b.args[2]),
                eq_t(a.args[3], b.args[3]),
            )(state)

        def renamed(fresh):
            new = [t_name(f"%{v.id}") for v in fresh]
            ra, rb = (
                apply_type_subst(dict(zip(names, new)), t_arrow(LNIL, *t.args[1:]), state.subst)
                for t, names in ((a, xs), (b, ys))
            )
            return _eq_arrow(ra, rb)

        return fresh_many(len(xs), renamed)(state)

    return goal


def _ground_names(lst, subst) -> Optional[list]:
    """The names of a binder list; None unless the spine and every name
    are ground."""
    items = _walk_list(lst, subst)
    if items is None:
        return None
    names = [shallow_walk(x, subst) for x in items]
    return names if all(isinstance(n, str) for n in names) else None


def _eq_list(xs, ys, elem_eq) -> Goal:
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
        return disj(conj(unify(a, LNIL), unify(b, LNIL)), delay(lambda: step(a, b)))(state)

    def step(a, b):
        def cells(hx, tx, hy, ty):
            return conj(
                unify(a, lcons(hx, tx)),
                unify(b, lcons(hy, ty)),
                elem_eq(hx, hy),
                _eq_list(tx, ty, elem_eq),
            )

        return fresh_many(4, lambda vs: cells(*vs))

    return goal


def _eq_ctor(c, d) -> Goal:
    def entries(xt, xa, yt, ya):
        return conj(
            unify(c, t_ctor(xt, xa)),
            unify(d, t_ctor(yt, ya)),
            unify(xt, yt),
            eq_ts(xa, ya),
        )

    return fresh_many(4, lambda vs: entries(*vs))


def eq_ts(ts, us) -> Goal:
    """eq_t mapped over equal-length type lists."""
    return _eq_list(ts, us, eq_t)


def eq_constraint(c, d) -> Goal:
    def goal(state):
        a = shallow_walk(c, state.subst)
        b = shallow_walk(d, state.subst)
        if isinstance(a, Var) or isinstance(b, Var):
            return unify(a, b)(state)
        if a.tag != b.tag:
            return None
        if a.tag in ("Ind", "Eq"):
            return conj(eq_t(a.args[0], b.args[0]), eq_t(a.args[1], b.args[1]))(state)
        if a.tag == "Call":
            return conj(
                eq_t(a.args[0], b.args[0]),
                eq_ts(a.args[1], b.args[1]),
                eq_t(a.args[2], b.args[2]),
            )(state)
        if a.tag == "SexpC":
            return conj(
                unify(a.args[0], b.args[0]),
                eq_t(a.args[1], b.args[1]),
                eq_ts(a.args[2], b.args[2]),
            )(state)
        if a.tag == "Match":
            return conj(eq_t(a.args[0], b.args[0]), _eq_list(a.args[1], b.args[1], eq_pattern))(state)
        return unify(a, b)(state)

    return goal


def eq_pattern(p, q) -> Goal:
    def goal(state):
        a = shallow_walk(p, state.subst)
        b = shallow_walk(q, state.subst)
        if isinstance(a, Var) or isinstance(b, Var):
            return unify(a, b)(state)
        if a.tag != b.tag:
            return None
        if a.tag == "PAt":
            return conj(eq_t(a.args[0], b.args[0]), eq_pattern(a.args[1], b.args[1]))(state)
        if a.tag == "PArray":
            return _eq_list(a.args[0], b.args[0], eq_pattern)(state)
        if a.tag == "PSexp":
            return conj(unify(a.args[0], b.args[0]), _eq_list(a.args[1], b.args[1], eq_pattern))(state)
        return unify(a, b)(state)

    return goal


# ---------------------------------------------------------------------------
# Reading reified terms.
# ---------------------------------------------------------------------------

_TYPE_TAGS = frozenset(("TInt", "TStr", "TName", "TArray", "TSexp", "TArrow", "TMu"))


def ty_from_term(t):
    """A reified type, checked: a variable or a type constructor at the
    top. The term itself is the type; nothing is converted."""
    if isinstance(t, (Var, FreeVar)) or (isinstance(t, Compound) and t.tag in _TYPE_TAGS):
        return t
    raise ValueError(f"not a reified type: {t!r}")


def _list_from_term(t):
    """The items of an engine list and the term ending its spine: LNIL
    for a proper list, a variable or another term for an open one."""
    out = []
    while isinstance(t, Compound) and t.tag == "lcons":
        out.append(t.args[0])
        t = t.args[1]
    return out, t


def _items(t) -> list:
    return _list_from_term(t)[0]


def map_args(t: Compound, f) -> Compound:
    """t with f applied to each argument. A list spine is walked in a
    loop, so a long list (a large function's constraints) takes no stack."""
    if t.tag != "lcons":
        return Compound(t.tag, tuple(f(a) for a in t.args))
    items, tail = _list_from_term(t)
    return llist([f(x) for x in items], f(tail))


def _var_id(t) -> Optional[int]:
    """The engine id of a variable, live or reified; None for any other term."""
    if isinstance(t, Var):
        return t.id
    if isinstance(t, FreeVar):
        return t.var_id
    return None


def _binder_name(b) -> str:
    """A mu or arrow binder is a name; one still free prints as the name
    `v<id>`."""
    return b if isinstance(b, str) else f"v{_var_id(b)}"


# ---------------------------------------------------------------------------
# Rendering.
# ---------------------------------------------------------------------------


def _letter(i: int) -> str:
    base = "abcdefghijklmnopqrstuvwxyz"
    if i < 26:
        return base[i]
    return f"{base[i % 26]}{i // 26}"


class _NameGen:
    """Letters for variables and names, in first-request order. A key is
    ("var", engine id) or ("name", binder name)."""

    def __init__(self):
        self.names: dict[tuple, str] = {}

    def get(self, key: tuple) -> str:
        if key not in self.names:
            self.names[key] = _letter(len(self.names))
        return self.names[key]


def pretty_type(ty, table: TagTable, names: Optional[_NameGen] = None) -> str:
    """Deterministic rendering with variables lettered in
    first-occurrence order; re-parseable by parse_type. Pass a shared
    name generator to letter several types consistently."""
    return _render(ty, table, names or _NameGen())


def _union_size(t: Compound) -> int:
    entries, tail = _list_from_term(t.args[0])
    return len(entries) + (_var_id(tail) is not None)


def _atomish(t, table, names) -> str:
    s = _render(t, table, names)
    if isinstance(t, Compound) and (t.tag in ("TArrow", "TMu") or (t.tag == "TSexp" and _union_size(t) > 1)):
        return f"({s})"
    return s


def _is_ctor(t) -> bool:
    return isinstance(t, Compound) and t.tag == "ctor"


def _render_entry(e, table, names) -> str:
    """One member of a union: a constructor, or a variable standing for
    one (a free list cell, or a constructor whose tag is still free)."""
    if not _is_ctor(e):
        return _atomish(e, table, names)
    tag = e.args[0]
    if not isinstance(tag, int):
        return _atomish(tag, table, names)
    label = table.label(tag) if 0 <= tag < table.sexp_max_length else "?"
    args = _items(e.args[1])
    if args:
        return f"{label}({', '.join(_atomish(a, table, names) for a in args)})"
    return label


def _render(t, table, names) -> str:
    vid = _var_id(t)
    if vid is not None:
        return names.get(("var", vid))
    if not isinstance(t, Compound):
        raise ValueError(f"not a type: {t!r}")
    if t.tag == "TName":
        return names.get(("name", t.args[0]))
    if t.tag == "TInt":
        return "Int"
    if t.tag == "TStr":
        return "Str"
    if t.tag == "TArray":
        return f"[{_render(t.args[0], table, names)}]"
    if t.tag == "TSexp":
        entries, tail = _list_from_term(t.args[0])
        parts = [_render_entry(e, table, names) for e in entries]
        # An open union shows its tail variable; any other tail is not shown.
        if _var_id(tail) is not None:
            parts.append(_render(tail, table, names))
        return " | ".join(parts)
    if t.tag == "TArrow":
        bvars, bcs, params = (_items(a) for a in t.args[:3])
        quant = ""
        if bvars:
            quant = "forall " + " ".join(names.get(("name", _binder_name(b))) for b in bvars) + ". "
        constr = ""
        if bcs:
            constr = " & ".join(render_constraint(c, table, names) for c in bcs) + " => "
        ps = ", ".join(_atomish(p, table, names) for p in params)
        return f"{quant}{constr}({ps}) -> {_atomish(t.args[3], table, names)}"
    if t.tag == "TMu":
        return f"mu {names.get(('name', _binder_name(t.args[0])))}. {_render(t.args[1], table, names)}"
    raise ValueError(f"not a type: {t!r}")


def render_constraint(c, table: TagTable, names: Optional[_NameGen] = None) -> str:
    names = names or _NameGen()

    def r(t):
        return _render(t, table, names)

    def rs(ts):
        return ", ".join(r(x) for x in _items(ts))

    if _var_id(c) is not None:
        # A constraint that is still a variable constrains nothing.
        return f"Eq({r(c)}, {r(c)})"
    tag = c.tag if isinstance(c, Compound) else None
    if tag == "Ind":
        return f"Ind({r(c.args[0])}, {r(c.args[1])})"
    if tag == "Call":
        return f"Call({r(c.args[0])}; {rs(c.args[1])}; {r(c.args[2])})"
    if tag == "SexpC":
        return f"Sexp[{table.label(c.args[0])}]({r(c.args[1])}; {rs(c.args[2])})"
    if tag == "Match":
        pats = ", ".join(render_pattern(p, table, names) for p in _items(c.args[1]))
        return f"Match({r(c.args[0])}; {pats})"
    if tag == "Eq":
        return f"Eq({r(c.args[0])}, {r(c.args[1])})"
    raise ValueError(f"not a constraint: {c!r}")


def render_pattern(p, table: TagTable, names: Optional[_NameGen] = None) -> str:
    names = names or _NameGen()

    def rs(ps):
        return ", ".join(render_pattern(x, table, names) for x in _items(ps))

    tag = p.tag if isinstance(p, Compound) else None
    if tag == "PWild" or _var_id(p) is not None:
        return "_"
    if tag == "PAt":
        return f"{_render(p.args[0], table, names)} @ {render_pattern(p.args[1], table, names)}"
    if tag == "PArray":
        return f"[{rs(p.args[0])}]"
    if tag == "PSexp":
        label = table.label(p.args[0])
        return f"{label}({rs(p.args[1])})" if _items(p.args[1]) else label
    if tag == "PShape":
        return f"#{p.args[0]}"
    raise ValueError(f"not a pattern: {p!r}")


# ---------------------------------------------------------------------------
# Parsing rendered types back (used by the corpus harness).
# ---------------------------------------------------------------------------


class TypeParseError(ValueError):
    pass


class _TypeParser:
    def __init__(self, text: str, table: TagTable):
        self.text = text
        self.pos = 0
        self.table = table
        self.bound: list[str] = []  # mu / forall binders in scope
        self.free: dict[str, FreeVar] = {}  # free variables, numbered in order
        self.parsed: dict = {}  # (offset, binders in scope) -> (type, end offset)

    def error(self, msg):
        raise TypeParseError(f"{msg} at offset {self.pos} in {self.text!r}")

    def skip(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip()
        return self.text[self.pos:self.pos + 1]

    def eat(self, s: str) -> bool:
        self.skip()
        if self.text.startswith(s, self.pos):
            self.pos += len(s)
            return True
        return False

    def expect(self, s: str):
        if not self.eat(s):
            self.error(f"expected {s!r}")

    def ident(self) -> Optional[str]:
        self.skip()
        i = self.pos
        while i < len(self.text) and (self.text[i].isalnum() or self.text[i] == "_"):
            i += 1
        if i == self.pos:
            return None
        word = self.text[self.pos:i]
        self.pos = i
        return word

    def parse(self):
        ty = self.type_()
        self.skip()
        if self.pos != len(self.text):
            self.error("trailing input")
        return ty

    def type_(self):
        # `arrow` parses a parenthesized group before it can see whether
        # `->` follows, and `union` parses it again when none does;
        # remembering each parse keeps nested groups linear, not
        # exponential in their depth.
        key = (self.pos, tuple(self.bound))
        done = self.parsed.get(key)
        if done is None:
            done = self.parsed[key] = (self._type(), self.pos)
        ty, self.pos = done
        return ty

    def _type(self):
        save = self.pos
        word = self.ident()
        if word == "mu":
            binder = self.ident()
            if binder is None:
                self.error("expected a binder after mu")
            self.expect(".")
            self.bound.append(binder)
            try:
                return t_mu(binder, self.type_())
            finally:
                self.bound.pop()
        if word == "forall":
            bvars = []
            while True:
                b = self.ident()
                if b is None:
                    break
                bvars.append(b)
            self.expect(".")
            self.bound.extend(bvars)
            try:
                fn = self.arrow(bvars)
            finally:
                del self.bound[len(self.bound) - len(bvars) :]
            if fn is None:
                self.error("expected arrow after forall")
            return fn
        self.pos = save
        fn = self.arrow([])
        if fn is not None:
            return fn
        self.pos = save
        return self.union()

    def arrow(self, bvars) -> Optional[Compound]:
        save = self.pos
        constraints = []
        while True:
            mark = self.pos
            c = self.try_constraint()
            if c is None:
                self.pos = mark
                break
            constraints.append(c)
            if not self.eat("&"):
                break
        if constraints and not self.eat("=>"):
            self.pos = save
            constraints = []
        if not self.eat("("):
            self.pos = save
            return None
        params = []
        if not self.eat(")"):
            while True:
                params.append(self.type_())
                if self.eat(")"):
                    break
                self.expect(",")
        if not self.eat("->"):
            self.pos = save
            return None
        result = self.type_()
        return t_arrow(llist(bvars), llist(constraints), llist(params), result)

    def try_constraint(self):
        word = self.ident()
        if word == "Ind" and self.eat("("):
            a = self.type_()
            self.expect(",")
            b = self.type_()
            self.expect(")")
            return c_ind(a, b)
        if word == "Eq" and self.eat("("):
            a = self.type_()
            self.expect(",")
            b = self.type_()
            self.expect(")")
            return c_eq(a, b)
        if word == "Call" and self.eat("("):
            fn = self.type_()
            self.expect(";")
            args = []
            if self.peek() != ";":
                while True:
                    args.append(self.type_())
                    if self.peek() in (";", ""):
                        break
                    self.expect(",")
            self.expect(";")
            res = self.type_()
            self.expect(")")
            return c_call(fn, llist(args), res)
        if word == "Sexp" and self.eat("["):
            label = self.ident()
            self.expect("]")
            self.expect("(")
            subj = self.type_()
            self.expect(";")
            args = []
            if self.peek() != ")":
                while True:
                    args.append(self.type_())
                    if self.peek() == ")":
                        break
                    self.expect(",")
            self.expect(")")
            return c_sexp(self.table.intern(label, len(args)), subj, llist(args))
        return None

    def union(self):
        members = [self.member()]
        while self.eat("|"):
            members.append(self.member())
        if len(members) == 1 and not _is_ctor(members[0]):
            return members[0]
        ctors = []
        rest = LNIL
        for m in members:
            if _is_ctor(m):
                ctors.append(m)
            elif isinstance(m, FreeVar):
                rest = m
            else:
                self.error("bad union member")
        return t_sexp(llist(ctors, rest))

    def member(self):
        """A type, or a constructor entry of a union."""
        self.skip()
        if self.eat("["):
            elem = self.type_()
            self.expect("]")
            return t_array(elem)
        if self.eat("("):
            ty = self.type_()
            self.expect(")")
            return ty
        word = self.ident()
        if word is None:
            self.error("expected a type")
        if word == "Int":
            return T_INT
        if word == "Str":
            return T_STR
        if word[0].isupper():
            args = []
            if self.eat("("):
                while True:
                    args.append(self.type_())
                    if self.eat(")"):
                        break
                    self.expect(",")
            return t_ctor(self.table.intern(word, len(args)), llist(args))
        if word in self.bound:
            return t_name(word)
        if word not in self.free:
            self.free[word] = FreeVar(len(self.free), len(self.free))
        return self.free[word]


def parse_type(text: str, table: TagTable):
    """The type term a rendered type stands for; its free variables are
    reified ones, numbered in first-occurrence order."""
    return _TypeParser(text, table).parse()


# ---------------------------------------------------------------------------
# Canonicalization and equality of reified or parsed types.
# ---------------------------------------------------------------------------


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


class ComparisonExhausted(Exception):
    """types_equal ran out of fuel before it could decide."""


def types_equal(a, b, fuel: int = 200_000) -> bool:
    """eq_t over canonicalized (hence ground) types: syntactic equality
    modulo mu-unfolding, with binder names normalized away. Raises
    ComparisonExhausted when `fuel` engine steps do not decide it."""
    ta, tb = canonicalize(a), canonicalize(b)
    res = run(lambda q: conj(unify(q, 1), eq_t(ta, tb)), max_answers=1, fuel=fuel)
    if res.answers:
        return True
    if res.fuel_exhausted:
        raise ComparisonExhausted(f"type comparison undecided after {fuel} steps")
    return False
