"""The type language as engine terms.

Types cover integers, strings, homogeneous arrays, S-expression unions,
quantified arrows carrying a constraint list, and equirecursive mu-types.
Types, constraints and patterns are engine `Compound`s and nothing else,
from the generator through the solver to the report. This module houses
their constructors, tag interning, mu-unfolding, type equality, and the
rendering / parsing of types.

Type equality (`eq_t`) is one iterative walk over both types, with a
stack of tasks: pairs of types, type lists, rows, constructor cells,
constraint lists, constraints, pattern lists and patterns. It binds
through the engine's unification (`engine.bind`), registering the type
occurs hook on a variable right before binding it, and builds a stream
only where a second answer exists: at two free list spines, and at two mu
types whose binders are not one ground name. A stretch without a stream
step makes at most one unfolding and 64 tasks, so fuel bounds its work.
"""

from __future__ import annotations

from typing import Optional

from .engine import (
    Compound,
    FreeVar,
    Goal,
    Var,
    bind,
    conj,
    disunify,
    mplus,
    rebuild_term,
    run,
    shallow_walk,
    unify,
    var_free,
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


# Residuals the solver leaves on open rows and argument lists.


def c_lacks(tag, row, n):
    """No cell of row (at position n of its whole row) carries tag."""
    return Compound("Lacks", (tag, row, n))


def c_ind_row(row, elem):
    """Every argument of every cell of row equals elem."""
    return Compound("IndRow", (row, elem))


def c_ind_args(args, elem):
    """Every item of a cell's argument list equals elem."""
    return Compound("IndArgs", (args, elem))


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

    @property
    def sexp_max_length(self) -> int:
        return len(self._info)


# ---------------------------------------------------------------------------
# Mu-unfolding and type substitution.
# ---------------------------------------------------------------------------


def apply_type_subst(mapping: dict, term, subst):
    """Capture-avoiding replacement of TName occurrences, deep-walking as
    it goes. Binders in TMu / TArrow shadow identically-named entries.
    A compound is rewritten once per set of names in scope, however many
    paths lead to it (through the substitution, or as a `mu` type that
    unfolding referenced more than once).
    """
    memos = {}  # names in scope -> {id of a compound: its rewrite}

    def under(mapping, shadowed):
        inner = {k: v for k, v in mapping.items() if k not in shadowed}
        return inner, memos.setdefault(frozenset(inner), {})

    def go(term, mapping, memo):
        t = shallow_walk(term, subst)
        if not isinstance(t, Compound):
            return t
        out = memo.get(id(t))
        if out is not None:
            return out
        if t.tag == "TName":
            out = mapping.get(t.args[0], t)
        elif t.tag == "TMu":
            binder = shallow_walk(t.args[0], subst)
            inner, inner_memo = under(mapping, (binder,))
            out = t_mu(binder, go(t.args[1], inner, inner_memo)) if inner else t
        elif t.tag == "TArrow":
            bvars = _walk_list(t.args[0], subst)
            shadowed = {shallow_walk(b, subst) for b in bvars} if bvars is not None else ()
            inner, inner_memo = under(mapping, shadowed)
            if inner:
                args = tuple(go(a, inner, inner_memo) for a in t.args[1:])
                out = Compound(t.tag, (t.args[0],) + args)
            else:
                out = t
        elif t.tag == "lcons":  # a list spine, walked in a loop
            heads = []
            cell = t
            while isinstance(cell, Compound) and cell.tag == "lcons":
                heads.append(go(cell.args[0], mapping, memo))
                cell = shallow_walk(cell.args[1], subst)
            out = llist(heads, go(cell, mapping, memo))
        else:
            out = Compound(t.tag, tuple(go(a, mapping, memo) for a in t.args))
        memo[id(t)] = out
        return out

    return go(term, mapping, memos.setdefault(frozenset(mapping), {}))


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


# ---------------------------------------------------------------------------
# Occurs hooks for types.
# ---------------------------------------------------------------------------


def type_occurs_hook(vid: int, reified):
    """Replace the offending variable with a type name and wrap in a mu.
    A compound shared in the reified term is converted once."""
    name = f"r{vid}"

    def back(t):
        if isinstance(t, FreeVar):
            return t_name(name) if t.var_id == vid else Var(t.var_id)
        return t

    return t_mu(name, rebuild_term(reified, None, back))


# ---------------------------------------------------------------------------
# Equality of types modulo mu-unfolding: one walk.
# ---------------------------------------------------------------------------

# Task kinds: pairs of types, type lists, rows, constructor cells,
# constraint lists, constraints, pattern lists, patterns, and of terms
# that must unify as they are (tags, binder lists).
_TYPE, _TYPES, _ROW, _CELL, _CONSTRS, _CONSTR, _PATS, _PAT, _TERM = range(9)

# The kinds of the argument pairs two compounds of one tag split into; a
# tag missing here unifies as it is.
_PARTS = {
    _TYPE: {"TInt": (), "TStr": (), "TArray": (_TYPE,), "TSexp": (_ROW,), "TArrow": (_TERM, _CONSTRS, _TYPES, _TYPE)},
    _CELL: {"ctor": (_TERM, _TYPES)},
    _CONSTR: {"Ind": (_TYPE, _TYPE), "Eq": (_TYPE, _TYPE), "Call": (_TYPE, _TYPES, _TYPE),
              "SexpC": (_TERM, _TYPE, _TYPES), "Match": (_TYPE, _PATS)},
    _PAT: {"PAt": (_TYPE, _PAT), "PArray": (_PATS,), "PSexp": (_TERM, _PATS)},
}
for _list, _item in ((_TYPES, _TYPE), (_ROW, _CELL), (_CONSTRS, _CONSTR), (_PATS, _PAT)):
    _PARTS[_list] = {"lcons": (_item, _list), "lnil": ()}

# Kinds whose free side against a bound one gets a copy of its top cell,
# and those where two free sides, even one variable, have more than one
# answer: a list's lengths, a cell's argument lists.
_COPIED = frozenset((_TYPES, _ROW, _CELL, _CONSTRS, _PATS))
_FORKS = frozenset((_TYPES, _CELL, _CONSTRS, _PATS))

# A stretch of the walk makes at most this many unfoldings and tasks
# before it takes a stream step, so fuel bounds the work of a comparison,
# even one that unfolds forever (`mu a. a`, or two regular types out of
# phase) or lengthens a list that leads back to itself.
_UNFOLDS, _TASKS = 1, 64


def eq_t(t, u) -> Goal:
    """Syntactic equality of types w.r.t. recursive type unfolding."""
    return lambda state: _walk(state, [(_TYPE, t, u)])


def eq_ts(ts, us) -> Goal:
    """eq_t mapped over equal-length type lists."""
    return lambda state: _walk(state, [(_TYPES, ts, us)])


def _walk(state, todo):
    """The answers of the equality tasks (kind, x, y) on the stack todo,
    run last first, from state: a stream (see the module docstring). A
    free list or cell gets a ground side by one binding, and any other
    bound side's top cell (two fresh variables) at a time; one the other
    side's spine leads back to grows one cell per stream step."""
    unfolds = tasks = 0
    while todo:
        tasks += 1
        if tasks > _TASKS:
            return lambda: _walk(state, todo)
        kind, x, y = todo.pop()
        subst = state.subst
        a = shallow_walk(x, subst)
        b = shallow_walk(y, subst)
        a_var = isinstance(a, Var)
        if a_var or isinstance(b, Var):
            if a is b and kind not in _FORKS:
                continue
            v, w = (a, b) if a_var else (b, a)
            w_var = isinstance(w, Var)
            if w_var and kind in _FORKS:
                if kind != _CELL:
                    return _list_fork(state, kind, a, b, todo)
                state = _fresh_cell(state, a, "ctor")
                todo.append((kind, a, b))
            elif kind == _TYPE and not w_var:
                hooks = dict(state.hooks)
                hooks[v.id] = type_occurs_hook
                state = bind(state, v, w, hooks)
            elif w_var or kind not in _COPIED or var_free(w) or not _PARTS[kind].get(w.tag):
                state = bind(state, v, w)
            else:
                end = w  # the term that ends the other side's spine
                while isinstance(end, Compound) and end.tag == "lcons":
                    end = shallow_walk(end.args[1], subst)
                state = _fresh_cell(state, v, w.tag)
                todo.append((kind, a, b))
                if end is v and state is not None:  # one cell per stream step
                    return lambda: _walk(state, todo)
        elif var_free(a) and var_free(b) and (a is b or a == b):
            continue
        elif kind == _TERM:
            state = bind(state, a, b)
        elif kind == _TYPE and "TMu" in (a.tag, b.tag):
            if a.tag == b.tag:
                x1 = shallow_walk(a.args[0], subst)
                if x1 != shallow_walk(b.args[0], subst) or isinstance(x1, Var):
                    return _mu_fork(state, a, b, todo)
                todo.append((_TYPE, a.args[1], b.args[1]))
                continue
            if unfolds == _UNFOLDS:
                todo.append((_TYPE, a, b))
                return lambda: _walk(state, todo)
            unfolds += 1
            todo.append((_TYPE, unfold_mu(a, subst), b) if a.tag == "TMu" else (_TYPE, a, unfold_mu(b, subst)))
            continue
        elif a.tag != b.tag:
            return None
        elif kind == _TYPE and a.tag == "TArrow" and (renamed := _renamed(state, a, b)):
            state, a, b = renamed
            todo.append((_TYPE, a, b))
            continue
        else:
            parts = _PARTS[kind].get(a.tag)
            if parts is None:
                state = bind(state, a, b)
            else:
                for i in range(len(parts) - 1, -1, -1):
                    todo.append((parts[i], a.args[i], b.args[i]))
                continue
        if state is None:
            return None
    return (state, None)


def _fresh_cell(state, v, tag):
    """state with v bound to a new two-argument cell of tag."""
    vs, st = state.fresh_vars(2)
    return bind(st, v, Compound(tag, tuple(vs)))


def _list_fork(state, kind, a, b, todo):
    """Two free spines: both nil, then (delayed) a cell for a, which b
    then meets as a free side against a bound one."""
    nil = bind(state, a, LNIL)
    if nil is not None:
        nil = bind(nil, b, LNIL)

    def cons():
        st = _fresh_cell(state, a, "lcons")
        return None if st is None else _walk(st, todo + [(kind, a, b)])

    return mplus(None if nil is None else _walk(nil, list(todo)), cons)


def _mu_fork(state, a, b, todo):
    """A mu against a mu whose binders are not one ground name: the
    binders unify and the bodies meet, or they differ and both sides
    unfold (contractivity keeps ground comparisons productive)."""
    same = bind(state, a.args[0], b.args[0])
    other = disunify(a.args[0], b.args[0])(state)
    unfolded = (_TYPE, unfold_mu(a, state.subst), unfold_mu(b, state.subst)) if other else None
    return mplus(
        same and (lambda: _walk(same, todo + [(_TYPE, a.args[1], b.args[1])])),
        other and (lambda: _walk(other[0], todo + [unfolded])),
    )


def _renamed(state, a, b):
    """Two arrows whose ground binder lists of one length differ, renamed
    position by position to the same new names `%<fresh engine id>`, which
    no parsed or generated type contains, so no free name is captured:
    (the state past those ids, the renamed arrows). None for other
    arrows, whose binder lists must unify."""
    xs, ys = (_ground_names(t.args[0], state.subst) for t in (a, b))
    if xs is None or ys is None or xs == ys or len(xs) != len(ys):
        return None
    fresh, st = state.fresh_vars(len(xs))
    new = [t_name(f"%{v.id}") for v in fresh]
    renamed = (apply_type_subst(dict(zip(ns, new)), t_arrow(LNIL, *t.args[1:]), st.subst) for t, ns in ((a, xs), (b, ys)))
    return (st, *renamed)


def _ground_names(lst, subst) -> Optional[list]:
    """The names of a binder list; None unless the spine and every name
    are ground."""
    items = _walk_list(lst, subst)
    if items is None:
        return None
    names = [shallow_walk(x, subst) for x in items]
    return names if all(isinstance(n, str) for n in names) else None


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
    if tag in ("Ind", "Eq"):
        return f"{tag}({r(c.args[0])}, {r(c.args[1])})"
    if tag == "Call":
        return f"Call({r(c.args[0])}; {rs(c.args[1])}; {r(c.args[2])})"
    if tag == "SexpC":
        return f"Sexp[{table.label(c.args[0])}]({r(c.args[1])}; {rs(c.args[2])})"
    if tag == "Match":
        pats = ", ".join(render_pattern(p, table, names) for p in _items(c.args[1]))
        return f"Match({r(c.args[0])}; {pats})"
    # Residuals print their open list as a union (a row) or as arguments,
    # an open tail after `|`.
    if tag == "Lacks":
        return f"Lacks[{table.label(c.args[0])}]({r(t_sexp(c.args[1]))})"
    if tag == "IndRow":
        return f"IndRow({r(t_sexp(c.args[0]))}; {r(c.args[1])})"
    if tag == "IndArgs":
        items, tail = _list_from_term(c.args[0])
        parts = [", ".join(r(x) for x in items)] if items else []
        if _var_id(tail) is not None:
            parts.append(r(tail))
        return f"IndArgs({' | '.join(parts)}; {r(c.args[1])})"
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
        if word in ("Ind", "Eq") and self.eat("("):
            a = self.type_()
            self.expect(",")
            b = self.type_()
            self.expect(")")
            return Compound(word, (a, b))
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
