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
only where a second answer exists: at two free list spines. Two mu types
with one binder name compare their bodies; with different names both
unfold, as a mu against any other type unfolds. A stretch without a
stream step makes at most one unfolding and 64 tasks, so fuel bounds its
work.

Reified and parsed types are compared by `types_equal`, which runs no
engine: a walk over pairs of types that takes a pair met again under a
`mu` as equal, and so ends on its own.
"""

from __future__ import annotations

import re
from typing import Optional

from .engine import (
    Compound,
    FreeVar,
    Goal,
    PMap,
    Var,
    bind,
    mplus,
    rebuild_term,
    shallow_walk,
    var_free,
)
from .syntax import _WORD, MAX_NESTING

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
    it goes (one `engine.rebuild_term`, so what cannot change comes back
    as it is). Binders in TMu / TArrow shadow identically-named entries:
    a binder that shadows every mapped name keeps its body as it is, and
    one that shadows some is rewritten by a call with the other names, so
    the calls nest no deeper than the mapping is long."""

    def node(t):
        tag = t.tag
        if tag == "TName":
            return mapping.get(t.args[0], t)
        if tag == "TMu":
            shadowed = (shallow_walk(t.args[0], subst),)
        elif tag == "TArrow":
            bvars = _walk_list(t.args[0], subst)
            shadowed = {shallow_walk(b, subst) for b in bvars} if bvars is not None else ()
        else:
            return None
        inner = {k: v for k, v in mapping.items() if k not in shadowed}
        if not inner:
            return t
        return None if len(inner) == len(mapping) else apply_type_subst(inner, t, subst)

    return rebuild_term(term, subst, lambda x: x, node)[0]


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


def type_occurs_hook(vid: int, t, subst):
    """t, in which the variable vid occurs under subst, closed into a mu:
    deep-walked, vid replaced by the mu's name (see `engine._extend` and
    `engine.rebuild_term`, which builds only the compounds that change)."""
    name = t_name(f"r{vid}")
    body, built = rebuild_term(t, subst, lambda x: name if x.id == vid else x)
    return t_mu(name.args[0], body), built


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
            # Every binder is a name (`type_occurs_hook`, `parse_type`, and
            # `apply_type_subst` keeps it), so two different ones never unify.
            if a.tag == b.tag and shallow_walk(a.args[0], subst) == shallow_walk(b.args[0], subst):
                todo.append((_TYPE, a.args[1], b.args[1]))
                continue
            if unfolds == _UNFOLDS:
                todo.append((_TYPE, a, b))
                return lambda: _walk(state, todo)
            unfolds += 1
            todo.append((_TYPE, unfold_mu(a, subst) if a.tag == "TMu" else a, unfold_mu(b, subst) if b.tag == "TMu" else b))
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

    return mplus(None if nil is None else _walk(nil, list(todo)), cons, state.counters)


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
    return _render(_TY, ty, table, names or _NameGen())


def render_constraint(c, table: TagTable, names: Optional[_NameGen] = None) -> str:
    return _render(_CON, c, table, names or _NameGen())


# What a render task prints: a type, a type in parentheses when it is an
# arrow, a mu or a union of more than one member, a member of a union, a
# constraint, a pattern.
_TY, _ATOM, _MEMBER, _CON, _PAT = range(5)

# Render markers: the text printed from _HOLD to _KEEP is held back, and
# _PUT prints it.
_HOLD, _KEEP, _PUT = object(), object(), object()


def _render(kind, t, table, names) -> str:
    """The text of a render task. The tasks keep their own stack, so a
    deep term takes no Python stack; each task is expanded into its text
    or the pieces of it (`_pieces`), left to right, so variables are
    lettered in the order they are printed."""
    out, marks, held = [], [], []
    todo = [(kind, t)]
    while todo:
        x = todo.pop()
        if type(x) is tuple:
            x = _pieces(*x, table, names)
            if type(x) is list:
                todo.extend(reversed(x))
                continue
        if type(x) is str:
            out.append(x)
        elif x is _HOLD:
            marks.append(len(out))
        elif x is _KEEP:
            at = marks.pop()
            held.append("".join(out[at:]))
            del out[at:]
        else:
            out.append(held.pop())
    return "".join(out)


def _joined(kind, items, sep=", ") -> list:
    pieces = []
    for i, x in enumerate(items):
        pieces += (sep, (kind, x)) if i else ((kind, x),)
    return pieces


def _pieces(kind, t, table, names):
    """One render task as its text, or as a list of pieces in order: text,
    and the tasks of its parts."""
    if kind == _ATOM:
        if isinstance(t, Compound) and (t.tag in ("TArrow", "TMu") or (t.tag == "TSexp" and _union_size(t) > 1)):
            return ["(", (_TY, t), ")"]
        return _pieces(_TY, t, table, names)
    if kind == _MEMBER:
        # A constructor, or a variable standing for one (a free list
        # cell, or a constructor whose tag is still free).
        if not _is_ctor(t):
            return _pieces(_ATOM, t, table, names)
        tag = t.args[0]
        if not isinstance(tag, int):
            return _pieces(_ATOM, tag, table, names)
        label = table.label(tag) if 0 <= tag < table.sexp_max_length else "?"
        args = _items(t.args[1])
        return [f"{label}(", *_joined(_ATOM, args), ")"] if args else label
    if kind == _CON:
        return _constraint_pieces(t, table)
    if kind == _PAT:
        return _pattern_pieces(t, table)
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
        return ["[", (_TY, t.args[0]), "]"]
    if t.tag == "TSexp":
        entries, tail = _list_from_term(t.args[0])
        # An open union shows its tail variable; any other tail is not shown.
        return _joined(_MEMBER, entries + [tail] * (_var_id(tail) is not None), " | ")
    if t.tag == "TArrow":
        bvars, bcs, params = (_items(a) for a in t.args[:3])
        pieces = []
        if bvars:
            pieces.append("forall " + " ".join(names.get(("name", _binder_name(b))) for b in bvars) + ". ")
        if bcs:
            pieces += _joined(_CON, bcs, " & ") + [" => "]
        return pieces + ["(", *_joined(_ATOM, params), ") -> ", (_ATOM, t.args[3])]
    if t.tag == "TMu":
        return [f"mu {names.get(('name', _binder_name(t.args[0])))}. ", (_TY, t.args[1])]
    raise ValueError(f"not a type: {t!r}")


def _union_size(t: Compound) -> int:
    entries, tail = _list_from_term(t.args[0])
    return len(entries) + (_var_id(tail) is not None)


def _is_ctor(t) -> bool:
    return isinstance(t, Compound) and t.tag == "ctor"


def _constraint_pieces(c, table) -> list:
    if _var_id(c) is not None:
        # A constraint that is still a variable constrains nothing.
        return ["Eq(", (_TY, c), ", ", (_TY, c), ")"]
    tag = c.tag if isinstance(c, Compound) else None
    if tag in ("Ind", "Eq"):
        return [f"{tag}(", (_TY, c.args[0]), ", ", (_TY, c.args[1]), ")"]
    if tag == "Call":
        return ["Call(", (_TY, c.args[0]), "; ", *_joined(_TY, _items(c.args[1])), "; ", (_TY, c.args[2]), ")"]
    if tag == "SexpC":
        return [f"Sexp[{table.label(c.args[0])}](", (_TY, c.args[1]), "; ", *_joined(_TY, _items(c.args[2])), ")"]
    if tag == "Match":
        # The patterns are lettered before the subject, and printed after it.
        pats = _joined(_PAT, _items(c.args[1]))
        return ["Match(", _HOLD, *pats, _KEEP, (_TY, c.args[0]), "; ", _PUT, ")"]
    # Residuals print their open list as a union (a row) or as arguments,
    # an open tail after `|`.
    if tag == "Lacks":
        return [f"Lacks[{table.label(c.args[0])}](", (_TY, t_sexp(c.args[1])), ")"]
    if tag == "IndRow":
        return ["IndRow(", (_TY, t_sexp(c.args[0])), "; ", (_TY, c.args[1]), ")"]
    if tag == "IndArgs":
        items, tail = _list_from_term(c.args[0])
        pieces = _joined(_TY, items)
        if _var_id(tail) is not None:
            pieces += [" | " if items else "", (_TY, tail)]
        return ["IndArgs(", *pieces, "; ", (_TY, c.args[1]), ")"]
    raise ValueError(f"not a constraint: {c!r}")


def _pattern_pieces(p, table) -> list:
    tag = p.tag if isinstance(p, Compound) else None
    if tag == "PWild" or _var_id(p) is not None:
        return "_"
    if tag == "PAt":
        return [(_TY, p.args[0]), " @ ", (_PAT, p.args[1])]
    if tag == "PArray":
        return ["[", *_joined(_PAT, _items(p.args[0])), "]"]
    if tag == "PSexp":
        label = table.label(p.args[0])
        args = _items(p.args[1])
        return [f"{label}(", *_joined(_PAT, args), ")"] if args else label
    if tag == "PShape":
        return f"#{p.args[0]}"
    raise ValueError(f"not a pattern: {p!r}")


# ---------------------------------------------------------------------------
# Parsing rendered types back (used by the corpus harness).
# ---------------------------------------------------------------------------


class TypeParseError(ValueError):
    pass


# An error message quotes at most this many characters of the text.
_QUOTED = 60

# A token is `->`, `=>`, a word, or any other single non-space character.
_TOKEN = re.compile(r"->|=>|\w+|\S")


class _TypeParser:
    """Recursive descent over the tokens of a rendered type. Two forms are
    told apart by the token after a bracketed group, found through the
    group's matching bracket: a `(`...`)` group is an arrow's parameters
    when `->` follows it, and `Ind(`, `Eq(`, `Call(`, `Match(` and
    `Sexp[L](` start a constraint only when `&` or `=>` follows. A pattern
    is `t @ p` when an `@` comes before its end outside brackets. Nothing
    is parsed twice.
    """

    def __init__(self, text: str, table: TagTable):
        self.text = text
        self.table = table
        found = list(_TOKEN.finditer(text))
        self.toks = [m.group() for m in found] + [""]  # "" ends the input
        self.starts = [m.start() for m in found] + [len(text)]
        self.close: dict[int, int] = {}  # index of an open bracket -> its match
        opened = []
        for i, tok in enumerate(self.toks):
            if tok in ("(", "["):
                opened.append(i)
            elif tok in (")", "]") and opened:
                self.close[opened.pop()] = i
        self.pos = 0
        self.depth = 0
        self.bound: list[str] = []  # mu / forall binders in scope
        self.free: dict[str, FreeVar] = {}  # free variables, numbered in order

    def error(self, msg):
        at, text = self.starts[self.pos], self.text
        if len(text) > _QUOTED:  # a long text is quoted around the offset
            lo = max(0, min(at - _QUOTED // 2, len(text) - _QUOTED))
            hi = lo + _QUOTED
            text = ("..." if lo else "") + text[lo:hi] + ("..." if hi < len(text) else "")
        raise TypeParseError(f"{msg} at offset {at} in {text!r}")

    def after(self, i: int) -> Optional[str]:
        """The token after the group that the bracket at i opens."""
        j = self.close.get(i)
        return None if j is None else self.toks[j + 1]

    def eat(self, tok: str) -> bool:
        if self.toks[self.pos] == tok:
            self.pos += 1
            return True
        return False

    def expect(self, tok: str):
        if not self.eat(tok):
            self.error(f"expected {tok!r}")

    def word(self, what: str = "a name") -> str:
        tok = self.toks[self.pos]
        if not _WORD.match(tok):
            self.error(f"expected {what}")
        self.pos += 1
        return tok

    def parse(self):
        ty = self.type_()
        if self.pos != len(self.toks) - 1:
            self.error("trailing input")
        return ty

    def type_(self):
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.error(f"nesting deeper than {MAX_NESTING} levels")
        # Parentheses around a whole type are taken off in a loop, so an
        # arrow result, printed in parentheses, is one level, not two.
        groups = 0
        while self.toks[self.pos] == "(" and self.after(self.pos) not in ("->", "|"):
            self.pos += 1
            groups += 1
        if self.eat("mu"):
            binder = self.word("a binder after mu")
            self.expect(".")
            self.bound.append(binder)
            ty = t_mu(binder, self.type_())
            self.bound.pop()
        elif self.eat("forall"):
            bvars = []
            while not self.eat("."):
                bvars.append(self.word())
            self.bound.extend(bvars)
            ty = self.arrow(bvars)
            del self.bound[len(self.bound) - len(bvars) :]
        elif (self.toks[self.pos] == "(" and self.after(self.pos) == "->") or self.constraint_ahead():
            ty = self.arrow([])
        else:
            ty = self.union()
        for _ in range(groups):
            self.expect(")")
        self.depth -= 1
        return ty

    def constraint_ahead(self) -> bool:
        i = self.pos
        if self.toks[i] == "Sexp" and self.toks[i + 1] == "[":
            i = self.close.get(i + 1, i)
        elif self.toks[i] not in ("Ind", "Eq", "Call", "Match"):
            return False
        return self.toks[i + 1] == "(" and self.after(i + 1) in ("&", "=>")

    def arrow(self, bvars) -> Compound:
        constraints = []
        if self.constraint_ahead():
            constraints.append(self.constraint())
            while self.eat("&"):
                constraints.append(self.constraint())
            self.expect("=>")
        self.expect("(")
        params = self.until(")", self.type_)
        self.expect("->")
        return t_arrow(llist(bvars), llist(constraints), llist(params), self.type_())

    def until(self, end: str, item) -> list:
        """Comma-separated items, each read by item(), up to and including
        the token end."""
        items = []
        if not self.eat(end):
            items.append(item())
            while not self.eat(end):
                self.expect(",")
                items.append(item())
        return items

    def constraint(self):
        if self.toks[self.pos] not in ("Ind", "Eq", "Call", "Match", "Sexp"):
            self.error("expected a constraint")
        word = self.word()
        if word in ("Ind", "Eq"):
            self.expect("(")
            a = self.type_()
            self.expect(",")
            b = self.type_()
            self.expect(")")
            return Compound(word, (a, b))
        if word == "Call":
            self.expect("(")
            fn = self.type_()
            self.expect(";")
            args = self.until(";", self.type_)
            res = self.type_()
            self.expect(")")
            return c_call(fn, llist(args), res)
        if word == "Match":
            self.expect("(")
            subj = self.type_()
            self.expect(";")
            return c_match(subj, llist(self.until(")", self.pattern)))
        self.expect("[")
        label = self.word()
        self.expect("]")
        self.expect("(")
        subj = self.type_()
        self.expect(";")
        args = self.until(")", self.type_)
        return c_sexp(self.table.intern(label, len(args)), subj, llist(args))

    def pattern(self):
        """`_`, `#shape`, `Label`, `Label(p, ...)`, `[p, ...]` or `t @ p`."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.error(f"nesting deeper than {MAX_NESTING} levels")
        i = self.pos
        while self.toks[i] not in (",", ")", "]", "@", ""):
            i = self.close.get(i, i) + 1
        if self.toks[i] == "@":
            ty = self.type_()
            self.expect("@")
            pat = p_at(ty, self.pattern())
        elif self.eat("#"):
            pat = p_shape(self.word("a shape"))
        elif self.eat("["):
            pat = p_array(llist(self.until("]", self.pattern)))
        elif self.eat("_"):
            pat = P_WILD
        elif self.toks[self.pos][:1].isupper():
            label = self.word("a pattern")
            args = self.until(")", self.pattern) if self.eat("(") else []
            pat = p_sexp(self.table.intern(label, len(args)), llist(args))
        else:
            self.error("expected a pattern")
        self.depth -= 1
        return pat

    def union(self):
        members = [self.member()]
        while self.eat("|"):
            members.append(self.member())
        if len(members) == 1 and not _is_ctor(members[0]):
            return members[0]
        ctors = [m for m in members if _is_ctor(m)]
        rest = [m for m in members if not _is_ctor(m)]
        if len(rest) > 1 or not all(isinstance(m, FreeVar) for m in rest):
            self.error("bad union member")
        return t_sexp(llist(ctors, rest[0] if rest else LNIL))

    def member(self):
        """A type, or a constructor entry of a union."""
        if self.eat("["):
            elem = self.type_()
            self.expect("]")
            return t_array(elem)
        if self.eat("("):
            ty = self.type_()
            self.expect(")")
            return ty
        word = self.word("a type")
        if word == "Int":
            return T_INT
        if word == "Str":
            return T_STR
        if word[0].isupper():
            args = self.until(")", self.type_) if self.eat("(") else []
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
# Equality of reified or parsed types.
# ---------------------------------------------------------------------------


def types_equal(a, b) -> bool:
    """Equality of two types modulo mu-unfolding, the names of binders,
    and a one-to-one renaming of free variables. One walk over pairs of
    terms: a pair met again under a mu counts as equal (a bisimulation,
    Amadio-Cardelli 1993; Brandt-Henglein 1998), and the terms reachable
    by unfolding are finitely many, so the walk ends without fuel."""
    todo = [(a, b)]
    seen = set()  # pairs with a mu on one side
    renamed = {}  # a pair of arrows -> the pairs of their renamed parts
    left, right = {}, {}  # free variables paired: left -> right, right -> left
    while todo:
        x, y = todo.pop()
        if _is_mu(x) or _is_mu(y):
            if (x, y) in seen:
                continue
            seen.add((x, y))
            x, y = _head(x), _head(y)
            if x is None or y is None:
                if x is not y:
                    return False
                continue
        x_var, y_var = isinstance(x, (Var, FreeVar)), isinstance(y, (Var, FreeVar))
        if x_var or y_var:
            if not (x_var and y_var) or left.setdefault(x, y) != y or right.setdefault(y, x) != x:
                return False
        elif not isinstance(x, Compound) or not isinstance(y, Compound):
            if x != y:  # constructor ids, names, shape kinds
                return False
        elif x.tag != y.tag or len(x.args) != len(y.args):
            return False
        elif x.tag == "TArrow":
            if (x, y) not in renamed:
                renamed[(x, y)] = _arrow_parts(x, y, len(renamed))
            if renamed[(x, y)] is None:
                return False
            todo.extend(renamed[(x, y)])
        else:
            todo.extend(zip(x.args, y.args))
    return True


# Reified and parsed types hold no live variable to look up.
_NO_SUBST = PMap()


def _is_mu(t) -> bool:
    return isinstance(t, Compound) and t.tag == "TMu"


def _head(t):
    """t with the mus on top of it unfolded; None for a mu that only ever
    unfolds to a mu (`mu a. a`, `mu a. mu b. a`)."""
    met = set()
    while _is_mu(t):
        if t in met:
            return None
        met.add(t)
        t = unfold_mu(t, _NO_SUBST)
    return t


def _arrow_parts(x, y, n: int) -> Optional[list]:
    """The pairs of parts (constraints, parameters, result) of two arrows,
    with the binders of each renamed position by position to shared
    names; None if their binder lists differ in length. The arrows' n-th
    renaming names binder i `(n, i)`, a name no type contains (its names
    are strings), so no free name is captured."""
    xs, ys = _items(x.args[0]), _items(y.args[0])
    if len(xs) != len(ys):
        return None
    new = [t_name((n, i)) for i in range(len(xs))]
    parts = (apply_type_subst(dict(zip(ns, new)), t_arrow(LNIL, *t.args[1:]), _NO_SUBST).args[1:] for t, ns in ((x, xs), (y, ys)))
    return list(zip(*parts))
