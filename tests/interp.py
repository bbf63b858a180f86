"""A reference interpreter of mini-Lama, independent of the checker.

It runs a program parsed by `syntax.parse_program`, whose binder ids name
its variables, and imports nothing else from the checker. `run` raises
`ShapeError` at the first shape fault, which ends the run:
- indexing a value that is not an array, a string or an S-expression, or
  with an index that is not an integer, or storing a non-integer into a
  string;
- calling a value that is not a function, or with the wrong number of
  arguments;
- arithmetic or a comparison on a non-integer, a condition that is not an
  integer, or `write` of one;
- `.length` of an integer.

Whatever else stops a run is not a shape fault; `run` returns it as the
run's outcome:
- "no match": a `case` with no matching branch. This is a pattern-match
  failure, not a shape fault. The checker's `Match` constraint bounds the
  subject's type from below by each pattern's shape (a constructor
  pattern adds its constructor to the subject's row); it claims no branch
  matches, since nothing bounds a row from above. So `var x = A (1); var
  y = case x of B (z) -> z esac` is `Typed`, with `x : A(Int) | B(a)`,
  and its run ends in "no match".
- "unset": reading a variable declared without an initializer before
  anything is assigned to it.
- "out of range": indexing an empty container. Any other index out of
  range is taken modulo the length, since the checker does not track
  lengths and a run that goes on checks more shapes.
- "out of steps" and "too deep": the step and call-depth bounds.
- "done": the program ended.

A statement form (an assignment, a declaration, a loop, an `if` without
`else`) yields 0. Integers wrap at 64 bits; `/` and `%` truncate toward
zero, and by zero give 0. `read ()` gives 0 and `write` prints nothing.
A function is boxed, and its `.length` is 0.
"""

from __future__ import annotations

from shapecheck import syntax as S


class ShapeError(Exception):
    """A shape fault: a value of the wrong kind where the program needs
    an integer, a container or a function."""


class _Stop(Exception):
    """A run ended, by a fault that is not a shape fault or a bound."""

    def __init__(self, outcome: str):
        super().__init__(outcome)
        self.outcome = outcome


class Arr:
    __slots__ = ("items",)

    def __init__(self, items):
        self.items = items


class Str:
    __slots__ = ("items",)  # the string's bytes, as integers

    def __init__(self, text: str):
        self.items = list(text.encode("utf-8"))


class Sexp:
    __slots__ = ("label", "items")

    def __init__(self, label: str, items):
        self.label, self.items = label, items


class Fn:
    __slots__ = ("params", "body", "env", "builtin")

    def __init__(self, params, body, env, builtin=None):
        self.params, self.body, self.env, self.builtin = params, body, env, builtin


_UNSET = object()
_BITS = 1 << 64


def _wrap(n: int) -> int:
    n %= _BITS
    return n - _BITS if n >= _BITS >> 1 else n


def _div(a: int, b: int) -> int:
    if b == 0:
        return 0
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


_ARITH = {
    "+": lambda a, b: _wrap(a + b),
    "-": lambda a, b: _wrap(a - b),
    "*": lambda a, b: _wrap(a * b),
    "/": lambda a, b: _wrap(_div(a, b)),
    "%": lambda a, b: a - b * _div(a, b) if b else 0,
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "<": lambda a, b: int(a < b),
    "<=": lambda a, b: int(a <= b),
    ">": lambda a, b: int(a > b),
    ">=": lambda a, b: int(a >= b),
}

_BUILTIN_ARITY = {"read": 0, "write": 1}

_SHAPES = {
    "box": (Arr, Str, Sexp, Fn),
    "unbox": (int,),
    "str": (Str,),
    "array": (Arr,),
    "sexp": (Sexp,),
    "fun": (Fn,),
}


def run(prog: S.Program, steps: int = 100_000, depth: int = 60) -> str:
    """Run prog: its outcome (see the module docstring), or ShapeError."""
    machine = _Machine(steps, depth)
    env = {}
    for name, binder in prog.builtins.items():
        env[binder] = [Fn(None, None, None, builtin=name)]
    try:
        machine.eval(prog.body, env)
    except _Stop as stop:
        return stop.outcome
    return "done"


def _int(v, what: str) -> int:
    if type(v) is not int:
        raise ShapeError(f"{what} of a {type(v).__name__}")
    return v


class _Machine:
    def __init__(self, steps: int, depth: int):
        self.steps = steps
        self.depth = depth

    def eval(self, e, env):
        self.steps -= 1
        if self.steps < 0:
            raise _Stop("out of steps")
        kind = type(e)
        if kind is S.IntLit:
            return _wrap(e.value)
        if kind is S.StrLit:
            return Str(e.value)
        if kind is S.VarRef:
            value = env[e.binder][0]
            if value is _UNSET:
                raise _Stop("unset")
            return value
        if kind is S.Binop:
            left = _int(self.eval(e.left, env), f"'{e.op}'")
            right = _int(self.eval(e.right, env), f"'{e.op}'")
            return _ARITH[e.op](left, right)
        if kind is S.Assign:
            value = self.eval(e.rhs, env)
            if type(e.lhs) is S.VarRef:
                env[e.lhs.binder][0] = value
            else:
                items, i = self.slot(e.lhs, env)
                if type(items) is not list:  # a string's bytes
                    items = items.items
                    value = _int(value, "a string store")
                items[i] = value
            return 0
        if kind is S.Scope:
            env = dict(env)  # the scope's own cells
            value = 0
            for item in e.items:
                if type(item) is S.VarDecl:
                    env[item.binder] = cell = [_UNSET]
                    if item.init is not None:
                        cell[0] = self.eval(item.init, env)
                    value = 0
                elif type(item) is S.FunDecl:
                    env[item.binder] = cell = [_UNSET]
                    cell[0] = self.eval(item.fun, env)
                    value = 0
                else:
                    value = self.eval(item, env)
            return value
        if kind is S.CallE:
            fn = self.eval(e.fn, env)
            args = [self.eval(a, env) for a in e.args]
            return self.call(fn, args)
        if kind is S.Index:
            items, i = self.slot(e, env)
            return items.items[i] if type(items) is Str else items[i]
        if kind is S.ArrayLit:
            return Arr([self.eval(x, env) for x in e.elems])
        if kind is S.SexpLit:
            return Sexp(e.label, [self.eval(x, env) for x in e.args])
        if kind is S.FunLit:
            return Fn([binder for _, binder in e.params], e.body, env)
        if kind is S.Length:
            v = self.eval(e.subject, env)
            if type(v) is int:
                raise ShapeError(".length of an int")
            return 0 if type(v) is Fn else len(v.items)
        if kind is S.If:
            if _int(self.eval(e.cond, env), "a condition"):
                return self.eval(e.then, env)
            return 0 if e.orelse is None else self.eval(e.orelse, env)
        if kind is S.While:
            while _int(self.eval(e.cond, env), "a condition"):
                self.eval(e.body, env)
            return 0
        if kind is S.For:
            self.eval(e.init, env)
            while _int(self.eval(e.cond, env), "a condition"):
                self.eval(e.body, env)
                self.eval(e.step, env)
            return 0
        if kind is S.Case:
            v = self.eval(e.scrutinee, env)
            for pat, body in e.branches:
                bound = {}
                if _matches(pat, v, bound):
                    inner = dict(env)
                    for binder, x in bound.items():
                        inner[binder] = [x]
                    return self.eval(body, inner)
            raise _Stop("no match")
        raise TypeError(f"unexpected expression: {e!r}")

    def slot(self, e: S.Index, env):
        """The items of the indexed container (a string as itself) and
        the index, taken modulo their number."""
        v = self.eval(e.subject, env)
        i = _int(self.eval(e.index, env), "an index")
        if type(v) not in (Arr, Str, Sexp):
            raise ShapeError(f"indexing a {type(v).__name__}")
        if not v.items:
            raise _Stop("out of range")
        return (v if type(v) is Str else v.items), i % len(v.items)

    def call(self, fn, args):
        if type(fn) is not Fn:
            raise ShapeError(f"calling a {type(fn).__name__}")
        params = len(fn.params) if fn.builtin is None else _BUILTIN_ARITY[fn.builtin]
        if len(args) != params:
            raise ShapeError(f"{len(args)} arguments to a function of {params}")
        if fn.builtin is not None:
            if fn.builtin == "write":
                _int(args[0], "write")
            return 0
        self.depth -= 1
        if self.depth < 0:
            raise _Stop("too deep")
        env = dict(fn.env)
        for binder, arg in zip(fn.params, args):
            env[binder] = [arg]
        value = self.eval(fn.body, env)
        self.depth += 1
        return value


def _matches(p, v, bound: dict) -> bool:
    kind = type(p)
    if kind is S.PWild:
        return True
    if kind is S.PBind:
        bound[p.binder] = v
        return True
    if kind is S.PAt:
        bound[p.binder] = v
        return _matches(p.pat, v, bound)
    if kind is S.PInt:
        return type(v) is int and v == p.value
    if kind is S.PShape:
        return type(v) in _SHAPES[p.kind]
    if kind is S.PSexp:
        return type(v) is Sexp and v.label == p.label and len(v.items) == len(p.args) and all(
            _matches(q, x, bound) for q, x in zip(p.args, v.items)
        )
    if kind is S.PArray:
        return type(v) is Arr and len(v.items) == len(p.elems) and all(
            _matches(q, x, bound) for q, x in zip(p.elems, v.items)
        )
    raise TypeError(f"unexpected pattern: {p!r}")
