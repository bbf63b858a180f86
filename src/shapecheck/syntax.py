"""Frontend for the mini-Lama subset: lexer and a parser that resolves
names as it parses.

The grammar covers exactly the constructs the checker analyzes: scalar
literals, variables, arrays, S-expressions, function literals and named
(recursive) functions, application, indexing, `.length`, assignment,
sequencing, `if`/`while`/`for`, and `case` with the shape-pattern
catalogue. The parser gives every binder a unique id, in source order,
and resolves every reference to one of them.

The lexer makes one pass over the characters and emits plain
`(kind, value, line, col)` tuples. Only a newline starts a line, also
inside a string or a block comment, and a column is the offset from the
start of its line, plus one. The parser is recursive descent over that
list; binary operators are parsed by precedence climbing (Pratt 1973)
over one table of levels, `:=` being the loosest and right-associative.
"""

from __future__ import annotations

import re
from typing import Optional


class ParseError(Exception):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.message = message


class ResolveError(Exception):
    def __init__(self, name: str, line: int, col: int):
        super().__init__(f"{line}:{col}: unbound identifier '{name}'")
        self.name = name
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# AST.
# ---------------------------------------------------------------------------


class Record:
    """A record whose fields are its class's `__slots__`, all set by the
    class's own `__init__`. As with a dataclass, `==` compares the fields
    with those of a record of the same class, the repr names them, and a
    record is unhashable, since its fields can be set."""

    __slots__ = ()
    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Node(Record):
    __slots__ = ()


class IntLit(Node):
    __slots__ = ("value",)
    def __init__(self, value: int):
        self.value = value


class StrLit(Node):
    __slots__ = ("value",)
    def __init__(self, value: str):
        self.value = value


class VarRef(Node):
    __slots__ = ("name", "line", "col", "binder")
    def __init__(self, name: str, line: int = 0, col: int = 0, binder: int = -1):
        self.name, self.line, self.col, self.binder = name, line, col, binder


class Assign(Node):
    __slots__ = ("lhs", "rhs")
    def __init__(self, lhs: Node, rhs: Node):
        self.lhs, self.rhs = lhs, rhs


class If(Node):
    __slots__ = ("cond", "then", "orelse")
    def __init__(self, cond: Node, then: Node, orelse: Optional[Node]):
        self.cond, self.then, self.orelse = cond, then, orelse


class While(Node):
    __slots__ = ("cond", "body")
    def __init__(self, cond: Node, body: Node):
        self.cond, self.body = cond, body


class For(Node):
    __slots__ = ("init", "cond", "step", "body")
    def __init__(self, init: Node, cond: Node, step: Node, body: Node):
        self.init, self.cond, self.step, self.body = init, cond, step, body


class Binop(Node):
    __slots__ = ("op", "left", "right")
    def __init__(self, op: str, left: Node, right: Node):
        self.op, self.left, self.right = op, left, right


class CallE(Node):
    __slots__ = ("fn", "args")
    def __init__(self, fn: Node, args: list):
        self.fn, self.args = fn, args


class Index(Node):
    __slots__ = ("subject", "index")
    def __init__(self, subject: Node, index: Node):
        self.subject, self.index = subject, index


class ArrayLit(Node):
    __slots__ = ("elems",)
    def __init__(self, elems: list):
        self.elems = elems


class SexpLit(Node):
    __slots__ = ("label", "args")
    def __init__(self, label: str, args: list):
        self.label, self.args = label, args


class FunLit(Node):
    __slots__ = ("params", "body")
    def __init__(self, params: list, body: Node):
        self.params, self.body = params, body  # params: (name, binder id) pairs


class Length(Node):
    __slots__ = ("subject",)
    def __init__(self, subject: Node):
        self.subject = subject


class Case(Node):
    __slots__ = ("scrutinee", "branches")
    def __init__(self, scrutinee: Node, branches: list):
        self.scrutinee, self.branches = scrutinee, branches  # of (Pattern, Node)


class VarDecl(Node):
    __slots__ = ("name", "init", "line", "col", "binder")
    def __init__(self, name: str, init: Optional[Node], line: int = 0, col: int = 0, binder: int = -1):
        self.name, self.init, self.line, self.col, self.binder = name, init, line, col, binder


class FunDecl(Node):
    __slots__ = ("name", "fun", "line", "col", "binder")
    def __init__(self, name: str, fun: FunLit, line: int = 0, col: int = 0, binder: int = -1):
        self.name, self.fun, self.line, self.col, self.binder = name, fun, line, col, binder


class Scope(Node):
    __slots__ = ("items",)
    def __init__(self, items: list):
        self.items = items


# Patterns.


class PWild(Node):
    __slots__ = ()


class PBind(Node):
    __slots__ = ("name", "binder")
    def __init__(self, name: str, binder: int = -1):
        self.name, self.binder = name, binder


class PAt(Node):
    __slots__ = ("name", "pat", "binder")
    def __init__(self, name: str, pat: Node, binder: int = -1):
        self.name, self.pat, self.binder = name, pat, binder


class PSexp(Node):
    __slots__ = ("label", "args")
    def __init__(self, label: str, args: list):
        self.label, self.args = label, args


class PArray(Node):
    __slots__ = ("elems",)
    def __init__(self, elems: list):
        self.elems = elems


class PShape(Node):
    __slots__ = ("kind",)
    def __init__(self, kind: str):
        self.kind = kind  # box / unbox / str / array / sexp / fun


class PInt(Node):
    __slots__ = ("value",)
    def __init__(self, value: int):
        self.value = value


class Program(Record):
    __slots__ = ("body", "builtins")
    def __init__(self, body: Scope, builtins: dict):
        self.body, self.builtins = body, builtins  # builtins: name -> binder id


# ---------------------------------------------------------------------------
# Lexer.
# ---------------------------------------------------------------------------

_KEYWORDS = {
    "var", "fun", "case", "of", "esac",
    "if", "then", "else", "elif", "fi",
    "while", "do", "od", "for",
}

# Punctuators. A character in _PUNCT1 is one on its own, unless it and
# the next one make a punctuator in _PUNCT2 or open a comment (`--`, `(*`).
_PUNCT2 = {":=", "->", "==", "!=", "<=", ">="}
_PUNCT1 = set("()[]{},;.<>+-*/%=|@_")
# Punctuators that start no longer token.
_ALONE = _PUNCT1 - {p[0] for p in _PUNCT2} - {"-", "("}

_SHAPES = {"box": "box", "unbox": "unbox", "str": "str", "string": "str",
           "array": "array", "sexp": "sexp", "fun": "fun"}

_WORD = re.compile(r"\w+")  # the characters str.isalnum accepts, and '_'
_DIGITS = re.compile(r"\d+")  # decimal digits, the ones int() reads
# A string: `\"` and `\\` are escapes; any other backslash stays as it is.
_STRING = re.compile(r'"((?:[^"\\]|\\.)*)"', re.S)
_ESCAPE = re.compile(r'\\(["\\])')
_COMMENT_MARK = re.compile(r"\(\*|\*\)")


def _past_newlines(src: str, i: int, j: int, line: int, base: int) -> tuple:
    """(line, base) after the newlines in src[i:j]."""
    breaks = src.count("\n", i, j)
    if breaks:
        return line + breaks, src.rindex("\n", i, j)
    return line, base


def tokenize(src: str) -> list:
    """The tokens of src, ending with an "eof" token. A token is a tuple
    (kind, value, line, col): kind is "int", "str", "ident", "tag",
    "shape", a keyword or a punctuator, and value is the literal's value
    or the token's text. Only a newline starts a line, also inside a
    string or a comment; a column is the offset from the line's start,
    plus one."""
    toks = []
    emit = toks.append
    word, digits = _WORD.match, _DIGITS.match
    i, n = 0, len(src)
    line, base = 1, -1  # base: the offset just before the line's start
    while i < n:
        c = src[i]
        if c == "\n":
            line += 1
            base = i
            i += 1
        elif c == " ":
            i += 1
        elif c.isalpha():
            j = word(src, i).end()
            w = src[i:j]
            emit((w if w in _KEYWORDS else "tag" if c.isupper() else "ident", w, line, i - base))
            i = j
        elif c.isdecimal():
            j = digits(src, i).end()
            try:
                value = int(src[i:j])
            except ValueError:  # more digits than int() converts
                raise ParseError(line, i - base, "integer literal too long") from None
            emit(("int", value, line, i - base))
            i = j
        elif c in _ALONE:
            emit((c, c, line, i - base))
            i += 1
        else:
            two = src[i : i + 2]
            if two in _PUNCT2:
                emit((two, two, line, i - base))
                i += 2
            elif two == "--":
                j = src.find("\n", i)
                if j < 0:
                    break  # the comment ends the source; "eof" takes its place
                i = j
            elif two == "(*":
                depth, j = 1, i + 2
                while depth:
                    m = _COMMENT_MARK.search(src, j)
                    if m is None:
                        raise ParseError(line, i - base, "unterminated comment")
                    depth += 1 if m.group() == "(*" else -1
                    j = m.end()
                line, base = _past_newlines(src, i, j, line, base)
                i = j
            elif c in _PUNCT1:
                emit((c, c, line, i - base))
                i += 1
            elif c.isspace():
                i += 1
            elif c == '"':
                m = _STRING.match(src, i)
                if m is None:
                    raise ParseError(line, i - base, "unterminated string")
                emit(("str", _ESCAPE.sub(r"\1", m.group(1)), line, i - base))
                line, base = _past_newlines(src, i, m.end(), line, base)
                i = m.end()
            elif c == "#":
                m = word(src, i + 1)
                w = m.group() if m else ""
                if w not in _SHAPES:
                    raise ParseError(line, i - base, f"unknown shape pattern #{w}")
                emit(("shape", _SHAPES[w], line, i - base))
                i += 1 + len(w)
            else:
                raise ParseError(line, i - base, f"unexpected character {c!r}")
    emit(("eof", None, line, i - base))
    return toks


# ---------------------------------------------------------------------------
# Parser (recursive descent, precedence climbing for binary operators).
# ---------------------------------------------------------------------------

# Binary operators and their levels: a higher level binds tighter, and
# operators of one level group to the left. `:=` is looser than all of
# them and groups to the right.
_BINARY = {
    "==": 1, "!=": 1, "<": 1, "<=": 1, ">": 1, ">=": 1,
    "+": 2, "-": 2,
    "*": 3, "/": 3, "%": 3,
}
_POSTFIX = {"(", "[", "."}

# The tokens that end each kind of block.
_EOF = {"eof"}
_RPAREN = {")"}
_RBRACE = {"}"}
_OD = {"od"}
_FI = {"fi"}
_THEN = {"else", "elif", "fi"}
_BRANCH = {"|", "esac"}

# Deepest nesting of expressions, blocks, patterns and `elif` links the
# parser accepts. Every recursive pass after it (generation, rendering)
# recurses per level too, and the whole pipeline must fit Python's
# default recursion limit.
MAX_NESTING = 64

BUILTINS = ("read", "write")


def _error(t: tuple, message: str) -> ParseError:
    return ParseError(t[2], t[3], message)


def _nested(method):
    """Count one nesting level around a recursive parser method."""

    def wrapper(self, *args):
        self.enter()
        result = method(self, *args)
        self.depth -= 1
        return result

    return wrapper


class _Parser:
    """Recursive descent that resolves names on the way.

    A scope opens at each block, at each function (parameters and body)
    and at each case branch (pattern and body). A named `fun` sees itself
    (recursion) and a `var` is visible in its own initializer as well as
    the remainder of its scope. The first unbound reference is kept in
    `unbound`, to be raised only once the whole program has parsed."""

    def __init__(self, toks):
        self.toks = toks
        self.pos = 0
        self.depth = 0
        self.env: dict[str, int] = {}  # name -> binder id in scope
        self.trail: list = []  # (name, shadowed binder id or None), to undo
        self.binders = 0
        self.unbound: Optional[ResolveError] = None
        self.builtins = {name: self.bind(name) for name in BUILTINS}

    def bind(self, name: str) -> int:
        """A new binder id for name, in scope until the enclosing scope ends."""
        binder = self.binders
        self.binders += 1
        self.trail.append((name, self.env.get(name)))
        self.env[name] = binder
        return binder

    def end_scope(self, mark: int):
        """Undo every binding made since the trail was `mark` long."""
        while len(self.trail) > mark:
            name, shadowed = self.trail.pop()
            if shadowed is None:
                del self.env[name]
            else:
                self.env[name] = shadowed

    def enter(self):
        """Open one nesting level; past MAX_NESTING, raise ParseError at
        the token that opens it."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.too_deep()

    def too_deep(self) -> ParseError:
        return _error(self.toks[self.pos], f"nesting deeper than {MAX_NESTING} levels")

    def eat(self, kind) -> bool:
        if self.toks[self.pos][0] == kind:
            self.pos += 1
            return True
        return False

    def expect(self, kind) -> tuple:
        t = self.toks[self.pos]
        if t[0] != kind:
            raise _error(t, f"expected {kind!r}, found {t[0]!r}")
        self.pos += 1
        return t

    def listing(self, parse_item, close: str, empty_ok: bool) -> list:
        """Items separated by ',' up to close, the opening token already
        consumed; the list may be empty only where empty_ok."""
        toks = self.toks
        if empty_ok and toks[self.pos][0] == close:
            self.pos += 1
            return []
        items = []
        while True:
            items.append(parse_item())
            t = toks[self.pos]
            self.pos += 1
            if t[0] == close:
                return items
            if t[0] != ",":
                raise _error(t, f"expected ',', found {t[0]!r}")

    # Blocks: items separated by ';' (optional after a declaration).

    @_nested
    def block(self, stops) -> Scope:
        mark = len(self.trail)
        items = []
        toks = self.toks
        while toks[self.pos][0] not in stops:
            kind = toks[self.pos][0]
            if kind == "var":
                items += self.var_decl()
            elif kind == "fun" and toks[self.pos + 1][0] == "ident":
                items.append(self.fun_decl())
            else:
                items.append(self.expr())
                if not self.eat(";"):
                    break
                continue
            self.eat(";")
        t = toks[self.pos]
        if t[0] not in stops:
            raise _error(t, f"expected one of {sorted(stops)}")
        self.end_scope(mark)
        return Scope(items)

    def var_decl(self) -> list:
        self.pos += 1  # 'var'
        decls = []
        while True:
            t = self.expect("ident")
            binder = self.bind(t[1])
            init = self.expr() if self.eat("=") else None
            decls.append(VarDecl(t[1], init, t[2], t[3], binder))
            if not self.eat(","):
                return decls

    def fun_decl(self) -> FunDecl:
        kw, name = self.toks[self.pos], self.toks[self.pos + 1]
        self.pos += 2
        binder = self.bind(name[1])
        return FunDecl(name[1], self.fun_rest(), kw[2], kw[3], binder)

    def fun_rest(self) -> FunLit:
        """Parameters and body of a function, in a scope of their own."""
        mark = len(self.trail)
        self.expect("(")
        params = self.listing(self.param, ")", True)
        self.expect("{")
        body = self.block(_RBRACE)
        self.expect("}")
        self.end_scope(mark)
        return FunLit(params, body)

    def param(self) -> tuple:
        t = self.expect("ident")
        return (t[1], self.bind(t[1]))

    # Expressions.

    def expr(self) -> Node:
        # One nesting level, counted here as `_nested` counts it, since
        # this is the parser's most frequent call.
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.too_deep()
        start = self.toks[self.pos]
        e = self.binary(1)
        if self.toks[self.pos][0] == ":=":
            self.pos += 1
            rhs = self.expr()
            if not isinstance(e, (VarRef, Index)):
                # Checked after the right-hand side, so an error in it wins.
                raise _error(start, "assignment target must be a variable or an index")
            e = Assign(e, rhs)
        self.depth -= 1
        return e

    def binary(self, level: int) -> Node:
        """Operands joined by binary operators of at least this level."""
        left = self.operand()
        toks = self.toks
        while True:
            op = toks[self.pos][0]
            op_level = _BINARY.get(op, 0)
            if op_level < level:
                return left
            self.pos += 1
            left = Binop(op, left, self.binary(op_level + 1))

    def operand(self) -> Node:
        """A primary expression, then its calls, indexes and `.length`."""
        toks = self.toks
        t = toks[self.pos]
        kind = t[0]
        self.pos += 1
        if kind == "ident":
            binder = self.env.get(t[1], -1)
            if binder < 0 and self.unbound is None:
                self.unbound = ResolveError(t[1], t[2], t[3])
            e = VarRef(t[1], t[2], t[3], binder)
        elif kind == "int":
            e = IntLit(t[1])
        elif kind == "str":
            e = StrLit(t[1])
        elif kind == "tag":
            e = SexpLit(t[1], self.listing(self.expr, ")", False) if self.eat("(") else [])
        elif kind == "[":
            e = ArrayLit(self.listing(self.expr, "]", True))
        elif kind == "(":
            e = self.block(_RPAREN)
            self.expect(")")
        elif kind == "{":
            e = self.block(_RBRACE)
            self.expect("}")
        elif kind == "fun":
            e = self.fun_rest()
        elif kind == "if":
            e = self.if_expr()
        elif kind == "while":
            cond = self.expr()
            self.expect("do")
            e = While(cond, self.block(_OD))
            self.expect("od")
        elif kind == "for":
            init = self.expr()
            self.expect(",")
            cond = self.expr()
            self.expect(",")
            step = self.expr()
            self.expect("do")
            e = For(init, cond, step, self.block(_OD))
            self.expect("od")
        elif kind == "case":
            e = self.case_expr()
        else:
            raise _error(t, f"unexpected token {kind!r}")
        while True:
            kind = toks[self.pos][0]
            if kind not in _POSTFIX:
                return e
            self.pos += 1
            if kind == "(":
                e = CallE(e, self.listing(self.expr, ")", True))
            elif kind == "[":
                e = Index(e, self.expr())
                self.expect("]")
            else:
                t = self.expect("ident")
                if t[1] != "length":
                    raise _error(t, f"unknown primitive .{t[1]}")
                e = Length(e)

    def case_expr(self) -> Case:
        scrut = self.expr()
        self.expect("of")
        branches = []
        while True:
            mark = len(self.trail)
            pat = self.pattern()
            self.expect("->")
            branches.append((pat, self.block(_BRANCH)))
            self.end_scope(mark)
            if not self.eat("|"):
                break
        self.expect("esac")
        return Case(scrut, branches)

    def if_expr(self) -> Node:
        """The rest of an `if`: its `elif` links share the closing `fi`
        and each nests one level deeper than the one before."""
        depth = self.depth
        links = []
        while True:
            cond = self.expr()
            self.expect("then")
            links.append((cond, self.block(_THEN)))
            if not self.eat("elif"):
                break
            self.enter()
        orelse = self.block(_FI) if self.eat("else") else None
        self.expect("fi")
        self.depth = depth
        for cond, then in reversed(links):
            orelse = If(cond, then, orelse)
        return orelse

    # Patterns.

    @_nested
    def pattern(self) -> Node:
        t = self.toks[self.pos]
        kind = t[0]
        if kind == "str":
            raise _error(t, "string patterns are not supported")
        self.pos += 1
        if kind == "_":
            return PWild()
        if kind == "int":
            return PInt(t[1])
        if kind == "shape":
            return PShape(t[1])
        if kind == "ident":
            binder = self.bind(t[1])
            if self.eat("@"):
                return PAt(t[1], self.pattern(), binder)
            return PBind(t[1], binder)
        if kind == "tag":
            return PSexp(t[1], self.listing(self.pattern, ")", False) if self.eat("(") else [])
        if kind == "[":
            return PArray(self.listing(self.pattern, "]", True))
        raise _error(t, f"unexpected token {kind!r} in pattern")


def parse_program(source: str) -> Program:
    """Parse and resolve a program. A ParseError anywhere wins over an
    unbound name; otherwise the first unbound reference is a ResolveError."""
    p = _Parser(tokenize(source))
    body = p.block(_EOF)
    if p.unbound is not None:
        raise p.unbound
    return Program(body, p.builtins)
