"""Frontend for the mini-Lama subset: lexer and a parser that resolves
names as it parses.

The grammar covers exactly the constructs the checker analyzes: scalar
literals, variables, arrays, S-expressions, function literals and named
(recursive) functions, application, indexing, `.length`, assignment,
sequencing, `if`/`while`/`for`, and `case` with the shape-pattern
catalogue. The parser gives every binder a unique id, in source order,
and resolves every reference to one of them.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass
class Node:
    pass


@dataclass
class IntLit(Node):
    value: int


@dataclass
class StrLit(Node):
    value: str


@dataclass
class VarRef(Node):
    name: str
    line: int = 0
    col: int = 0
    binder: int = -1


@dataclass
class Assign(Node):
    lhs: Node
    rhs: Node


@dataclass
class If(Node):
    cond: Node
    then: Node
    orelse: Optional[Node]


@dataclass
class While(Node):
    cond: Node
    body: Node


@dataclass
class For(Node):
    init: Node
    cond: Node
    step: Node
    body: Node


@dataclass
class Binop(Node):
    op: str
    left: Node
    right: Node


@dataclass
class CallE(Node):
    fn: Node
    args: list


@dataclass
class Index(Node):
    subject: Node
    index: Node


@dataclass
class ArrayLit(Node):
    elems: list


@dataclass
class SexpLit(Node):
    label: str
    args: list


@dataclass
class FunLit(Node):
    params: list  # of (name, binder id)
    body: Node


@dataclass
class Length(Node):
    subject: Node


@dataclass
class Case(Node):
    scrutinee: Node
    branches: list  # of (Pattern, Node)


@dataclass
class VarDecl(Node):
    name: str
    init: Optional[Node]
    line: int = 0
    col: int = 0
    binder: int = -1


@dataclass
class FunDecl(Node):
    name: str
    fun: FunLit
    line: int = 0
    col: int = 0
    binder: int = -1


@dataclass
class Scope(Node):
    items: list


# Patterns.


@dataclass
class PWild(Node):
    pass


@dataclass
class PBind(Node):
    name: str
    binder: int = -1


@dataclass
class PAt(Node):
    name: str
    pat: Node
    binder: int = -1


@dataclass
class PSexp(Node):
    label: str
    args: list


@dataclass
class PArray(Node):
    elems: list


@dataclass
class PShape(Node):
    kind: str  # box / unbox / str / array / sexp / fun


@dataclass
class PInt(Node):
    value: int


@dataclass
class Program:
    body: Scope
    builtins: dict  # name -> binder id


# ---------------------------------------------------------------------------
# Lexer.
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


def tokenize(src: str) -> list:
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


# ---------------------------------------------------------------------------
# Parser (recursive descent).
# ---------------------------------------------------------------------------

_CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")
_ADD_OPS = ("+", "-")
_MUL_OPS = ("*", "/", "%")

# Deepest nesting of expressions, blocks, patterns and `elif` links the
# parser accepts. Every recursive pass after it (generation, rendering)
# recurses per level too, and the whole pipeline must fit Python's
# default recursion limit.
MAX_NESTING = 64

BUILTINS = ("read", "write")


def _nested(method):
    """Count one nesting level around a recursive parser method; past
    MAX_NESTING, raise ParseError at the token that opens the level."""

    def wrapper(self, *args):
        self.depth += 1
        if self.depth > MAX_NESTING:
            t = self.peek()
            raise ParseError(t.line, t.col, f"nesting deeper than {MAX_NESTING} levels")
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

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def at(self, kind) -> bool:
        return self.peek().kind == kind

    def eat(self, kind) -> Optional[Token]:
        if self.at(kind):
            return self.next()
        return None

    def expect(self, kind) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(t.line, t.col, f"expected {kind!r}, found {t.kind!r}")
        return self.next()

    # Blocks: items separated by ';' (optional after a fun declaration).

    @_nested
    def block(self, stops) -> Scope:
        mark = len(self.trail)
        items = []
        while not self.peek().kind in stops:
            new = self.item()
            items.extend(new)
            if self.eat(";"):
                continue
            if isinstance(new[-1], (FunDecl, VarDecl)):
                continue  # separator optional after a declaration
            break
        t = self.peek()
        if t.kind not in stops:
            raise ParseError(t.line, t.col, f"expected one of {sorted(stops)}")
        self.end_scope(mark)
        return Scope(items)

    def item(self) -> list:
        t = self.peek()
        if t.kind == "var":
            return self.var_decl()
        if t.kind == "fun" and self.toks[self.pos + 1].kind == "ident":
            return [self.fun_decl()]
        return [self.expr()]

    def var_decl(self) -> list:
        self.expect("var")
        decls = []
        while True:
            name = self.expect("ident")
            binder = self.bind(name.value)
            init = None
            if self.eat("="):
                init = self.expr()
            decls.append(VarDecl(name.value, init, name.line, name.col, binder))
            if not self.eat(","):
                break
        return decls

    def fun_decl(self) -> FunDecl:
        kw = self.expect("fun")
        name = self.expect("ident")
        binder = self.bind(name.value)
        return FunDecl(name.value, self.fun_rest(), kw.line, kw.col, binder)

    def fun_rest(self) -> FunLit:
        """Parameters and body of a function, in a scope of their own."""
        mark = len(self.trail)
        self.expect("(")
        params = []
        if not self.eat(")"):
            while True:
                p = self.expect("ident")
                params.append((p.value, self.bind(p.value)))
                if self.eat(")"):
                    break
                self.expect(",")
        self.expect("{")
        body = self.block({"}"})
        self.expect("}")
        self.end_scope(mark)
        return FunLit(params, body)

    # Expressions.

    @_nested
    def expr(self) -> Node:
        lhs = self.comparison()
        if self.eat(":="):
            rhs = self.expr()
            t = self.peek()
            if not isinstance(lhs, (VarRef, Index)):
                raise ParseError(t.line, t.col, "assignment target must be a variable or an index")
            return Assign(lhs, rhs)
        return lhs

    def comparison(self) -> Node:
        left = self.additive()
        while self.peek().kind in _CMP_OPS:
            op = self.next().kind
            left = Binop(op, left, self.additive())
        return left

    def additive(self) -> Node:
        left = self.multiplicative()
        while self.peek().kind in _ADD_OPS:
            op = self.next().kind
            left = Binop(op, left, self.multiplicative())
        return left

    def multiplicative(self) -> Node:
        left = self.postfix()
        while self.peek().kind in _MUL_OPS:
            op = self.next().kind
            left = Binop(op, left, self.postfix())
        return left

    def postfix(self) -> Node:
        e = self.primary()
        while True:
            if self.at("("):
                self.next()
                args = []
                if not self.eat(")"):
                    while True:
                        args.append(self.expr())
                        if self.eat(")"):
                            break
                        self.expect(",")
                e = CallE(e, args)
            elif self.at("["):
                self.next()
                idx = self.expr()
                self.expect("]")
                e = Index(e, idx)
            elif self.at("."):
                self.next()
                name = self.expect("ident")
                if name.value != "length":
                    raise ParseError(name.line, name.col, f"unknown primitive .{name.value}")
                e = Length(e)
            else:
                return e

    def primary(self) -> Node:
        t = self.peek()
        if t.kind == "int":
            self.next()
            return IntLit(t.value)
        if t.kind == "str":
            self.next()
            return StrLit(t.value)
        if t.kind == "ident":
            self.next()
            binder = self.env.get(t.value, -1)
            if binder < 0 and self.unbound is None:
                self.unbound = ResolveError(t.value, t.line, t.col)
            return VarRef(t.value, t.line, t.col, binder)
        if t.kind == "tag":
            self.next()
            args = []
            if self.eat("("):
                while True:
                    args.append(self.expr())
                    if self.eat(")"):
                        break
                    self.expect(",")
            return SexpLit(t.value, args)
        if t.kind == "[":
            self.next()
            elems = []
            if not self.eat("]"):
                while True:
                    elems.append(self.expr())
                    if self.eat("]"):
                        break
                    self.expect(",")
            return ArrayLit(elems)
        if t.kind == "(":
            self.next()
            e = self.block({")"})
            self.expect(")")
            return e
        if t.kind == "{":
            self.next()
            e = self.block({"}"})
            self.expect("}")
            return e
        if t.kind == "fun":
            self.next()
            return self.fun_rest()
        if t.kind == "if":
            return self.if_expr()
        if t.kind == "while":
            self.next()
            cond = self.expr()
            self.expect("do")
            body = self.block({"od"})
            self.expect("od")
            return While(cond, body)
        if t.kind == "for":
            self.next()
            init = self.expr()
            self.expect(",")
            cond = self.expr()
            self.expect(",")
            step = self.expr()
            self.expect("do")
            body = self.block({"od"})
            self.expect("od")
            return For(init, cond, step, body)
        if t.kind == "case":
            self.next()
            scrut = self.expr()
            self.expect("of")
            branches = []
            while True:
                mark = len(self.trail)
                pat = self.pattern()
                self.expect("->")
                body = self.block({"|", "esac"})
                self.end_scope(mark)
                branches.append((pat, body))
                if not self.eat("|"):
                    break
            self.expect("esac")
            return Case(scrut, branches)
        raise ParseError(t.line, t.col, f"unexpected token {t.kind!r}")

    def if_expr(self) -> Node:
        self.expect("if")
        cond = self.expr()
        self.expect("then")
        then = self.block({"else", "elif", "fi"})
        t = self.peek()
        if t.kind == "else":
            self.next()
            orelse = self.block({"fi"})
            self.expect("fi")
            return If(cond, then, orelse)
        if t.kind == "elif":
            self.next()
            # desugar: elif chains share the closing 'fi'
            orelse = self.elif_chain()
            return If(cond, then, orelse)
        self.expect("fi")
        return If(cond, then, None)

    @_nested
    def elif_chain(self) -> Node:
        cond = self.expr()
        self.expect("then")
        then = self.block({"else", "elif", "fi"})
        t = self.peek()
        if t.kind == "else":
            self.next()
            orelse = self.block({"fi"})
            self.expect("fi")
            return If(cond, then, orelse)
        if t.kind == "elif":
            self.next()
            return If(cond, then, self.elif_chain())
        self.expect("fi")
        return If(cond, then, None)

    # Patterns.

    @_nested
    def pattern(self) -> Node:
        t = self.peek()
        if t.kind == "_":
            self.next()
            return PWild()
        if t.kind == "int":
            self.next()
            return PInt(t.value)
        if t.kind == "str":
            raise ParseError(t.line, t.col, "string patterns are not supported")
        if t.kind == "shape":
            self.next()
            return PShape(t.value)
        if t.kind == "ident":
            self.next()
            binder = self.bind(t.value)
            if self.eat("@"):
                return PAt(t.value, self.pattern(), binder)
            return PBind(t.value, binder)
        if t.kind == "tag":
            self.next()
            args = []
            if self.eat("("):
                while True:
                    args.append(self.pattern())
                    if self.eat(")"):
                        break
                    self.expect(",")
            return PSexp(t.value, args)
        if t.kind == "[":
            self.next()
            elems = []
            if not self.eat("]"):
                while True:
                    elems.append(self.pattern())
                    if self.eat("]"):
                        break
                    self.expect(",")
            return PArray(elems)
        raise ParseError(t.line, t.col, f"unexpected token {t.kind!r} in pattern")


def parse_program(source: str) -> Program:
    """Parse and resolve a program. A ParseError anywhere wins over an
    unbound name; otherwise the first unbound reference is a ResolveError."""
    p = _Parser(tokenize(source))
    body = p.block({"eof"})
    p.expect("eof")
    if p.unbound is not None:
        raise p.unbound
    return Program(body, p.builtins)
