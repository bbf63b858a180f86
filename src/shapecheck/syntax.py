"""Frontend for the mini-Lama subset: lexer, parser, scope resolution.

The grammar covers exactly the constructs the checker analyzes: scalar
literals, variables, arrays, S-expressions, function literals and named
(recursive) functions, application, indexing, `.length`, assignment,
sequencing, `if`/`while`/`for`, and `case` with the shape-pattern
catalogue. Scope resolution gives every binder a unique id and resolves
every reference to one of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    name: Optional[str] = None


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
    n_binders: int = 0
    builtins: dict = field(default_factory=dict)  # name -> binder id


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
# parser accepts. Every recursive pass after it (scope resolution,
# generation, rendering) recurses per level too, and the whole pipeline
# must fit Python's default recursion limit.
MAX_NESTING = 64


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
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0
        self.depth = 0

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
            init = None
            if self.eat("="):
                init = self.expr()
            decls.append(VarDecl(name.value, init, name.line, name.col))
            if not self.eat(","):
                break
        return decls

    def fun_decl(self) -> FunDecl:
        kw = self.expect("fun")
        name = self.expect("ident")
        params = self.param_list()
        self.expect("{")
        body = self.block({"}"})
        self.expect("}")
        return FunDecl(name.value, FunLit(params, body, name.value), kw.line, kw.col)

    def param_list(self) -> list:
        self.expect("(")
        params = []
        if not self.eat(")"):
            while True:
                p = self.expect("ident")
                params.append((p.value, -1))
                if self.eat(")"):
                    break
                self.expect(",")
        return params

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
            return VarRef(t.value, t.line, t.col)
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
            params = self.param_list()
            self.expect("{")
            body = self.block({"}"})
            self.expect("}")
            return FunLit(params, body)
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
                pat = self.pattern()
                self.expect("->")
                body = self.block({"|", "esac"})
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
            if self.eat("@"):
                return PAt(t.value, self.pattern())
            return PBind(t.value)
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


def parse(source: str) -> Program:
    p = _Parser(tokenize(source))
    body = p.block({"eof"})
    p.expect("eof")
    return Program(body)


# ---------------------------------------------------------------------------
# Scope resolution.
# ---------------------------------------------------------------------------

BUILTINS = ("read", "write")


def resolve_scopes(prog: Program) -> Program:
    """Assign unique binder ids. A named `fun` sees itself (recursion) and
    a `var` is visible in its own initializer as well as the remainder of
    its scope; case-branch binders are scoped to their branch."""
    counter = [0]

    def new_binder() -> int:
        counter[0] += 1
        return counter[0] - 1

    builtins = {name: new_binder() for name in BUILTINS}

    def resolve(node, env):
        if isinstance(node, (IntLit, StrLit, PWild, PShape, PInt)):
            return
        if isinstance(node, VarRef):
            if node.name not in env:
                raise ResolveError(node.name, node.line, node.col)
            node.binder = env[node.name]
            return
        if isinstance(node, Scope):
            inner = dict(env)
            for item in node.items:
                if isinstance(item, VarDecl):
                    item.binder = new_binder()
                    inner[item.name] = item.binder
                    if item.init is not None:
                        resolve(item.init, inner)
                elif isinstance(item, FunDecl):
                    item.binder = new_binder()
                    inner[item.name] = item.binder
                    resolve(item.fun, inner)
                else:
                    resolve(item, inner)
            return
        if isinstance(node, FunLit):
            inner = dict(env)
            node.params = [(n, new_binder()) for n, _ in node.params]
            for n, b in node.params:
                inner[n] = b
            resolve(node.body, inner)
            return
        if isinstance(node, Case):
            resolve(node.scrutinee, env)
            new_branches = []
            for pat, body in node.branches:
                inner = dict(env)
                resolve_pattern(pat, inner)
                resolve(body, inner)
                new_branches.append((pat, body))
            node.branches = new_branches
            return
        if isinstance(node, Assign):
            resolve(node.lhs, env), resolve(node.rhs, env)
            return
        if isinstance(node, If):
            resolve(node.cond, env), resolve(node.then, env)
            if node.orelse is not None:
                resolve(node.orelse, env)
            return
        if isinstance(node, While):
            resolve(node.cond, env), resolve(node.body, env)
            return
        if isinstance(node, For):
            for part in (node.init, node.cond, node.step, node.body):
                resolve(part, env)
            return
        if isinstance(node, Binop):
            resolve(node.left, env), resolve(node.right, env)
            return
        if isinstance(node, CallE):
            resolve(node.fn, env)
            for a in node.args:
                resolve(a, env)
            return
        if isinstance(node, Index):
            resolve(node.subject, env), resolve(node.index, env)
            return
        if isinstance(node, (ArrayLit, SexpLit)):
            for a in (node.elems if isinstance(node, ArrayLit) else node.args):
                resolve(a, env)
            return
        if isinstance(node, Length):
            resolve(node.subject, env)
            return
        raise TypeError(f"unexpected node: {node!r}")

    def resolve_pattern(pat, env):
        if isinstance(pat, (PWild, PShape, PInt)):
            return
        if isinstance(pat, PBind):
            pat.binder = new_binder()
            env[pat.name] = pat.binder
            return
        if isinstance(pat, PAt):
            pat.binder = new_binder()
            env[pat.name] = pat.binder
            resolve_pattern(pat.pat, env)
            return
        if isinstance(pat, (PSexp, PArray)):
            for sub in (pat.args if isinstance(pat, PSexp) else pat.elems):
                resolve_pattern(sub, env)
            return
        raise TypeError(f"unexpected pattern: {pat!r}")

    resolve(prog.body, dict(builtins))
    prog.n_binders = counter[0]
    prog.builtins = builtins
    return prog


def parse_program(source: str) -> Program:
    return resolve_scopes(parse(source))
