"""Seeded mini-Lama programs whose answers are known by construction.

Every variable's shape is fixed before any statement is drawn, and each
statement keeps it, so the expected verdict and the `name : type` lines
follow from how a program was built, never from running the checker.
The seed is mixed into a string-seeded `random.Random`, which does not
depend on PYTHONHASHSEED: the same seed gives the same bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

TYPED = "Typed"
ILL_TYPED = "IllTyped"


@dataclass(frozen=True)
class Case:
    """One check: the source, the step budget, and its known answer."""

    name: str
    source: str
    verdict: str
    types: tuple = ()  # of (binding name, type text), compared modulo unfolding
    exact_bindings: bool = False  # the report must bind exactly these names
    fuel: int | None = None  # None: the checker's default budget
    stmts: int = 0  # top-level statements, filled in by the caller


# ---------------------------------------------------------------------------
# straight_line: integer assignments only.
# ---------------------------------------------------------------------------

STRAIGHT_SIZES = tuple(range(1500, 3501, 250))
STRAIGHT_VARS = 16


def straight_line(seed: int, index: int, n_stmts: int) -> Case:
    """`var v0, ..;` then one literal per variable, then `vX := vY op Z`.

    Every statement keeps every variable an integer, so the program is
    Typed and every binding is Int.
    """
    rng = random.Random(f"straight_line:{seed}:{index}")
    names = [f"v{i}" for i in range(STRAIGHT_VARS)]
    lines = [f"var {', '.join(names)};"]
    lines += [f"{v} := {rng.randrange(100)};" for v in names]
    # Each name in the declaration is its own top-level statement.
    for _ in range(n_stmts - 2 * len(names)):
        rhs = rng.choice(names) if rng.random() < 0.5 else str(rng.randrange(1, 100))
        op = rng.choice("+-*/%")
        lines.append(f"{rng.choice(names)} := {rng.choice(names)} {op} {rhs};")
    return Case(
        name=f"straight_line[{index}]",
        source=_join(lines),
        verdict=TYPED,
        types=tuple((v, "Int") for v in names),
        exact_bindings=True,
    )


# ---------------------------------------------------------------------------
# synth_mixed: integers, arrays, S-expressions, a polymorphic call, lists.
# ---------------------------------------------------------------------------

# Each size is drawn MIXED_PER_SIZE times and one of those programs gets
# an injected conflict, so every seed has the same mix of sizes and
# verdicts and only the statements and the conflict positions move.
MIXED_SIZES = tuple(range(100, 226, 25))
MIXED_PER_SIZE = 4

INTS = [f"i{j}" for j in range(6)]
ARRAYS = [f"a{j}" for j in range(3)]
SEXPS = [f"s{j}" for j in range(2)]
LISTS = ["l0"]

MIXED_TYPES = (
    *((v, "Int") for v in INTS),
    *((v, "[Int]") for v in ARRAYS),
    *((v, "A(Int) | B(Int, Int)") for v in SEXPS),
    *((v, "mu a. Nil | Cons(Int, a)") for v in LISTS),
    ("pick", "forall a b. Ind(a, b) => (a) -> b"),
)

# Statement kinds and their relative frequency; every kind keeps the
# shapes fixed in MIXED_TYPES.
MIXED_KINDS = (
    ("int", 30),
    ("store", 15),
    ("index", 15),
    ("array", 10),
    ("call", 10),
    ("sexp", 12),
    ("cons", 4),
)


def _mixed_stmt(rng: random.Random, kind: str) -> str:
    def i():
        return rng.choice(INTS)

    if kind == "int":
        return f"{i()} := {i()} {rng.choice('+-*')} {i()};"
    if kind == "store":
        return f"{rng.choice(ARRAYS)}[{i()}] := {i()};"
    if kind == "index":
        return f"{i()} := {rng.choice(ARRAYS)}[{i()}];"
    if kind == "array":
        return f"{rng.choice(ARRAYS)} := [{i()}, {i()}];"
    if kind == "call":
        return f"{i()} := pick ({rng.choice(ARRAYS)});"
    if kind == "sexp":
        if rng.random() < 0.5:
            return f"{rng.choice(SEXPS)} := A ({i()});"
        return f"{rng.choice(SEXPS)} := B ({i()}, {i()});"
    if kind == "cons":
        lst = rng.choice(LISTS)
        return f"{lst} := Cons ({i()}, {lst});"
    raise ValueError(kind)


def _kind_sequence(rng: random.Random, count: int) -> list:
    """Exactly the MIXED_KINDS proportions (rounded down, the remainder
    integer assignments), in seeded order: the seed moves statements
    around but not the mix, so programs of one size cost about the same."""
    total = sum(w for _, w in MIXED_KINDS)
    seq = [k for k, w in MIXED_KINDS for _ in range(count * w // total)]
    seq += ["int"] * (count - len(seq))
    rng.shuffle(seq)
    return seq


def synth_mixed(seed: int, index: int, n_stmts: int, ill_typed: bool) -> Case:
    """A prologue fixes every shape (each S-expression variable receives
    both constructors, each list starts as Nil), then statements are
    drawn by MIXED_KINDS. An ill-typed program has one statement replaced
    by an index into an integer, `iX := iY[iZ]`, at a seeded position."""
    rng = random.Random(f"synth_mixed:{seed}:{index}")
    lines = [f"var {', '.join(INTS + ARRAYS + SEXPS + LISTS)};", "fun pick (p) { p[0] }"]
    lines += [f"{v} := {rng.randrange(100)};" for v in INTS]
    lines += [f"{v} := [{rng.choice(INTS)}, {rng.choice(INTS)}];" for v in ARRAYS]
    for v in SEXPS:
        lines += [f"{v} := A ({rng.choice(INTS)});", f"{v} := B ({rng.choice(INTS)}, {rng.choice(INTS)});"]
    lines += [f"{v} := Nil;" for v in LISTS]
    prologue = len(lines) + len(INTS + ARRAYS + SEXPS + LISTS) - 1
    body = [_mixed_stmt(rng, k) for k in _kind_sequence(rng, n_stmts - prologue)]
    if ill_typed:
        pos = rng.randrange(len(body))
        body[pos] = f"{rng.choice(INTS)} := {rng.choice(INTS)}[{rng.choice(INTS)}];"
    return Case(
        name=f"synth_mixed[{index}]",
        source=_join(lines + body),
        verdict=ILL_TYPED if ill_typed else TYPED,
        types=() if ill_typed else MIXED_TYPES,
        exact_bindings=not ill_typed,
    )


def _join(lines) -> str:
    return "\n".join(lines).rstrip(";") + "\n"


def straight_line_cases(seed: int) -> list:
    return [straight_line(seed, i, n) for i, n in enumerate(STRAIGHT_SIZES)]


def synth_mixed_cases(seed: int) -> list:
    """MIXED_PER_SIZE programs of each size; a seeded one of each group
    is ill-typed, a quarter of all programs."""
    rng = random.Random(f"synth_mixed:ill:{seed}")
    cases = []
    for n in MIXED_SIZES:
        ill = rng.randrange(MIXED_PER_SIZE)
        cases += [synth_mixed(seed, len(cases), n, k == ill) for k in range(MIXED_PER_SIZE)]
    return cases
