"""End-to-end checking: parse, generate constraints, solve, report.

The solver query binds one variable to the list of root type variables
(one per top-level binding), so a single answer carries every reported
type. Verdicts:

- Typed: the first answer was found;
- IllTyped: the search ended with no answer and cut no branch;
- Unknown: the fuel ran out, or the search ended with no answer after
  cutting at least one branch that repeated an ancestor's state (a cut
  never yields IllTyped: the repeated state may still have answers);
- Malformed: a frontend error.

Before the search, the program body's own equalities are solved as a
function's are before it is generalized (`gen.presolve`), and the search
starts from their bindings with the constraints that stay. So the
counters `constraints-dispatched`, `engine-unifications` and `fuel-used`
count the search alone, not the top-level equalities solved before it;
`constraints-generated` and `--emit-constraints` give the generator's
list.
"""

from __future__ import annotations

from typing import Optional

from .engine import Counters, State, conj, reify_term, run, unify
from .gen import GenResult, infer_program, presolve
from .solver import SolverOpts, entail_all
from .syntax import ParseError, Record, ResolveError, parse_program
from .types import (
    TagTable,
    _NameGen,
    llist,
    pretty_type,
    render_constraint,
    ty_from_term,
    _list_from_term,
)

DEFAULT_FUEL = 1_000_000

TYPED = "Typed"
ILL_TYPED = "IllTyped"
UNKNOWN = "Unknown"
MALFORMED = "Malformed"

EXIT_CODES = {TYPED: 0, ILL_TYPED: 1, UNKNOWN: 2, MALFORMED: 3}


class CheckOptions(Record):
    __slots__ = ("fuel", "max_answers", "max_constructors", "prune", "emit_constraints")

    def __init__(self, fuel: int = DEFAULT_FUEL, max_answers: int = 1,
                 max_constructors: Optional[int] = None, prune: bool = True, emit_constraints: bool = False):
        self.fuel = fuel  # at least 1
        self.max_answers = max_answers  # at least 1
        self.max_constructors = max_constructors  # None, or at least 0
        self.prune = prune
        self.emit_constraints = emit_constraints

    def validate(self):
        """Raise ValueError naming the first option out of its range."""
        if self.fuel < 1:
            raise ValueError(f"fuel must be at least 1, not {self.fuel}")
        if self.max_answers < 1:
            raise ValueError(f"max_answers must be at least 1, not {self.max_answers}")
        if self.max_constructors is not None and self.max_constructors < 0:
            raise ValueError(f"max_constructors must be at least 0, not {self.max_constructors}")


class Report(Record):
    __slots__ = ("verdict", "bindings", "table", "message", "stats", "constraints_rendered")

    def __init__(self, verdict: str, bindings: Optional[list] = None, table: Optional[TagTable] = None,
                 message: str = "", stats: Optional[dict] = None, constraints_rendered: Optional[list] = None):
        self.verdict = verdict
        self.bindings = [] if bindings is None else bindings  # of (name, reified type term)
        self.table = table
        self.message = message
        self.stats = {} if stats is None else stats
        self.constraints_rendered = [] if constraints_rendered is None else constraints_rendered

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.verdict]

    def render_bindings(self) -> list:
        names = _NameGen()
        return [f"{name} : {pretty_type(ty, self.table, names)}" for name, ty in self.bindings]


def _stats_dict(counters: Counters, generated: int) -> dict:
    return {
        "constraints-generated": generated,
        "constraints-dispatched": counters.dispatched,
        "engine-unifications": counters.unifications,
        "answers-requested": counters.answers_requested,
        "answers-found": counters.answers_found,
        "fuel-used": counters.steps,
    }


def solve_gen(genr: GenResult, options: CheckOptions):
    """Run the solver over a generation result, from the substitution
    that solves the program body's own equalities: every generator
    variable is the program's. Returns (RunResult, Counters)."""
    opts = SolverOpts(genr.table, prune=options.prune, max_ctors=options.max_constructors)
    counters = Counters()
    counters.generated = len(genr.constraints)
    roots = llist([t for _, t in genr.roots])
    kept, subst = presolve(0, genr.constraints, until_clash=True)
    goal = entail_all(kept, opts)

    def query(q):
        # q is Var(0); the generator's variables are Var(1) ... Var(n),
        # so the start state's counter is carried past them before the
        # solver allocates its own.
        def start(state):
            st = State(subst, state.diseqs, state.hooks, state.counter + genr.var_count, state.counters)
            return conj(unify(q, roots), goal)(st)

        return start

    result = run(query, max_answers=options.max_answers, fuel=options.fuel, counters=counters)
    return result, counters


def check_source(source: str, options: Optional[CheckOptions] = None) -> Report:
    """Check one program. Raises ValueError when an option is out of its
    range (see `CheckOptions.validate`)."""
    options = options or CheckOptions()
    options.validate()
    try:
        prog = parse_program(source)
    except (ParseError, ResolveError) as exc:
        return Report(MALFORMED, message=str(exc))
    genr = infer_program(prog)
    rendered = []
    if options.emit_constraints:
        rendered = [render_constraint(c, genr.table) for c in genr.constraints]
    result, counters = solve_gen(genr, options)
    stats = _stats_dict(counters, len(genr.constraints))
    if result.answers:
        answer = result.answers[0]
        types, _ = _list_from_term(answer)
        bindings = [(name, ty_from_term(t)) for (name, _), t in zip(genr.roots, types)]
        return Report(TYPED, bindings, genr.table, stats=stats, constraints_rendered=rendered)
    verdict, message = ILL_TYPED, ""
    if result.fuel_exhausted:
        verdict, message = UNKNOWN, f"fuel exhausted after {counters.steps} steps"
    elif counters.cycle is not None:
        term, subst, at, ancestor = counters.cycle
        verdict = UNKNOWN
        where = _render_at(term, subst, genr.table)
        message = f"search cycles: {where} at dispatch {at} repeats dispatch {ancestor}"
    elif counters.last_constraint is not None:
        message = _render_at(*counters.last_constraint, genr.table)
    return Report(verdict, table=genr.table, message=message, stats=stats, constraints_rendered=rendered)


def _render_at(term, subst, table: TagTable) -> str:
    """A constraint as it reads under subst."""
    reified = reify_term(term, subst)
    try:
        return render_constraint(reified, table)
    except (ValueError, IndexError):
        return repr(reified)


def check_file(path: str, options: Optional[CheckOptions] = None) -> Report:
    """Check the program in a UTF-8 file. Raises OSError, naming the
    path, when the file cannot be read or is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
    except UnicodeDecodeError as exc:
        raise OSError(None, f"not UTF-8: {exc.reason} at offset {exc.start}", path) from exc
    return check_source(source, options)
