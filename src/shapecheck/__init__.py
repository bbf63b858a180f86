"""Static shape-type checker for an untyped functional language.

The pipeline: parse mini-Lama source, extract atomic typing constraints,
and decide their consistency with a relational solver that supports
equirecursive types via occurs hooks, search pruning and weight-based
constraint scheduling.
"""

from .checker import (
    CheckOptions,
    Report,
    check_file,
    check_source,
    DEFAULT_FUEL,
    ILL_TYPED,
    MALFORMED,
    TYPED,
    UNKNOWN,
)

__all__ = [
    "CheckOptions",
    "Report",
    "check_file",
    "check_source",
    "main",
    "DEFAULT_FUEL",
    "TYPED",
    "ILL_TYPED",
    "UNKNOWN",
    "MALFORMED",
]


def __getattr__(name):
    # `main` is loaded on first use: the CLI imports argparse, which a
    # library caller does not need (PEP 562).
    if name == "main":
        from .cli import main

        return main
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
