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
from .cli import main

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
