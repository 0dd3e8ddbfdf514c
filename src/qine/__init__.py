"""Interval branch-and-prune solver for quantified inequality systems.

Computes inner and boundary pavings for problems of the form: find the
x in a box such that f_i(x, y) <= 0 holds for every y in a parameter
box and every constraint i.
"""

from . import contractor, expr, interval, solver
from .interval import *
from .expr import *
from .contractor import *
from .solver import *

__version__ = "0.1.0"

# The command-line names load qine.cli on first use: were it imported
# here, ``python -m qine.cli`` would find it loaded before running it.
_CLI_NAMES = ("ProblemError", "parse_problem", "format_report", "parse_report", "emit_svg", "run")


def __getattr__(name: str) -> object:
    if name in _CLI_NAMES:
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [*interval.__all__, *expr.__all__, *contractor.__all__, *solver.__all__, *_CLI_NAMES]
