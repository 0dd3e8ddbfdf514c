"""Interval branch-and-prune solver for quantified inequality systems.

Computes inner and boundary pavings for problems of the form: find the
x in a box such that f_i(x, y) <= 0 holds for every y in a parameter
box and every constraint i.
"""

from .interval import EMPTY, Box, Interval
from .expr import (
    Binary,
    Const,
    Expression,
    ParseError,
    Pow,
    Unary,
    VarKind,
    VarRef,
    derivative_interval,
    eval_interval,
    parse_expression,
    render,
)
from .contractor import InequalityConstraint, Relation, backward_project, hc4_revise
from .solver import (
    Paving,
    Problem,
    QuantifiedConstraint,
    SolveStats,
    SolverConfig,
    branch,
    classified_ratio,
    global_pruning,
    local_pruning,
    parameter_domain_bisection,
    parameter_instantiation,
    solution_identification,
    solve,
)

__version__ = "0.1.0"

# The command-line names load qine.cli on first use: were it imported
# here, ``python -m qine.cli`` would find it loaded before running it.
_CLI_NAMES = ("ProblemError", "parse_problem", "format_report", "parse_report", "emit_svg", "run")


def __getattr__(name: str) -> object:
    if name in _CLI_NAMES:
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Interval",
    "Box",
    "EMPTY",
    "VarKind",
    "VarRef",
    "Const",
    "Unary",
    "Binary",
    "Pow",
    "Expression",
    "ParseError",
    "parse_expression",
    "render",
    "eval_interval",
    "derivative_interval",
    "Relation",
    "InequalityConstraint",
    "hc4_revise",
    "backward_project",
    "Problem",
    "QuantifiedConstraint",
    "SolverConfig",
    "SolveStats",
    "Paving",
    "parameter_instantiation",
    "local_pruning",
    "global_pruning",
    "solution_identification",
    "parameter_domain_bisection",
    "branch",
    "solve",
    "classified_ratio",
    "ProblemError",
    "parse_problem",
    "format_report",
    "parse_report",
    "emit_svg",
    "run",
]
