"""The functions of the qine package that no command-line or benchmark path enters.

Run as ``python tests/reach.py``.  In one process, under ``sys.setprofile``,
it imports qine and then runs:

- the command line (``cli.run``, and ``cli.main`` once) on every problem
  of ``problems/``, in both modes, with ``--svg`` and ``--stats``, with and
  without the ratio and node stops and parameter bisection, and
  ``parse_report`` on each report it writes;
- a solve of each benchmark workload under ``bench/tracer.py``'s
  ``Tracer.install``, with a progress callback, and its report;
- ``bench/micro.py``'s interval and expr cases of each workload, each once.

It then prints every function defined in ``src/qine`` whose code none of
them entered, with its line count, and a total.  A nested function is
listed only where the function around it was entered.  Every file the
runs write goes into a temporary directory; the exit status is 0.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qine"
MODES = ("2b", "2b+")
# each problem runs once per mode with each of these flag sets, and once
# more with an SVG and the statistics; the eps keeps the runs small, and
# every solver phase still runs
RUNS = (
    ["--eps", "0.01"],
    ["--eps", "0.01", "--ratio", "0.9"],
    ["--eps", "0.01", "--max-nodes", "5"],
    ["--eps", "0.01", "--param-bisect", "off", "--time-limit", "60"],
)


def _functions() -> list[tuple[str, int, int, str, tuple[str, int] | None]]:
    """(file, first line, last line, qualified name, enclosing function's key) of every def in the package."""
    found = []

    def walk(node, path: str, prefix: str, outer: tuple[str, int] | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a decorated function's code starts at its first decorator
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found.append((path, first, child.end_lineno, prefix + child.name, outer))
                walk(child, path, f"{prefix}{child.name}.", (path, first))
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.", outer)
            else:
                walk(child, path, prefix, outer)

    for module in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(module.read_text()), str(module), "", None)
    return found


def _cli_paths(tmp: Path) -> None:
    from qine import cli

    sink, errors = io.StringIO(), io.StringIO()
    for problem in sorted((ROOT / "problems").glob("*.qcsp")):
        for mode in MODES:
            for k, flags in enumerate(RUNS):
                out = tmp / f"{problem.stem}-{mode}-{k}.txt"
                with contextlib.redirect_stderr(errors):
                    cli.run(["solve", str(problem), "--mode", mode, *flags, "--out", str(out)])
                cli.parse_report(out.read_text())
            # to stdout, with an SVG: a problem of one variable stops at the axes check
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(errors):
                cli.run(["solve", str(problem), "--mode", mode, "--eps", "0.01", "--svg", str(tmp / "p.svg"), "--stats"])
            if sink.getvalue():
                cli.parse_report(sink.getvalue())
            sink.seek(0)
            sink.truncate()
    argv, sys.argv = sys.argv, ["qine", "solve", str(ROOT / "problems" / "ex1.qcsp"), "--out", str(tmp / "main.txt")]
    try:
        cli.main()
    except SystemExit:
        pass
    finally:
        sys.argv = argv


def _bench_paths() -> None:
    import micro
    import qine
    from tracer import Tracer
    from workloads import WORKLOADS

    for workload in WORKLOADS.values():
        tracer = Tracer()
        tracer.install(micro.tree_size)
        try:
            problem = tracer.call("cli.parse_problem", qine.parse_problem, workload.problem.read_text(), name=workload.problem_name)
            cfg = qine.SolverConfig(**workload.flags)
            paving = tracer.call("solver.solve", qine.solve, problem, cfg, progress=lambda _: None)
            tracer.call("cli.format_report", qine.format_report, problem, cfg, paving)
            qine.classified_ratio(paving)
        finally:
            tracer.uninstall()
        cases = micro.interval_cases(1, len(problem.variable_box))
        cases.update(micro.expr_cases(problem))
        for run, _ in cases.values():
            run()


def main() -> None:
    sys.dont_write_bytecode = True  # no __pycache__ beside the sources
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    entered: set = set()

    def profile(frame, event, arg) -> None:
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        import qine  # noqa: F401  (import-time calls count as entered)

        with tempfile.TemporaryDirectory() as tmp:
            _cli_paths(Path(tmp))
        _bench_paths()
    finally:
        sys.setprofile(None)

    reached = {(code.co_filename, code.co_firstlineno) for code in entered}
    unreached = {}
    for path, first, last, name, outer in _functions():
        if (path, first) not in reached and (outer is None or outer in reached):
            unreached[path, first] = (name, last - first + 1)
    print("functions of src/qine that no command-line or benchmark path enters")
    for (path, first), (name, lines) in unreached.items():
        print(f"{Path(path).name}:{first}  {name}  {lines} lines")
    total = sum(lines for _, lines in unreached.values())
    print(f"total: {len(unreached)} functions, {total} lines")


if __name__ == "__main__":
    main()
