"""One benchmark sample, run in a fresh single-threaded process.

    python3 bench/child.py setup WORKLOAD
    python3 bench/child.py sample WORKLOAD
    python3 bench/child.py trace WORKLOAD SEED

``setup`` times a fresh ``import qine`` plus ``parse_problem`` plus
``SolverConfig``.  ``sample`` also times ``solve`` (progress=None) and
``format_report`` (median of five calls).  Times are rescaled to a
reference host speed by bench/probe.py, with probe runs on both sides of
each timed region.  ``trace`` runs the micro-benchmarks, an untraced solve,
a solve with a progress callback for per-node latency, and a traced solve.

The first stdout line is a JSON object of measurements; a report follows
it for ``sample`` and ``trace``.  Only the library path
parse_problem -> SolverConfig -> solve -> format_report is used.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time

from workloads import ROOT, WORKLOADS


def paving_sha256(report: str) -> str:
    """Hash of a report without its non-deterministic '# elapsed' line."""
    kept = [ln for ln in report.splitlines(True) if not ln.startswith("# elapsed:")]
    return hashlib.sha256("".join(kept).encode()).hexdigest()


def peak_rss_mb() -> float:
    """This process's peak resident set size.

    ru_maxrss also counts the parent's resident set inherited at fork, so
    the kernel's high-water mark for this image is read where it exists.
    """
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ledger(paving) -> dict[str, str]:
    """The solver's exact volume ledger, as rational strings."""
    s = paving.stats
    return {k: str(getattr(s, "exact_" + k)) for k in ("initial", "inner", "boundary", "queued")}


def setup(workload):
    """Time a fresh import of qine plus parse_problem plus SolverConfig.

    Callers import the probe module only afterwards, so that none of
    qine's imports is loaded ahead of the timer.
    """
    text = workload.problem.read_text()
    t0 = time.perf_counter()
    import qine

    problem = qine.parse_problem(text, name=workload.problem_name)
    cfg = qine.SolverConfig(**workload.flags)
    return qine, problem, cfg, time.perf_counter() - t0


def run_setup(workload) -> None:
    _, _, _, setup_s = setup(workload)
    from probe import probe_s, scale

    k = scale(probe_s(), probe_s())
    print(json.dumps({"setup_s": setup_s * k, "setup_wall_s": setup_s}))


REPORTS = 5


def run_sample(workload) -> None:
    qine, problem, cfg, setup_s = setup(workload)
    from probe import probe_s, scale

    before = [probe_s(), probe_s()]
    t0 = time.perf_counter()
    paving = qine.solve(problem, cfg)
    solve_s = time.perf_counter() - t0
    between = [probe_s(), probe_s()]
    report_times = []
    for _ in range(REPORTS):
        t0 = time.perf_counter()
        report = qine.format_report(problem, cfg, paving)
        report_times.append(time.perf_counter() - t0)
    after = [probe_s(), probe_s()]
    # each timed region is rescaled by the probes next to it
    k = scale(*before, *between)
    out = {
        "setup_s": setup_s * scale(*before),
        "solve_s": solve_s * k,
        "report_s": statistics.median(report_times) * scale(*between, *after),
        "solve_wall_s": solve_s,
        "speed": k,
        "peak_rss_mb": peak_rss_mb(),
        "nodes": paving.stats.nodes_processed,
        "classified_ratio": qine.classified_ratio(paving),
        "ledger": ledger(paving),
    }
    sys.stdout.write(json.dumps(out) + "\n" + report)


def run_trace(workload, seed: int) -> None:
    import micro
    from probe import probe_s, scale
    from tracer import Tracer

    qine, problem, cfg, _ = setup(workload)
    cases = micro.interval_cases(seed, len(problem.variable_box))
    cases.update(micro.expr_cases(problem))
    metrics = micro.rescaled_ns(cases)

    before = probe_s()
    t0 = time.perf_counter()
    plain = qine.solve(problem, cfg)
    t1 = time.perf_counter()
    after = probe_s()
    untraced_s = (t1 - t0) * scale(before, after)

    ticks = [time.perf_counter()]
    watched = qine.solve(problem, cfg, progress=lambda _: ticks.append(time.perf_counter()))
    before, after = after, probe_s()
    k = scale(before, after) * 1e6
    node_us = [(b - a) * k for a, b in zip(ticks, ticks[1:])]

    tracer = Tracer()
    tracer.install(micro.tree_size)
    try:
        text = workload.problem.read_text()
        for _ in range(20):
            problem = tracer.call("cli.parse_problem", qine.parse_problem, text, name=workload.problem_name)
        cfg = qine.SolverConfig(**workload.flags)
        paving = tracer.call("solver.solve", qine.solve, problem, cfg)
        for _ in range(5):
            report = tracer.call("cli.format_report", qine.format_report, problem, cfg, paving)
    finally:
        tracer.uninstall()
    k = scale(after, probe_s())

    spans = tracer.summary()
    under_solve = tracer.direct_children_total("solver.solve")
    traced = layer_metrics(spans, under_solve, tracer.counts)
    for name, value in traced.items():
        metrics[name] = value * k if name.endswith(TIMES) else value
    metrics["solver.node_us_p50"] = statistics.median(node_us)
    metrics["solver.node_us_p99"] = statistics.quantiles(node_us, n=100)[98]
    metrics["cli.report_bytes"] = len(report.encode())
    metrics["trace.overhead_frac"] = metrics["trace.solve_s"] / untraced_s - 1.0
    solve_s = spans["solver.solve"]["total_s"]
    accounted = spans["solver.solve"]["self_s"] + sum(
        under_solve.get(n, 0.0) for n in (*PHASES.values(), *LEDGER)
    )
    out = {
        "metrics": metrics,
        "ledger": ledger(paving),
        "phase_sum_gap": (accounted - solve_s) / solve_s,
        "other_hashes": [
            paving_sha256(qine.format_report(problem, cfg, p)) for p in (plain, watched)
        ],
    }
    sys.stdout.write(json.dumps(out) + "\n" + report)


PHASES = {
    "instantiation": "solver.instantiation",
    "pruning": "solver.pruning",
    "identification": "solver.identification",
    "param_bisect": "solver.param_bisect",
    "branch": "solver.branch",
}
LEDGER = ("box.exact_volume", "solver.classified_ratio")
TIMES = ("_s", "_ns_per_node")


def layer_metrics(spans, under_solve, counts) -> dict[str, float]:
    """Per-layer metrics from span totals, in wall time; zero where a layer never ran."""

    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    interval = [v for k, v in spans.items() if k.startswith("interval.")]
    solve_s = get("solver.solve", "total_s")
    hc4_calls = get("contractor.hc4_revise", "calls")
    hc4_self = get("contractor.hc4_revise", "self_s")
    m = {
        "interval.div_calls": get("interval.truediv", "calls") + get("interval.rtruediv", "calls"),
        "interval.ops": sum(v["calls"] for v in interval),
        "interval.self_s": sum(v["self_s"] for v in interval),
        "expr.derivative_calls": get("expr.derivative_interval", "calls"),
        "expr.derivative_s": get("expr.derivative_interval", "self_s"),
        "contractor.hc4_calls": hc4_calls,
        "contractor.hc4_s": hc4_self,
        "contractor.hc4_ns_per_node": ratio(hc4_self * 1e9, counts.get("hc4_tree_nodes", 0)),
        "contractor.hc4_empty_ratio": ratio(counts.get("hc4_empty", 0), hc4_calls),
    }
    # Phases do not nest in one another, so each phase's time includes the
    # layers below it; together with the ledger and the loop's own time
    # they partition solve_s.
    for phase, name in PHASES.items():
        m[f"solver.{phase}_calls"] = get(name, "calls")
        m[f"solver.{phase}_s"] = under_solve.get(name, 0.0)
    m["solver.store_mean"] = ratio(get("solver.local_pruning", "calls"), get("solver.pruning", "calls"))
    m["solver.prune_reject_ratio"] = ratio(counts.get("prune_rejects", 0), get("solver.pruning", "calls"))
    m["solver.inner_pieces_per_ident"] = ratio(
        counts.get("inner_pieces", 0), get("solver.identification", "calls")
    )
    m["solver.ledger_s"] = sum(get(n, "total_s") for n in LEDGER)
    m["solver.loop_self_s"] = get("solver.solve", "self_s")
    m["cli.parse_problem_s"] = ratio(get("cli.parse_problem", "total_s"), get("cli.parse_problem", "calls"))
    m["cli.format_report_s"] = ratio(get("cli.format_report", "total_s"), get("cli.format_report", "calls"))
    m["trace.solve_s"] = solve_s
    return m


def main(argv: list[str]) -> None:
    mode, name = argv[0], argv[1]
    workload = WORKLOADS[name]
    if mode == "setup":
        run_setup(workload)
    elif mode == "sample":
        run_sample(workload)
    elif mode == "trace":
        run_trace(workload, int(argv[2]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    main(sys.argv[1:])
