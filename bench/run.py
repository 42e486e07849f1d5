"""semlab benchmark: time to a proven, correct verdict.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload prism-deficiency --seed 1 --seconds 30 --trace 0

The benchmark imports semlab from `src/` of the checkout it sits in and
fails (exit 2, no result line) when that source is missing. One client in
one thread runs the workload's tasks in a closed loop: each task starts
after the previous verdict. A run sets up several times (fresh import plus
the seeded inputs), runs the workload's `semlab ...` command in-process,
then repeats passes over the tasks until `--seconds` have gone by.

`--trace 0` prints the end-to-end metrics. `--trace 1` is a separate run
that records spans around every call into semlab's public functions,
alternates untraced and traced passes on the same inputs, and prints the
per-layer metrics; the spans are written to `.bench_out/`. The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
`--smoke` shrinks every size for the smoke test.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracing import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS, WrongVerdict  # noqa: E402

SETUP_REPEATS = 7
# A CLI call cheaper than this share of the run is repeated after every pass.
CLI_REPEAT_SHARE = 0.05
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "task_p50_ms": "ms",
    "cli_s": "s",
    "decided_ratio": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "search.find_sem_refute_s": "s",
    "search.find_sem_witness_s": "s",
    "search.find_sem.prism6.x0_s": "s",
    "search.find_sem.prism7.x0_s": "s",
    "search.budget_nodes_per_s": "nodes/s",
    "search.deficiency_s": "s",
    "search.strength_s": "s",
    "search.find_harmonious_s": "s",
    "search.find_sequential_s": "s",
    "search.find_alpha_valuation_s": "s",
    "search.deficiency.found_ratio": "ratio",
    "search.find_harmonious.found_ratio": "ratio",
    "search.find_sequential.found_ratio": "ratio",
    "search.find_alpha_valuation.found_ratio": "ratio",
    "graphs.parse_graph6_s": "s",
    "graphs.enumerate_trees_s": "s",
    "graphs.trees": "count",
    "graphs.enumerate_k_minus_s": "s",
    "graphs.k_minus_graphs": "count",
    "sidon.rho_star_s": "s",
    "sidon.rho_star.n10_s": "s",
    "sidon.rho_star_budget_nodes_per_s": "nodes/s",
    "sidon.max_clique_s": "s",
    "sidon.certify_s": "s",
    "sidon.certified_ratio": "ratio",
    "sidon.recheck_s": "s",
    "labelings.verify_s": "s",
    "labelings.certificate_json_s": "s",
    "bounds.l_bracket_s": "s",
    "cli.main_s": "s",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_ratio": "ratio",
}


class Tally:
    """Per-task times and verdict counts of one run."""

    def __init__(self):
        self.times: list[float] = []
        self.decided = 0
        self.wrong: list[str] = []

    def run(self, tr, what, g, fn, *args) -> None:
        """Time one task; `fn` returns True for a proven verdict, False for an
        undecided one, and raises WrongVerdict for a wrong one. `g` is the
        input graph, named in the failure message."""
        tr.task = len(self.times)
        t0 = time.perf_counter()
        try:
            decided = fn(*args)
        except WrongVerdict as exc:
            decided = False
            self._fail(what, g, str(exc))
        except Exception as exc:  # an engine that fails is a failed task, not a crash
            decided = False
            self._fail(what, g, f"{type(exc).__name__}: {exc}")
        self.times.append(time.perf_counter() - t0)
        if decided:
            self.decided += 1

    def _fail(self, what, g, message: str) -> None:
        where = "" if g is None else f" on edges {list(g.edges)} of order {g.p}"
        self.wrong.append(f"{what}{where}: {message}")

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.wrong.append(message)


def fresh_import():
    """Import semlab and semlab.cli from the checkout, dropping any earlier copy."""
    for name in [m for m in sys.modules if m == "semlab" or m.startswith("semlab.")]:
        del sys.modules[name]
    sl = importlib.import_module("semlab")
    importlib.import_module("semlab.cli")
    if not Path(sl.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"semlab imported from {sl.__file__}, not from {SRC}")
    return sl


def set_up(wl, seed, tr):
    tally = Tally()
    sl = fresh_import()
    pool = wl.setup(sl, seed, tr, tally)
    return sl, pool, tally


def run_cli(sl, argv, expected: str, tally: Tally) -> float:
    """One in-process `semlab ...` call with stdout captured; its seconds."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sl.cli.main(argv)
    elapsed = time.perf_counter() - t0
    tally.expect(code == 0, f"semlab {' '.join(argv)} exited {code}")
    tally.expect(out.getvalue() == expected, f"semlab {' '.join(argv)}: stdout differs from the stored file")
    return elapsed


def keep_going(done: list[float], minimum: int, deadline: float) -> bool:
    """Closed loop: start another pass only if one is expected to fit."""
    if len(done) < minimum:
        return True
    return time.perf_counter() + statistics.median(done) <= deadline


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def timed_run(wl, seed, seconds, expected):
    # This machine slows down in bursts of a few seconds, so the repeated
    # set-ups and cheap CLI calls are spread between passes, not bunched.
    t0 = time.perf_counter()
    sl, pool, tally = set_up(wl, seed, NullTracer())
    setups = [time.perf_counter() - t0]
    tr = NullTracer()
    deadline = time.perf_counter() + seconds
    cli_times = [run_cli(sl, wl.cli_argv, expected, tally)]
    repeat_cli = cli_times[0] < CLI_REPEAT_SHARE * seconds
    walls: list[float] = []
    rounds: list[float] = []
    while keep_going(rounds, MIN_PASSES, deadline):
        inputs = pool[len(walls) % len(pool)]
        t0 = time.perf_counter()
        wl.run_pass(sl, inputs, tr, tally)
        walls.append(time.perf_counter() - t0)
        if repeat_cli:
            cli_times.append(run_cli(sl, wl.cli_argv, expected, tally))
        if len(setups) < SETUP_REPEATS:
            t1 = time.perf_counter()
            set_up(wl, seed, NullTracer())
            setups.append(time.perf_counter() - t1)
        rounds.append(time.perf_counter() - t0)
    times_ms = sorted(t * 1000 for t in tally.times)
    metrics = {
        "wall_s": median(walls),
        "setup_s": median(setups),
        "task_p50_ms": median(times_ms),
        "cli_s": median(cli_times),
        "decided_ratio": tally.decided / len(tally.times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"passes = {len(walls)}", f"tasks = {len(times_ms)}",
        f"cli calls = {len(cli_times)}", f"set-ups = {len(setups)}",
    ]
    # A percentile is reported only with at least ten samples beyond it.
    if len(times_ms) >= 1000:
        p99 = statistics.quantiles(times_ms, n=100)[98]
        notes.append(f"task_p99_ms = {p99:.6g} ms (n = {len(times_ms)})")
    return metrics, END_TO_END, tally, len(cli_times), notes


def traced_run(wl, seed, seconds, expected, trace_path):
    tr = Tracer()
    with tr.span("setup"):
        sl, pool, tally = set_up(wl, seed, tr)
    deadline = time.perf_counter() + seconds
    tr.phase = "cli"
    with tr.span("cli.main"):
        run_cli(sl, wl.cli_argv, expected, tally)
    tr.phase = "cli-lib"
    with tr.span("cli.library"):
        wl.library_equivalent(sl, tr, tally)
    tr.phase = "anchor"
    wl.anchors(sl, tr, tally)

    untraced, traced = [], []
    null = NullTracer()
    while keep_going([a + b for a, b in zip(untraced, traced)], MIN_TRACED_PAIRS, deadline):
        inputs = pool[len(traced) % len(pool)]
        t0 = time.perf_counter()
        wl.run_pass(sl, inputs, null, tally)
        untraced.append(time.perf_counter() - t0)
        tr.phase = f"pass{len(traced)}"
        t0 = time.perf_counter()
        with tr.span("pass"):
            wl.run_pass(sl, inputs, tr, tally)
        traced.append(time.perf_counter() - t0)
    trace_path.parent.mkdir(exist_ok=True)
    tr.write(trace_path)

    phases = [f"pass{k}" for k in range(len(traced))]
    per_pass = [tr.durations(p) for p in phases]

    def pass_seconds(name):
        return median([sum(d.get(name, ())) for d in per_pass])

    def found_ratio(name):
        tags = [tag for tag, _ in tr.tagged(name) if tag in ("found", "none")]
        return tags.count("found") / len(tags) if tags else 0.0

    def nodes_per_s(name, node_limit):
        spent = median([s for d in per_pass for s in d.get(name, ())])
        return node_limit / spent if spent else 0.0

    def tagged_seconds(name, tag):
        return median([s for t, s in tr.tagged(name) if t == tag])

    setup = tr.durations("setup")
    cli_main = tr.durations("cli")["cli.main"][0]
    cli_lib = tr.durations("cli-lib")
    x0_tags = getattr(wl, "x0_tags", {})
    accounted = []
    for p, plain in zip(phases, untraced):
        own = tr.self_times(p)
        accounted.append((sum(own.values()) - own["pass"]) / plain)

    metrics = {name: pass_seconds(name[:-2]) for name in PER_LAYER if name.endswith("_s")}
    for name in (
        "search.deficiency", "search.find_harmonious",
        "search.find_sequential", "search.find_alpha_valuation",
    ):
        metrics[name + ".found_ratio"] = found_ratio(name)
    for name, x0 in x0_tags.items():
        metrics[name] = median(
            [s for phase in ("cli-lib", "anchor")
             for n in ("search.find_sem_refute", "search.find_sem_witness")
             for t, s in tr.tagged(n, phase) if t == x0]
        )
    metrics.update({
        "search.budget_nodes_per_s": nodes_per_s("search.find_sem_budgeted", getattr(wl, "node_limit", 0)),
        "graphs.parse_graph6_s": sum(setup.get("graphs.parse_graph6", ())),
        "graphs.enumerate_trees_s": sum(setup.get("graphs.enumerate_trees", ())),
        "graphs.trees": sum(int(t) for t, _ in tr.tagged("graphs.enumerate_trees")),
        "graphs.k_minus_graphs": median(
            [sum(int(t) for t, _ in tr.tagged("graphs.enumerate_k_minus", p)) for p in phases]
        ),
        "sidon.rho_star.n10_s": tagged_seconds("sidon.rho_star", "n10"),
        "sidon.rho_star_budget_nodes_per_s": nodes_per_s("sidon.rho_star_budgeted", getattr(wl, "node_limit", 0)),
        "sidon.certified_ratio": found_ratio("sidon.certify"),
        "bounds.l_bracket_s": sum(cli_lib.get("bounds.l_bracket", ())),
        "cli.main_s": cli_main,
        "cli.overhead_s": cli_main - cli_lib["cli.library"][0],
        "trace.overhead_s": median([b - a for a, b in zip(untraced, traced)]),
        "trace.accounted_ratio": median(accounted),
    })
    notes = [f"traced passes = {len(traced)}", f"spans = {len(tr.spans)} -> {trace_path.relative_to(ROOT)}"]
    return metrics, PER_LAYER, tally, 1, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "semlab" / "__init__.py").is_file():
        print(f"error: no semlab source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload](args.smoke)
    expected = (HERE / "expected" / wl.cli_expected).read_text(encoding="ascii")
    if args.trace:
        trace_path = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
        metrics, units, tally, cli_calls, notes = traced_run(wl, args.seed, args.seconds, expected, trace_path)
    else:
        metrics, units, tally, cli_calls, notes = timed_run(wl, args.seed, args.seconds, expected)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes:
        print(line)
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    for message in tally.wrong[:20]:
        print(f"WRONG: {message}")
    result = {
        "correct": not tally.wrong,
        "attempted": len(tally.times) + cli_calls,
        "failed": len(tally.wrong),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
