"""Seeded end-to-end and per-layer benchmark of the ``hyperhomology`` CLI.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lattice-ladder --seed 1 --seconds 30 --trace 0

With ``--trace 0`` every query runs as its own ``python -m hyperhomology``
process, in a closed loop with one client: the next query starts only when
the previous one has exited.  Whole passes over the workload's query list
repeat while the next pass is expected to end within ``--seconds``.  After
each query a fixed probe process that does not import the program gauges
the host's speed, and each query's wall time is scaled to the probe's
nominal speed (see :func:`scaled_latencies`).  The result has the
end-to-end metrics.

With ``--trace 1`` each query of one pass is replayed twice in this process
through ``hyperhomology.cli.run_command``: once plain and once with every
public function of every layer wrapped in a span (see :mod:`tracer`),
alternating which goes first.  The result has the per-layer metrics; the
spans go to a sidecar file.

Every answer is checked with the benchmark's own arithmetic after the timed
region.  A query fails if its exit code is wrong, its answer fails the
check, or it runs past the per-query cap.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it name every metric with its unit, the sample count and
the run environment, which also go to a result file under
``perfbench/_out``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "_out"

QUERY_CAP_S = 20.0
# No query starts later than this into a run, and none runs past it; the
# rest are recorded as not run (and failed), so a run always ends well
# within three minutes.
RUN_BUDGET_S = 140.0
SETUP_REPEATS = 5
SPAWN_PROBES = 11
TAIL_PERCENTILE = 80
# The probe: a fresh interpreter that runs a fixed pure-Python loop, so it
# pays process start and bytecode work as a query does.  On a shared host
# the CPU's speed drifts by a third over seconds and by 10-20% between
# runs minutes apart, which the probe's time follows.  Its nominal time is
# its median measured on a 2-vCPU Intel Xeon VM under Python 3.11; it only
# sets the scale of the reported seconds.
PROBE = "n = 0\nfor i in range(150000):\n    n = (n * 31 + i) % 1000003\n"
PROBE_NOMINAL_S = 0.087
PROBE_WINDOW = 8


@dataclass
class Attempt:
    query: object  # workloads.Query
    code: int | None
    out: str
    elapsed: float
    note: str = ""
    skipped: bool = False

    @property
    def completed(self) -> bool:
        return self.code is not None


class QueryTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise QueryTimeout


class Runner:
    """Runs queries, each under the per-query cap and the run's deadline.

    CLI processes get the caller's environment minus every ``PYTHON*``
    setting (``PYTHONOPTIMIZE`` would strip the program's self-checks),
    plus the checkout's sources on the path.
    """

    def __init__(self):
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env["PYTHONPATH"] = str(ROOT / "src")

    def _cap(self) -> float:
        return min(QUERY_CAP_S, self.deadline - time.perf_counter())

    def child(self, query, docdir: Path | None) -> Attempt:
        """One ``python -m hyperhomology`` process."""
        cap = self._cap()
        if cap <= 0:
            return Attempt(query, None, "", 0.0, "not run: run budget spent", True)
        began = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "hyperhomology", *resolve(query.args, docdir)],
                capture_output=True,
                text=True,
                timeout=cap,
                env=self.env,
                cwd=ROOT,
            )
        except subprocess.TimeoutExpired:
            return Attempt(query, None, "", time.perf_counter() - began, "timed out")
        return Attempt(query, proc.returncode, proc.stdout, time.perf_counter() - began)

    def probe(self) -> float:
        """Wall time of one probe process."""
        began = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", PROBE],
            capture_output=True,
            check=True,
            timeout=QUERY_CAP_S,
            env=self.env,
            cwd=ROOT,
        )
        return time.perf_counter() - began

    def inprocess(self, query, docdir: Path, run_command) -> Attempt:
        """One call of ``run_command`` in this process, output captured."""
        cap = self._cap()
        if cap <= 0:
            return Attempt(query, None, "", 0.0, "not run: run budget spent", True)
        argv = resolve(query.args, docdir)
        out = io.StringIO()
        previous = signal.signal(signal.SIGALRM, _alarm)
        began = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, cap)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = run_command(argv)
        except QueryTimeout:
            return Attempt(query, None, "", time.perf_counter() - began, "timed out")
        except Exception as err:  # a crash is a failed query, not a failed run
            return Attempt(query, None, "", time.perf_counter() - began, f"raised {err!r}")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        return Attempt(query, code, out.getvalue(), time.perf_counter() - began)


def resolve(args: list[str], docdir: Path | None) -> list[str]:
    return [str(docdir / f"{a[1:]}.json") if a.startswith("@") else a for a in args]


def write_docs(workload, docdir: Path) -> None:
    for name, doc in workload.docs.items():
        text = doc if isinstance(doc, str) else json.dumps(doc)
        (docdir / f"{name}.json").write_text(text, encoding="utf-8")


class SetupError(RuntimeError):
    pass


def setup(build, seed: int, smoke: bool, runner: Runner, checker_cls):
    """Generate and write the documents, then run one untimed warm-up
    query.  Returns the workload, its document directory and the time."""
    began = time.perf_counter()
    workload = build(seed, smoke)
    docdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR))
    write_docs(workload, docdir)
    warmup = runner.child(workload.warmup, docdir)
    elapsed = time.perf_counter() - began
    problems = checker_cls(workload.docs).problems(workload.warmup, warmup.code, warmup.out)
    if not warmup.completed or problems:
        shutil.rmtree(docdir, ignore_errors=True)
        raise SetupError(f"warm-up query failed: {warmup.note or problems}")
    return workload, docdir, elapsed


def evaluate(attempts: list[Attempt], checker) -> tuple[int, list[str]]:
    """Count failed attempts; returns the count and a sample of reasons."""
    verdicts: dict = {}
    failed = 0
    reasons = []
    for a in attempts:
        if not a.completed:
            problems = [a.note]
        else:
            key = (id(a.query), a.code, a.out)
            if key not in verdicts:
                verdicts[key] = checker.problems(a.query, a.code, a.out)
            problems = verdicts[key]
        if problems:
            failed += 1
            if len(reasons) < 10:
                reasons.append(f"{' '.join(a.query.args)}: {problems[0]}")
    return failed, reasons


def nearest_rank(values: list[float], percentile: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percentile / 100 * len(ordered)) - 1)]


def run_untraced(workload, docdir: Path, seconds: float, runner: Runner):
    """Whole passes over the query list, one process per query and a probe
    after each, while the next pass is expected to end within ``seconds``.
    Returns the attempts, the probe time after each (None after a query
    that did not run) and the wall time of each pass."""
    attempts: list[Attempt] = []
    probes: list[float | None] = []
    passes: list[float] = []
    began = time.perf_counter()
    while True:
        pass_began = time.perf_counter()
        for query in workload.queries:
            attempt = runner.child(query, docdir)
            attempts.append(attempt)
            probes.append(None if attempt.skipped else runner.probe())
        now = time.perf_counter()
        passes.append(now - pass_began)
        if now - began + passes[-1] > seconds or now >= runner.deadline:
            return attempts, probes, passes


def run_replay(workload, docdir: Path, run_command, tracer, runner: Runner):
    """Run each query in process twice, plain and traced, alternating which
    goes first, so that drift in machine speed and any benefit of running
    second fall on both sides of the overhead alike.  Returns the plain
    and the traced attempts."""
    plain: list[Attempt] = []
    traced: list[Attempt] = []
    for i, query in enumerate(workload.queries):
        for traced_turn in (i % 2 == 1, i % 2 == 0):
            if traced_turn:
                tracer.query = i
                with tracer.installed():
                    traced.append(runner.inprocess(query, docdir, run_command))
            else:
                plain.append(runner.inprocess(query, docdir, run_command))
    return plain, traced


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git;
    "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, env: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "child_command": [sys.executable, "-m", "hyperhomology"],
        "child_python_env": {k: v for k, v in env.items() if k.startswith("PYTHON")},
        "interpreter_flags": {
            k: getattr(sys.flags, k) for k in ("optimize", "dev_mode", "isolated", "no_site")
        },
    }


def scaled_latencies(attempts: list[Attempt], probes: list[float | None]) -> list[float]:
    """The wall time of each query that ran, times ``PROBE_NOMINAL_S`` over
    the median of the probes run within ``PROBE_WINDOW`` queries of it: the
    query's latency on a host where the probe takes its nominal time."""
    ran = [(a.elapsed, p) for a, p in zip(attempts, probes) if p is not None]
    gauge = [p for _, p in ran]
    return [
        elapsed * PROBE_NOMINAL_S / statistics.median(gauge[max(0, i - PROBE_WINDOW) : i + PROBE_WINDOW + 1])
        for i, (elapsed, _) in enumerate(ran)
    ]


def end_to_end(workload, attempts, probes, passes, setups, setup_probes) -> tuple[dict, list[str]]:
    wall = [a.elapsed for a in attempts if not a.skipped]
    gauge = [p for p in probes if p is not None]
    scaled = scaled_latencies(attempts, probes)
    tail = nearest_rank(scaled, TAIL_PERCENTILE)
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    metrics = {
        "queries_per_s": (len(scaled) / sum(scaled), "1/s"),
        "latency_p50_s": (statistics.median(scaled), "s"),
        "latency_tail_s": (tail, "s"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (statistics.median(setups) * PROBE_NOMINAL_S / statistics.median(setup_probes), "s"),
    }
    notes = [
        f"latency samples: {len(scaled)} queries in {len(passes)} passes of {len(workload.queries)}, "
        f"taking {', '.join(f'{p:.3f}' for p in passes)} s with the probes",
        f"latencies are scaled to a probe time of {PROBE_NOMINAL_S} s; the {len(gauge)} probes took "
        f"{min(gauge):.4f} to {max(gauge):.4f} s, median {statistics.median(gauge):.4f} s",
        f"latency_tail_s is the p{TAIL_PERCENTILE} latency ({sum(t > tail for t in scaled)} samples above it)",
        f"unscaled: median {statistics.median(wall):.4f} s, p{TAIL_PERCENTILE} "
        f"{nearest_rank(wall, TAIL_PERCENTILE):.4f} s, {len(wall) / sum(wall):.4f} queries/s of query time",
        f"setup_s is the median of {len(setups)} set-ups, {', '.join(f'{s:.4f}' for s in setups)} s, "
        f"scaled by the median of the probe after each, {', '.join(f'{p:.4f}' for p in setup_probes)} s",
    ]
    return metrics, notes


def per_layer(summary, tracer, setup_summary, spawn, plain_wall, traced_wall) -> tuple[dict, list[str]]:
    calls, total, own = summary.calls, summary.total, summary.self_time
    searches = calls.get("spanning_tree.find_spanning_tree_integer", 0)
    candidates = summary.calls_within("spanning_tree.is_integral", "spanning_tree.find_spanning_tree_integer")
    found = tracer.counters["spanning_tree.integer_found"]
    likeness = calls.get("homology.graph_likeness", 0)
    snf_in_likeness = summary.calls_within("exact_linalg.smith_normal_form", "homology.graph_likeness")
    c = lambda name: (calls.get(name, 0), "count")  # noqa: E731
    t = lambda name: (total.get(name, 0.0), "s")  # noqa: E731
    metrics = {
        "cli.spawn_s": (statistics.median(spawn), "s"),
        "cli.parse_s": t("cli.parse_document"),
        "cli.self_s": (own.get("cli.run_command", 0.0), "s"),
        "core.validate_calls": c("core.validation_report"),
        "core.validate_s": t("core.validation_report"),
        "boundary.matrix_calls": c("boundary.boundary_matrix"),
        "boundary.matrix_s": t("boundary.boundary_matrix"),
        "boundary.matrix_cells": (tracer.counters["boundary.matrix_cells"], "count"),
        "exact_linalg.snf_calls": c("exact_linalg.smith_normal_form"),
        "exact_linalg.snf_s": (own.get("exact_linalg.smith_normal_form", 0.0), "s"),
        "exact_linalg.snf_cells": (tracer.counters["exact_linalg.snf_cells"], "count"),
        "exact_linalg.snf_max_bits": (tracer.counters["exact_linalg.snf_max_bits"], "bits"),
        "exact_linalg.solve_integer_calls": c("exact_linalg.solve_integer"),
        "exact_linalg.solve_integer_s": t("exact_linalg.solve_integer"),
        "exact_linalg.solve_rational_calls": c("exact_linalg.solve_rational"),
        "exact_linalg.solve_rational_s": t("exact_linalg.solve_rational"),
        "exact_linalg.image_rank_calls": c("exact_linalg.image_rank"),
        "exact_linalg.image_rank_s": t("exact_linalg.image_rank"),
        "exact_linalg.lattice_contains_calls": c("exact_linalg.lattice_contains"),
        "homology.graph_likeness_s": t("homology.graph_likeness"),
        "homology.homology_s": t("homology.homology"),
        "homology.decomposition_s": t("homology.cycle_cut_decomposition"),
        "homology.snf_per_graph_likeness": (snf_in_likeness / likeness if likeness else 0.0, "ratio"),
        "spanning_tree.rational_s": t("spanning_tree.find_spanning_tree_rational"),
        "spanning_tree.integer_s": t("spanning_tree.find_spanning_tree_integer"),
        "spanning_tree.verify_calls": c("spanning_tree.verify_tree_axioms"),
        "spanning_tree.is_integral_calls": c("spanning_tree.is_integral"),
        "spanning_tree.candidates_per_search": (candidates / searches if searches else 0.0, "ratio"),
        "spanning_tree.hit_ratio": (found / candidates if candidates else 0.0, "ratio"),
        "fixtures.random_s": (setup_summary.total.get("fixtures.random_hypergraph", 0.0), "s"),
        "trace.spans": (len(summary.spans), "count"),
        "trace.overhead_s": (traced_wall - plain_wall, "s"),
    }
    notes = [
        f"homology.snf_per_graph_likeness: {snf_in_likeness} SNF calls within {likeness} graph_likeness calls",
        f"spanning_tree.candidates_per_search: {candidates} candidates (is_integral calls) "
        f"in {searches} integer searches",
        f"spanning_tree.hit_ratio: {found} searches found a tree, out of {candidates} candidates",
        f"trace.overhead_s: in-process replay took {traced_wall:.3f} s traced and {plain_wall:.3f} s untraced",
    ]
    return metrics, notes


def measure_end_to_end(build, args, runner, checker_cls):
    """Set up ``SETUP_REPEATS`` times, each followed by a probe, then run
    the untraced passes."""
    setups = []
    setup_probes = []
    docdir = None
    try:
        for _ in range(SETUP_REPEATS):
            if docdir is not None:
                shutil.rmtree(docdir)
            workload, docdir, elapsed = setup(build, args.seed, args.smoke, runner, checker_cls)
            setups.append(elapsed)
            setup_probes.append(runner.probe())
        attempts, probes, passes = run_untraced(workload, docdir, args.seconds, runner)
    finally:
        if docdir is not None:
            shutil.rmtree(docdir, ignore_errors=True)
    metrics, notes = end_to_end(workload, attempts, probes, passes, setups, setup_probes)
    return workload, attempts, metrics, notes


def measure_layers(build, args, runner, checker_cls, probe):
    """Set up once (tracing ``fixtures``), time the spawn probes, then
    replay one pass in process, plain and traced."""
    from hyperhomology import cli
    from tracer import SpanSummary, Tracer

    # looked up per call, so that the traced runs go through the wrapper
    run_command = lambda argv: cli.run_command(argv)  # noqa: E731
    tracer = Tracer()
    with tracer.installed():
        workload, docdir, _ = setup(build, args.seed, args.smoke, runner, checker_cls)
    try:
        setup_summary = SpanSummary(tracer.spans, lambda q: q == "setup")
        spawn = [runner.child(probe, None) for _ in range(SPAWN_PROBES)]
        runner.inprocess(workload.warmup, docdir, run_command)
        tracer.spans.clear()
        tracer.counters = dict.fromkeys(tracer.counters, 0)
        plain, traced = run_replay(workload, docdir, run_command, tracer, runner)
    finally:
        shutil.rmtree(docdir, ignore_errors=True)
    span_file = OUT_DIR / f"spans-{args.workload}-s{args.seed}.json"
    tracer.write(span_file)
    metrics, notes = per_layer(
        SpanSummary(tracer.spans, lambda q: q != "setup"),
        tracer,
        setup_summary,
        [a.elapsed for a in spawn],
        sum(a.elapsed for a in plain),
        sum(a.elapsed for a in traced),
    )
    notes += [
        f"each of {len(workload.queries)} queries ran in process once untraced and once traced",
        f"cli.spawn_s is the median of {SPAWN_PROBES} 'example path-graph' processes",
        f"{len(tracer.spans)} spans written to {OUT_DIR.name}/{span_file.name}",
    ]
    return workload, plain + traced + spawn, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny documents, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hyperhomology" / "__init__.py").is_file():
        print(f"error: no hyperhomology sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if sys.flags.optimize:
        print("error: run the benchmark without -O; it strips the program's self-checks", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import checker
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    build = workloads.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    runner = Runner()
    info = environment(args, runner.env)
    try:
        if args.trace == 0:
            workload, attempts, metrics, notes = measure_end_to_end(build, args, runner, checker.Checker)
        else:
            probe = workloads.Query(["example", "path-graph"], "example", None, {"name": "path-graph"})
            workload, attempts, metrics, notes = measure_layers(build, args, runner, checker.Checker, probe)
    except SetupError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    failed, reasons = evaluate(attempts, checker.Checker(workload.docs))
    result = {
        "correct": failed == 0,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    for key, value in info.items():
        print(f"env {key}: {value}")
    for note in notes:
        print(f"note {note}")
    print(f"note fail_ratio = {failed / len(attempts):.6f} ({failed} of {len(attempts)} queries failed)")
    for reason in reasons:
        print(f"fail {reason}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    samples = [
        {"query": " ".join(a.query.args), "code": a.code, "elapsed_s": a.elapsed} for a in attempts
    ]
    record = dict(result, environment=info, notes=notes, failures=reasons, samples=samples)
    (OUT_DIR / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=2), encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
