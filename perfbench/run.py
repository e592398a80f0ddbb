"""Benchmark for the rht toolkit.

Run from the root of a checkout:

    python3 perfbench/run.py --workload formal-pipeline --seed 1 --seconds 25 --trace 0

Each run is one closed-loop client in one process: an untimed set-up, then
passes over the workload's job list, each job starting when the previous
one ends, while another pass still fits in ``--seconds``.  Every job's
output is checked outside the timed region.  The human-readable lines come
first; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.

End-to-end metrics: ``solve_s`` is the median time of one pass over the
job list, ``jobs_per_s`` the jobs per pass that passed their check over
``solve_s``, ``job_p50_ms`` the median job, ``peak_rss_mb`` the peak resident
memory of the process (of its largest child for ``cli-corpus``), and
``setup_s`` the median of seven fresh processes that start, import rht and
build the inputs.  ``fail_ratio`` and, where at least ten samples lie above
it, ``job_p90_ms`` are printed as well.

The traced run makes the same untraced passes, then runs the job list once
more untraced and once with a span around every call into ``rht`` (the
tracing overhead is the difference), then runs per-layer probes and an
in-process replay of the golden command lines.  Spans and counts are
written to ``perfbench/out/trace-<workload>-<seed>.json``.

Host speed.  On a shared virtual machine the speed of the same Python
code moves by up to 1.9x from one minute to the next.  A reference task
runs between jobs, and each job's time is scaled by the task's nominal
time over the mean of its times on either side of the job: the end-to-end
times read as seconds on a host that runs the reference in its nominal
time.  The reference is a fixed pure-Python ``Fraction`` loop for jobs
that compute in process, and a bare interpreter start for jobs and set-ups
that are mostly process start-up, which slows less than the loop does.
The unscaled times are printed too.  The process and its children are
pinned to one CPU, so the reference and the jobs run on the same one.

``--smoke`` shrinks every workload so the harness itself can be tested
in seconds (``python3 -m pytest perfbench``).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from tracer import NO_TRACE, Tracer, patched

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
SETUP_REPEATS = 7
# nominal seconds of the two reference tasks, about what they take on a
# quiet 2.1 GHz x86-64 vCPU with Python 3.11
LOOP_REFERENCE_S = 0.018
SPAWN_REFERENCE_S = 0.040
CLI_PROBE_REPEATS = 3
CLI_SPANS = {
    # names rht.cli imports from the other layers, and the span each gets
    "cohomology": "cohomology.betti",
    "weight_decomposition": "cohomology.weight_split",
    "induced_action": "cohomology.action",
    "homology_action": "cohomology.action",
    "flexibility_report": "cohomology.flex",
    "diagonal_family": "families.diagonal",
    "load_automorphism": "families.automorphism",
    "conjugate": "families.conjugate",
    "verify_family": "families.verify",
    "build_formal_model": "formal.build",
    "growth_report": "growth.report",
    "load_presentation": "model.parse",
    "load_table": "model.parse",
    "find_weights": "weights.solve",
    "check_weights": "weights.check",
}
SIZE_COUNTS = (
    "formal.generators", "weights.rows", "weights.witness_rows",
    "cohomology.betti_max", "qlinalg.max_cells", "algebra.basis_dim_max",
)
SUM_COUNTS = ("algebra.basis_dim_sum", "scalars.action_terms")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for testing the harness")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "interpreter": sys.executable,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def loop_reference_s() -> float:
    """Seconds for a fixed pure-Python Fraction loop."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 8000):
        acc += Fraction(1, i % 97 + 1)
    return time.perf_counter() - t0


def spawn_reference_s() -> float:
    """Seconds to start and stop a bare interpreter."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - t0


class ScaledTimer:
    """Times consecutive jobs, each scaled to the reference host speed by the
    reference task run just before and just after it."""

    def __init__(self, spawns: bool = False):
        self.reference = spawn_reference_s if spawns else loop_reference_s
        self.nominal = SPAWN_REFERENCE_S if spawns else LOOP_REFERENCE_S
        self.before = self.reference()
        self.raw: list[float] = []
        self.scaled: list[float] = []

    def add(self, seconds: float) -> float:
        after = self.reference()
        scaled = seconds * self.nominal / ((self.before + after) / 2)
        self.before = after
        self.raw.append(seconds)
        self.scaled.append(scaled)
        return scaled


def median_setup_s(args) -> float:
    """Median wall time, scaled to the reference host speed, of fresh
    processes doing the run's set-up: start the interpreter, import rht,
    read the corpus and generate the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    timer = ScaledTimer(spawns=True)
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        timer.add(time.perf_counter() - t0)
    return statistics.median(timer.scaled)


class Results:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.timer: ScaledTimer | None = None
        self.pass_s: list[float] = []

    def record(self, job_id, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{job_id}: {p}" for p in problems]


def run_job(wl, job_id, inp, tr, results: Results):
    """One job: the timed call, then its check.  Returns (seconds, output)."""
    t0 = time.perf_counter()
    try:
        out = wl.run(inp, tr)
    except Exception as exc:  # a job that raises counts as failed; the run goes on
        results.record(job_id, [f"raised {exc!r}"])
        return time.perf_counter() - t0, None
    dt = time.perf_counter() - t0
    try:
        problems = wl.check(inp, out)
    except Exception as exc:
        problems = [f"check raised {exc!r}"]
    results.record(job_id, problems)
    return dt, out


def run_passes(wl, jobs, seconds: float, results: Results):
    """Untraced passes over the job list while another pass still fits in
    ``seconds``; there is always at least one."""
    results.timer = ScaledTimer(wl.spawns)
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        total = 0.0
        for job_id, inp in jobs:
            dt, _ = run_job(wl, job_id, inp, NO_TRACE, results)
            total += results.timer.add(dt)
        results.pass_s.append(total)
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return


def end_to_end(results: Results, peak_rss_mb: float, setup_s: float) -> dict:
    job_ms = [t * 1000 for t in results.timer.scaled]
    raw_ms = [t * 1000 for t in results.timer.raw]
    passed_per_pass = (results.attempted - results.failed) / len(results.pass_s)
    m = {
        "setup_s": (setup_s, "s"),
        "solve_s": (statistics.median(results.pass_s), "s"),
        "jobs_per_s": (passed_per_pass / statistics.median(results.pass_s), "1/s"),
        "job_p50_ms": (statistics.median(job_ms), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "fail_ratio": (results.failed / results.attempted, "ratio"),
    }
    # p90 only where at least ten samples lie above it
    if len(job_ms) >= 100:
        m["job_p90_ms"] = (statistics.quantiles(job_ms, n=10)[8], "ms")
    m["unscaled.job_p50_ms"] = (statistics.median(raw_ms), "ms")
    m["unscaled.timed_s"] = (sum(raw_ms) / 1000, "s")
    m["host_slowdown"] = (sum(raw_ms) / 1000 / sum(results.pass_s), "ratio")
    return m


def probe_subprocess_ms(code: str | None) -> float:
    cmd = [sys.executable, "-c", code or "pass"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(CLI_PROBE_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        times.append((time.perf_counter() - t0) * 1000)
    return statistics.median(times)


def cli_replay(tr, cases, results: Results) -> float:
    """In-process ``rht.cli.main`` over the golden command lines, with a span
    around each call the CLI makes into another layer.  Returns the median
    milliseconds per call."""
    import rht.cli
    from rht.model import SullivanPresentation

    wrapped = {name: tr.wrap(span, getattr(rht.cli, name)) for name, span in CLI_SPANS.items()}
    validate = tr.wrap("model.validate", SullivanPresentation.validate)
    times = []
    with patched(rht.cli, wrapped), patched(SullivanPresentation, {"validate": validate}):
        for name, argv, code, expected in cases:
            stdout, stderr = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            with tr.span("cli.main"), redirect_stdout(stdout), redirect_stderr(stderr):
                got = rht.cli.main(list(argv))
            times.append((time.perf_counter() - t0) * 1000)
            problems = []
            if got != code:
                problems.append(f"exit code {got}, golden {code}")
            if stdout.getvalue().encode() != expected:
                problems.append("stdout differs from the golden")
            results.record(f"cli-replay {name}", problems)
    return statistics.median(times)


def layer_probes(wl, tr, inp, out, counts: dict):
    """Validation, constraint extraction, RREF and monomial-basis probes on
    the presentations a job handled, plus the job's own counts."""
    from rht.algebra import FreeGCA
    from rht.qlinalg import rref
    from rht.weights import extract_constraints
    from workloads import largest_d_matrix

    for key, value in wl.counts(inp, out).items():
        counts[key] = counts[key] + value if key in SUM_COUNTS else max(counts[key], value)
    for p in wl.presentations(inp, out, tr):
        with tr.span("model.validate"):
            p.validate()
        with tr.span("weights.extract"):
            system = extract_constraints(p)
        counts["weights.rows"] = max(counts["weights.rows"], len(system.rows))
        mats = [system.matrix()]
        if wl.probe_d_matrix:
            mats.append(largest_d_matrix(p))
        for m in mats:
            with tr.span("qlinalg.rref"):
                rref(m)
            counts["qlinalg.max_cells"] = max(counts["qlinalg.max_cells"], m.rows * m.cols)
        alg = FreeGCA(p.generators)
        with tr.span("algebra.basis"):
            dims = [len(alg.monomial_basis(n)) for n in range(p.truncation_degree)]
        counts["algebra.basis_dim_max"] = max(counts["algebra.basis_dim_max"], max(dims))
        counts["algebra.basis_dim_sum"] += sum(dims)


def traced_run(wl, args, results: Results) -> tuple[dict, dict]:
    """Per-layer metrics, and the record written to the trace file."""
    from workloads import golden_cases

    jobs = wl.job_list()
    run_passes(wl, jobs, args.seconds, results)
    # one more pass untraced, then one traced, on the same inputs
    timer = ScaledTimer(wl.spawns)
    untraced = sum(
        timer.add(run_job(wl, job_id, inp, NO_TRACE, Results())[0]) for job_id, inp in jobs
    )
    tr = Tracer()
    traced = 0.0
    outputs = []
    for job_id, inp in jobs:
        tr.job = job_id
        dt, out = run_job(wl, job_id, inp, tr, results)
        traced += timer.add(dt)
        outputs.append((inp, out))
    counts = dict.fromkeys(SIZE_COUNTS + SUM_COUNTS, 0)
    tr.job = "probe"
    for inp, out in outputs:
        if out is not None:
            layer_probes(wl, tr, inp, out, counts)
    tr.job = "cli-replay"
    cases = golden_cases(args.smoke)
    main_ms = cli_replay(tr, cases, results)
    interp_ms = probe_subprocess_ms(None)
    import_ms = probe_subprocess_ms("import rht.cli") - interp_ms

    layers = {f"{name}_s": (t, "s") for name, t in sorted(tr.self_times().items())}
    layers.pop("cli.main_s", None)
    layers.update({
        "cli.interp_ms": (interp_ms, "ms"),
        "cli.import_ms": (import_ms, "ms"),
        "cli.main_ms": (main_ms, "ms"),
        "trace.overhead_s": (traced - untraced, "s"),
        "trace.untraced_pass_s": (untraced, "s"),
    })
    layers.update({k: (v, "count") for k, v in counts.items()})
    t0 = tr.spans[0]["start"] if tr.spans else 0.0
    spans = [
        {**s, "start": s["start"] - t0, "end": s["end"] - t0} for s in tr.spans
    ]
    return layers, {"spans": spans, "counts": counts}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rht" / "__init__.py").is_file():
        print(f"error: no rht sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    wl = WORKLOADS[args.workload](random.Random(args.seed), args.smoke)
    if args.setup_only:
        return 0

    results = Results()
    env = environment(args)
    if args.trace:
        metrics, record = traced_run(wl, args, results)
        wanted = spec["per_layer"]
    else:
        run_passes(wl, wl.job_list(), args.seconds, results)
        usage = resource.RUSAGE_CHILDREN if args.workload == "cli-corpus" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024
        metrics = end_to_end(results, peak_rss_mb, median_setup_s(args))
        wanted = spec["end_to_end"]

    print("env " + json.dumps(env, sort_keys=True))
    print(f"jobs {results.attempted} attempted, {results.failed} failed, "
          f"{len(results.timer.raw)} timed samples in {len(results.pass_s)} passes")
    for problem in results.problems[:20]:
        print(f"FAIL {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6f} {unit}")
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        record.update(env=env, metrics={k: v for k, (v, _) in metrics.items()})
        path.write_text(json.dumps(record, indent=1, sort_keys=True))
        print(f"trace written to {path.relative_to(ROOT)}")

    result = {
        "correct": results.failed == 0,
        "attempted": results.attempted,
        "failed": results.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
