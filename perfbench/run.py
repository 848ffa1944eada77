"""Run one workload of the mlml benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/` there.
Every item is one `mlml` command line passed to `mlml.cli.main(argv)` in this
process, single-threaded, with stdout captured and checked.  A wrong or
crashed item counts as failed and the run goes on.

Every time is read from `hostspeed.SteadyClock`: elapsed seconds scaled
to a fixed reference speed of the host, which is shared with other tenants
and runs the same code up to twice as slowly when they are busy.

With `--trace 0` the run measures for about S seconds, tracing off, and
reports the end-to-end metrics.  An input's latency is the median over its
repetitions in the run.  Set-up time is the median over fresh interpreters,
spread across the run, that import mlml and write the workload's input
files, each scaled by the host speed the interpreter measured before and
after that work.  With `--trace 1` the run makes a warm-up pass, one
untraced pass and one traced pass over the same inputs and reports the
per-layer metrics and the tracing overhead; it writes the span aggregates
to `.perfbench/trace-<workload>-<seed>.json`.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Run details go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60

sys.path.insert(0, str(HERE))
import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# A set-up probe: a fresh interpreter imports mlml from src/ and writes the
# input files it reads from stdin ({path: contents}).  Before and after, it
# times the host-speed reference, and prints the two timings.
PROBE = f"""\
import json, sys, time
{hostspeed.REFERENCE_SOURCE}
files = json.load(sys.stdin)
reference(), reference()
before = time_reference()
sys.path.insert(0, "src")
import mlml.cli
for path, text in files.items():
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
print(json.dumps([before, time_reference()]))
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_mlml():
    """Import mlml from this checkout's `src/`, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "mlml" / "__init__.py").is_file():
        raise BenchError(f"no mlml sources under {src}")
    sys.path.insert(0, str(src))
    import mlml
    import mlml.cli

    if Path(mlml.__file__).resolve().parent != (src / "mlml").resolve():
        raise BenchError(f"imported mlml from {mlml.__file__}, not from {src}")
    return mlml


def materialise(items: list[workloads.Item], workdir: Path) -> list[list[str]]:
    """Write the items' input files and return their argv with file paths."""
    argvs = []
    for item in items:
        for name, text in item.files.items():
            (workdir / name).write_text(text, encoding="utf-8")
        argvs.append([str(workdir / a) if a in item.files else a for a in item.argv])
    return argvs


def run_item(mlml, argv: list[str], clock: Callable[[], float] = time.perf_counter
             ) -> tuple[int | None, str, float, str | None]:
    """(exit code, stdout, seconds by `clock`, crash) of one in-process invocation."""
    out, err = io.StringIO(), io.StringIO()
    crash = None
    code = None
    start = clock()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mlml.cli.main(argv)
    except Exception as exc:  # a crash fails this item; the run goes on
        crash = f"{type(exc).__name__}: {exc}"
    elapsed = clock() - start
    return code, out.getvalue(), elapsed, crash


@dataclass
class Measurement:
    samples: dict[str, list[float]] = field(default_factory=dict)
    passes: list[list[str]] = field(default_factory=list)  # keys of complete passes
    frames: dict[str, int] = field(default_factory=dict)
    formulas: dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def latencies(self) -> dict[str, float]:
        """Each input's time: the median of its repetitions."""
        return {k: statistics.median(v) for k, v in self.samples.items()}

    def inputs(self) -> list[str]:
        """The distinct inputs of the complete passes, in first-run order."""
        return list(dict.fromkeys(k for keys in self.passes for k in keys))

    def pass_times(self) -> list[float]:
        """Each distinct complete pass, timed as the sum of its inputs' latencies."""
        lat = self.latencies()
        distinct = dict.fromkeys(tuple(dict.fromkeys(keys)) for keys in self.passes)
        return [sum(lat[k] for k in keys) for keys in distinct]


def measure(mlml, plan: workloads.Plan, workdir: Path, seconds: float | None,
            passes: int | None = None, tracer: tracing.Tracer | None = None,
            between: Callable[[float], None] | None = None,
            clock: Callable[[], float] = time.perf_counter) -> Measurement:
    """Run passes of the plan: at least `plan.min_passes`, then until the
    deadline, or exactly `passes` when given.  Items are timed by `clock`;
    the deadline is in elapsed seconds.  `between`, if given, is called
    before each item with the elapsed seconds since the start."""
    m = Measurement()
    start = time.perf_counter()
    deadline = None if seconds is None else start + seconds

    def over(index: int) -> bool:
        if passes is not None:
            return index >= passes
        return index >= plan.min_passes and time.perf_counter() >= deadline

    index = 0
    while not over(index):
        items = plan.items(index)
        argvs = materialise(items, workdir)
        keys = []
        for item, argv in zip(items, argvs):
            # A repeating workload may stop mid-pass; the samples still count.
            if plan.repeating and over(index):
                break
            if between is not None:
                between(time.perf_counter() - start)
            gc.collect()
            if tracer is not None:
                tracer.item = item.key
            code, stdout, elapsed, crash = run_item(mlml, argv, clock)
            m.attempted += 1
            problem = crash or item.verdict(code, stdout)
            if problem is None:
                try:
                    m.frames[item.key] = item.frames_decided(stdout)
                except (KeyError, ValueError, IndexError, TypeError) as exc:
                    problem = f"cannot read the frames decided: {exc}"
            if problem is not None:
                m.failed += 1
                m.frames.setdefault(item.key, 0)
                if len(m.failures) < 5:
                    m.failures.append(f"{item.key}: {problem}")
            m.formulas[item.key] = item.formulas
            m.samples.setdefault(item.key, []).append(elapsed)
            keys.append(item.key)
        if tracer is not None:
            tracer.item = None
        if len(keys) < len(items):
            break
        m.passes.append(keys)
        index += 1
    return m


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(m: Measurement, setup: list[float]) -> dict[str, tuple[float, str]]:
    lat = m.latencies()
    keys = m.inputs()
    total = sum(lat[k] for k in keys)
    frames = sum(m.frames[k] for k in keys)
    formulas = sum(m.formulas[k] for k in keys)
    queries = len(keys)
    latencies = sorted(lat[k] for k in keys)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(m.pass_times()), "s"),
        "frames_per_s": (frames / total, "1/s"),
        "formulas_per_s": (formulas / total, "1/s"),
        "queries_per_s": (queries / total, "1/s"),
        "query_p50_ms": (1000 * percentile(latencies, 50), "ms"),
        "query_p99_ms": (1000 * percentile(latencies, 99), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def setup_probe(files: str) -> float:
    """Time of one fresh interpreter that imports mlml and writes `files`:
    its wall time scaled by the host speed it measured."""
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, input=files,
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"set-up probe took over {PROBE_TIMEOUT_S} s") from exc
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return elapsed * hostspeed.speed_of(json.loads(proc.stdout))


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        mlml = load_mlml()
        plan = workloads.Plan(args.workload, args.seed)
        WORK.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
        try:
            log(f"workload {args.workload} seed {args.seed} python {platform.python_version()} "
                f"nproc {os.cpu_count()} mlml {mlml.__version__}")
            if args.trace:
                result = traced_run(mlml, plan, workdir)
            else:
                result = untraced_run(mlml, plan, workdir, args.seconds)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except BenchError as exc:
        log(f"error: {exc}")
        return 1
    print(json.dumps(result))
    return 0


def _result(m: Measurement, metrics: dict[str, tuple[float, str]]) -> dict:
    for line in m.failures:
        log(f"FAILED {line}")
    return {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def untraced_run(mlml, plan: workloads.Plan, workdir: Path, seconds: float) -> dict:
    files = json.dumps({str(workdir / name): text
                        for item in plan.items(0) for name, text in item.files.items()})
    setup: list[float] = []

    def probe_when_due(elapsed: float) -> None:
        # Probes are spread evenly over the run, so that they sample the
        # host's speed as the timed items do.
        if len(setup) < SETUP_PROBES and len(setup) * seconds <= elapsed * SETUP_PROBES:
            setup.append(setup_probe(files))

    start = time.perf_counter()
    with hostspeed.SteadyClock() as clock:
        m = measure(mlml, plan, workdir, seconds, between=probe_when_due, clock=clock.now)
        speed = clock.now() / (time.perf_counter() - start)
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(files))
    metrics = end_to_end(m, setup)
    lat = m.latencies()
    beyond = sum(1000 * lat[k] > metrics["query_p99_ms"][0] for k in m.inputs())
    reps = [len(v) for v in m.samples.values()]
    log(f"{len(m.passes)} complete passes, {m.attempted} items, {len(m.inputs())} inputs "
        f"timed {min(reps)} to {max(reps)} times ({beyond} beyond p99), "
        f"{len(setup)} set-up probes; host at {speed:.2f} of the reference speed; "
        f"failed {m.failed} of {m.attempted}")
    return _result(m, metrics)


def traced_run(mlml, plan: workloads.Plan, workdir: Path) -> dict:
    # A warm-up pass first, so that the untraced pass pays no first-call
    # costs that the traced pass after it would not.
    measure(mlml, plan, workdir, None, passes=1)
    with hostspeed.SteadyClock() as clock:
        plain = measure(mlml, plan, workdir, None, passes=1, clock=clock.now)
        tracer = tracing.Tracer(clock.now)
        with tracing.traced(tracer, mlml):
            traced = measure(mlml, plan, workdir, None, passes=1, tracer=tracer,
                             clock=clock.now)
    metrics = tracing.layer_metrics(tracer)
    untraced_s, traced_s = plain.pass_times()[0], traced.pass_times()[0]
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    log(f"one pass: {untraced_s:.3f} s untraced, {traced_s:.3f} s traced")
    path = WORK / f"trace-{plan.workload}-{plan.seed}.json"
    path.write_text(json.dumps(tracer.table()), encoding="utf-8")
    log(f"span aggregates written to {path.relative_to(ROOT)}")
    both = Measurement(attempted=plain.attempted + traced.attempted,
                       failed=plain.failed + traced.failed,
                       failures=plain.failures + traced.failures)
    return _result(both, metrics)


if __name__ == "__main__":
    sys.exit(main())
