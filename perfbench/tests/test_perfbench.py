"""Tests of the benchmark itself: span arithmetic, the correctness gate,
wrapper removal, seeded inputs and the steady clock."""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

mlml = run.load_mlml()


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class ListPlan:
    """A plan of fixed items, one pass."""

    repeating = True
    min_passes = 1

    def __init__(self, items):
        self._items = items

    def items(self, index):
        return self._items


def test_self_time_on_synthetic_span_tree():
    clock = FakeClock()
    t = tracing.Tracer(clock=clock)

    leaf = t.wrap("leaf", lambda: clock.advance(1.0))

    def _mid():
        clock.advance(0.5)
        leaf()
        clock.advance(0.25)

    mid = t.wrap("mid", _mid)

    def _root():
        clock.advance(2.0)
        mid()
        mid()
        leaf()
        clock.advance(1.0)

    t.item = "one"
    t.wrap("root", _root)()

    assert t.spans[("one", None, "root")] == [1, 7.5, 3.0]
    assert t.spans[("one", "root", "mid")] == [2, 3.5, 1.5]
    assert t.spans[("one", "mid", "leaf")] == [2, 2.0, 2.0]
    assert t.spans[("one", "root", "leaf")] == [1, 1.0, 1.0]
    assert t.calls("leaf") == 3 and t.inclusive("leaf") == 3.0
    # Self times partition the root's duration.
    assert t.self_time(lambda name: True) == 7.5


def test_generator_spans_cover_each_resumption():
    clock = FakeClock()
    t = tracing.Tracer(clock=clock)

    def numbers():
        for i in range(3):
            clock.advance(0.5)
            yield i
        clock.advance(0.25)

    gen = t.wrap_generator("gen", numbers)
    seen = []
    for value in gen():
        clock.advance(10.0)  # consumer time is not the generator's
        seen.append(value)
    assert seen == [0, 1, 2]
    assert t.calls("gen") == 4  # three yields and the final resumption
    assert t.inclusive("gen") == 1.75
    assert t.counter("gen.yields") == 3


def test_gate_counts_a_wrong_expected_count_as_a_failed_item(tmp_path):
    bad_proof = {"steps": [{"premises": ["p"], "conclusion": "p", "rule": "Premise",
                            "cites": "0"}]}
    wrong_count = workloads.correspond_item("reflexive", "[]p -> p", max_worlds=2, mismatches=1)
    wrong_count.expect_exit = 0  # so that the count itself is what fails
    items = [
        wrong_count,
        workloads.Item(key="bad cites", argv=["checkproof", "--proof", "bad.json"],
                       expect_exit=0, files={"bad.json": json.dumps(bad_proof)}),
        workloads.correspond_item("reflexive", "[]p -> p", max_worlds=2, mismatches=0),
    ]
    m = run.measure(mlml, ListPlan(items), tmp_path, None, passes=1)
    assert m.attempted == 3
    assert m.failed == 2
    assert m.failures[0].endswith("missing output line '6+144 frames x 3 ultrafilters, 1 mismatches'")
    assert m.failures[1].startswith("bad cites")
    assert m.passes == [[item.key for item in items]]


def test_untraced_runs_execute_the_unpatched_functions(tmp_path):
    targets = tracing.patch_targets(mlml)
    originals = [getattr(owner, name) for owner, name in targets]
    items = [workloads.correspond_item("reflexive", "[]p -> p", max_worlds=2, mismatches=0)]
    t = tracing.Tracer()
    with tracing.traced(t, mlml):
        assert all(getattr(o, n) is not f for (o, n), f in zip(targets, originals))
        traced = run.measure(mlml, ListPlan(items), tmp_path, None, passes=1, tracer=t)
    assert traced.failed == 0
    assert all(getattr(o, n) is f for (o, n), f in zip(targets, originals))
    recorded = {k: list(v) for k, v in t.spans.items()}
    assert t.calls("cli.main") == 1 and t.calls("sweep.values") > 0

    plain = run.measure(mlml, ListPlan(items), tmp_path, None, passes=1)
    assert plain.failed == 0
    assert t.spans == recorded


def test_traced_layers_report_every_metric():
    t = tracing.Tracer()
    metrics = tracing.layer_metrics(t)
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text("utf-8"))
    names = {m["name"] for m in doc["per_layer"]}
    assert names == set(metrics) | {"trace.overhead_s"}


def _inputs(plan, index=0):
    return [(item.argv, item.files) for item in plan.items(index)]


def test_same_seed_same_inputs_and_other_seed_other_inputs():
    for workload in workloads.WORKLOADS:
        assert _inputs(workloads.Plan(workload, 5)) == _inputs(workloads.Plan(workload, 5))
    for workload in ("queries", "crosscheck-3w"):
        assert _inputs(workloads.Plan(workload, 1)) != _inputs(workloads.Plan(workload, 2))
    queries = workloads.Plan("queries", 1)
    assert _inputs(queries, 0) != _inputs(queries, 1)


def test_crosscheck_draws_keep_the_variable_mix():
    bundled = workloads._bundled_derivations()

    def variables(name):
        steps = bundled[name]["steps"]
        return len(set().union(*(mlml.syntax.variables(mlml.syntax.parse(f))
                                 for f in steps[-1]["premises"] + [steps[-1]["conclusion"]])))

    for count, group in enumerate(workloads.CROSSCHECK_GROUPS, start=1):
        assert {variables(name) for name in group} == {count}
    draws = set()
    for seed in range(20):
        names = [item.key for item in workloads.Plan("crosscheck-3w", seed).items(0)]
        assert [sum(name in group for name in names) for group in workloads.CROSSCHECK_GROUPS] == [1, 1]
        draws.add(tuple(names))
    assert len(draws) > 6


def test_query_block_has_fixed_proportions():
    kinds = [item.argv[0] for item in workloads.Plan("queries", 3).items(0)]
    assert len(kinds) == 100
    assert {k: kinds.count(k) for k in set(kinds)} == {
        "eval": 26, "valid": 18, "search": 14, "taut4": 12, "cons4": 14, "checkproof": 16}


def test_query_verdicts_known_by_construction_hold(tmp_path):
    m = run.measure(mlml, workloads.Plan("queries", 11), tmp_path, None, passes=1)
    assert m.attempted == 100
    assert m.failures == []


def test_latency_is_the_median_of_repetitions():
    m = run.Measurement(samples={"a": [3.0, 1.0, 2.0], "b": [5.0, 4.0], "c": [7.0]},
                        passes=[["a", "b", "a", "b"], ["c"], ["a", "b"]],
                        frames={"a": 1, "b": 2, "c": 3}, formulas={"a": 1, "b": 1, "c": 1})
    assert m.inputs() == ["a", "b", "c"]
    assert m.pass_times() == [6.5, 7.0]  # one time per distinct pass
    metrics = run.end_to_end(m, setup=[0.3, 0.1, 0.2])
    assert metrics["setup_s"] == (0.2, "s")
    assert metrics["wall_s"] == (6.75, "s")
    assert metrics["frames_per_s"] == (6 / 13.5, "1/s")
    assert metrics["queries_per_s"] == (3 / 13.5, "1/s")
    assert metrics["query_p50_ms"] == (4500.0, "ms")


def test_steady_clock_runs_at_the_measured_speed(monkeypatch):
    # A reference that takes half its nominal time: the host runs at twice
    # the reference speed, so the clock gains two seconds per second.
    monkeypatch.setattr(hostspeed, "time_reference", lambda repeats=3: hostspeed.NOMINAL_S / 2)
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.SteadyClock() as clock:
        start, begun = time.perf_counter(), clock.now()
        while time.perf_counter() - start < 0.1:
            pass
        ratio = (clock.now() - begun) / (time.perf_counter() - start)
    assert 1.9 < ratio < 2.1
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_setup_probe_scales_by_the_speed_it_measures(tmp_path):
    target = tmp_path / "input.txt"
    elapsed = run.setup_probe(json.dumps({str(target): "p"}))
    assert target.read_text() == "p"
    assert 0 < elapsed < run.PROBE_TIMEOUT_S


def test_recorded_counts_match_the_closed_forms():
    assert workloads.CORPUS_D5 == mlml.syntax.corpus_size(1, 5)
    assert all(workloads.frame_count(n) == mlml.frames.count_frames(n) for n in (1, 2, 3))
    assert workloads.FRAMES_UP_TO_3 == 13974
    counts = [workloads.EXPECTED["correspond-3w"][f"{p}: {f}"]["mismatches"]
              for p, f in workloads.CRITERIA]
    assert counts == [0, 2214, 1626, 0, 0, 0, 11088, 0, 9984]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_frames_visited_counts_in_canonical_order():
    code, stdout, _, crash = run.run_item(
        mlml, ["search", "--premises", "p", "--goal", "[]p", "--max-worlds", "2"])
    assert crash is None and code == 1
    doc = json.loads(stdout.split("\n", 1)[1])
    wanted = {key: doc[key] for key in ("worlds", "lattices", "edges")}
    listed = [mlml.kripke.frame_to_dict(frame)
              for n in (1, 2) for frame in mlml.frames.enumerate_frames(n)]
    assert workloads.frames_visited(stdout) == listed.index(wanted) + 1
