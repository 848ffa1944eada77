"""Layer tracing for the benchmark, installed from outside the program.

The tracer replaces public functions of the mlml modules with timing
wrappers at the module globals where their callers look the names up, runs
the workload, and puts the originals back.  Nothing inside `src/` knows it
is being traced.

Spans are aggregated as they close, keyed by (item, parent span name, span
name): a call count, the inclusive duration, and the self time, which is the
duration minus the time covered by child spans.  Per-call records would not
fit in memory: `FrameSweep.values` alone runs about 200k times per
correspondence criterion.  Code runs on one thread, so child spans never
overlap and the time they cover is the sum of their durations.

Inclusive totals double count under recursion, so the layer metrics use
inclusive time only for spans that never nest inside themselves, and self
time everywhere else.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Callable, Iterator


class Tracer:
    """Span stack plus per-(item, parent, name) aggregates and counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.item: str | None = None
        self._stack: list[list] = []  # [name, start, child_time]
        # (item, parent, name) -> [calls, inclusive seconds, self seconds]
        self.spans: dict[tuple, list] = {}
        # (item, name) -> count
        self.counters: dict[tuple, int] = {}

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        end = self.clock()
        name, start, child_time = self._stack.pop()
        duration = end - start
        parent = None
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][0]
        record = self.spans.get((self.item, parent, name))
        if record is None:
            record = self.spans[(self.item, parent, name)] = [0, 0.0, 0.0]
        record[0] += 1
        record[1] += duration
        record[2] += duration - child_time

    def count(self, name: str, amount: int = 1) -> None:
        key = (self.item, name)
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        if not isinstance(fn, type):
            functools.update_wrapper(traced, fn)
        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """Time each resumption of a generator as one span of `name`."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                while True:
                    self.enter(name)
                    try:
                        value = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self.exit()
                    self.count(name + ".yields")
                    yield value
            finally:
                gen.close()

        return traced

    # -- aggregate queries ----------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(rec[0] for (_, _, n), rec in self.spans.items() if n == name)

    def inclusive(self, name: str) -> float:
        return sum(rec[1] for (_, _, n), rec in self.spans.items() if n == name)

    def self_time(self, predicate: Callable[[str], bool]) -> float:
        return sum(rec[2] for (_, _, n), rec in self.spans.items() if predicate(n))

    def counter(self, name: str) -> int:
        return sum(v for (_, n), v in self.counters.items() if n == name)

    def table(self) -> list[dict]:
        """Every aggregate as a JSON-ready row, for the trace file."""
        rows = [
            {"item": item, "parent": parent, "span": name,
             "calls": rec[0], "inclusive_s": rec[1], "self_s": rec[2]}
            for (item, parent, name), rec in self.spans.items()
        ]
        rows.extend(
            {"item": item, "counter": name, "value": value}
            for (item, name), value in self.counters.items()
        )
        return rows


# ---------------------------------------------------------------------------
# Where the wrappers go
# ---------------------------------------------------------------------------

# Functions wrapped in place, by module and attribute.  Every caller reaches
# these through the module attribute (`syntax.parse`, `kripke.countermodel_search`)
# or, inside the module, through its globals.
_FUNCTIONS = {
    "cli": ("main",),
    "syntax": ("parse", "variables", "format_formula", "generate_corpus"),
    "frames": ("indiscernibility_check", "frame_encoding", "fixtures", "count_frames"),
    "kripke": ("eval_formula", "satisfies", "first_failing_world", "model_valid",
               "find_frame_countermodel", "frame_valid", "countermodel_search",
               "frame_from_dict", "model_from_dict", "frame_to_dict", "model_to_dict"),
    "proofs": ("check", "check_step", "tautological_consequence",
               "semantic_crosscheck", "derivation_from_dict"),
    "prop4": ("consequence4", "tautology4"),
}

# FrameSweep methods, patched on the class so that the recursive
# `self.values` calls are traced too.
SWEEP_EVAL = ("first_invalid_index", "countermodel_index", "is_frame_valid",
              "designated_mask", "valid_mask")
_SWEEP_METHODS = SWEEP_EVAL + ("values", "decode_valuation")


def _patch_list(tracer: Tracer, mlml) -> list[tuple[object, str, object]]:
    """(owner, attribute, replacement) for every wrapper the tracer installs."""
    patches: list[tuple[object, str, object]] = []
    for module_name, names in _FUNCTIONS.items():
        module = getattr(mlml, module_name)
        for name in names:
            patches.append(
                (module, name, tracer.wrap(f"{module_name}.{name}", getattr(module, name)))
            )

    frames, kripke = mlml.frames, mlml.kripke
    check = tracer.wrap("frames.correspondence_check", frames.correspondence_check)

    @functools.wraps(frames.correspondence_check)
    def correspondence_check(*args, **kwargs):
        report = check(*args, **kwargs)
        tracer.count("frames.mismatches", len(report.mismatches))
        return report

    patches.append((frames, "correspondence_check", correspondence_check))
    # countermodel_search imports enumerate_frames from frames at call time,
    # so the frames global is the one place to patch it.
    patches.append((frames, "enumerate_frames",
                    tracer.wrap_generator("frames.enumerate_frames", frames.enumerate_frames)))

    # Frame, Model and FrameSweep are looked up as globals of both frames and
    # kripke (frames imports them by name).
    sweep_cls = mlml._sweep.FrameSweep

    def build_sweep(*args, **kwargs):
        tracer.enter("sweep.build")
        try:
            sweep = sweep_cls(*args, **kwargs)
        finally:
            tracer.exit()
        tracer.count("sweep.valuations", sweep.valuation_count)
        return sweep

    new_frame = tracer.wrap("kripke.Frame", kripke.Frame)
    new_model = tracer.wrap("kripke.Model", kripke.Model)
    for module in (frames, kripke):
        patches.append((module, "FrameSweep", build_sweep))
        patches.append((module, "Frame", new_frame))
        patches.append((module, "Model", new_model))

    for name in _SWEEP_METHODS:
        patches.append((sweep_cls, name, tracer.wrap(f"sweep.{name}", getattr(sweep_cls, name))))

    # Property predicates live inside the PROPERTIES table; each entry is
    # swapped for a copy whose violation finder is wrapped.
    table = {
        name: frames.FrameProperty(prop.name, tracer.wrap("frames.property", prop.violation))
        for name, prop in frames.PROPERTIES.items()
    }
    patches.append((frames, "PROPERTIES", table))
    return patches


@contextmanager
def traced(tracer: Tracer, mlml) -> Iterator[Tracer]:
    """Install every wrapper for the duration of the block, then restore the
    original objects exactly."""
    patches = _patch_list(tracer, mlml)
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, replacement in patches:
            setattr(owner, name, replacement)
        yield tracer
    finally:
        for owner, name, original in reversed(originals):
            setattr(owner, name, original)


def patch_targets(mlml) -> list[tuple[object, str]]:
    """Every (owner, attribute) the tracer replaces, for checking restoration."""
    return [(owner, name) for owner, name, _ in _patch_list(Tracer(), mlml)]


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def _in_module(prefix: str) -> Callable[[str], bool]:
    return lambda name: name.startswith(prefix + ".")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metric name -> (value, unit), summed over the traced items.

    The `_sweep` module is reported under the prefix `sweep`, since metric
    names start with a letter.  `kripke.Frame` and `kripke.Model` spans are
    kripke time: the classes live there.
    """
    t = tracer
    sweep_eval = {f"sweep.{n}" for n in SWEEP_EVAL + ("values",)}
    frames_enumerated = t.counter("frames.enumerate_frames.yields")
    return {
        "cli.self_s": (t.self_time(_in_module("cli")), "s"),
        "syntax.self_s": (t.self_time(_in_module("syntax")), "s"),
        "syntax.parse_calls": (t.calls("syntax.parse"), "count"),
        "syntax.variables_calls": (t.calls("syntax.variables"), "count"),
        "syntax.generate_corpus_s": (t.inclusive("syntax.generate_corpus"), "s"),
        "frames.self_s": (t.self_time(_in_module("frames")), "s"),
        "frames.enumerate_s": (t.inclusive("frames.enumerate_frames"), "s"),
        "frames.frames_enumerated": (frames_enumerated, "count"),
        "frames.property_s": (t.inclusive("frames.property"), "s"),
        "frames.property_calls": (t.calls("frames.property"), "count"),
        "frames.mismatches": (t.counter("frames.mismatches"), "count"),
        "frames.encode_s": (t.inclusive("frames.frame_encoding"), "s"),
        "sweep.build_s": (t.inclusive("sweep.build"), "s"),
        "sweep.builds": (t.calls("sweep.build"), "count"),
        "sweep.valuations": (t.counter("sweep.valuations"), "count"),
        "sweep.eval_s": (t.self_time(lambda n: n in sweep_eval), "s"),
        "sweep.eval_calls": (sum(t.calls(f"sweep.{n}") for n in SWEEP_EVAL), "count"),
        "sweep.values_calls": (t.calls("sweep.values"), "count"),
        "sweep.decode_s": (t.inclusive("sweep.decode_valuation"), "s"),
        "sweep.decodes": (t.calls("sweep.decode_valuation"), "count"),
        "kripke.self_s": (t.self_time(_in_module("kripke")), "s"),
        "kripke.frame_objects": (t.calls("kripke.Frame"), "count"),
        "kripke.models_built": (t.calls("kripke.Model"), "count"),
        "kripke.model_s": (t.inclusive("kripke.Model"), "s"),
        "kripke.search_s": (t.inclusive("kripke.countermodel_search"), "s"),
        "kripke.rechecks": (t.calls("kripke.first_failing_world"), "count"),
        "kripke.recheck_s": (t.inclusive("kripke.first_failing_world"), "s"),
        "proofs.self_s": (t.self_time(_in_module("proofs")), "s"),
        "proofs.checks": (t.calls("proofs.check"), "count"),
        "proofs.taut_calls": (t.calls("proofs.tautological_consequence"), "count"),
        "proofs.taut_s": (t.inclusive("proofs.tautological_consequence"), "s"),
        "prop4.self_s": (t.self_time(_in_module("prop4")), "s"),
        "prop4.queries": (t.calls("prop4.consequence4"), "count"),
    }
