"""The orbit pass of the correspondence harness and the reductions it uses.

A property in `frames.PROPERTIES` is first checked on the orbit
representatives only, each frame weighted by the size of its orbit.  The
weighted counts are compared with the rows of the frame-by-frame check,
which a property outside the table always gets, and a spy on the sweeps
shows that a clean criterion sweeps the representatives only and that the
frame-by-frame pass sweeps each labelling in ranges as wide as one sweep
holds, with one worker or two.  No part is wider than one sweep, the pool
has a process per worker up to the CPU count, and it is read through a
window of 2 * workers jobs.  The per-block
readers `FrameSweep.relations_meeting` and `lowest_indices` are compared
with a per-block reference and with `lowest_index` on aligned ranges and
tuples, for blocks narrower and wider than a byte.
"""

import concurrent.futures
import functools
import itertools
import os

import pytest
from hypothesis import given, settings, strategies as st

from mlml import frames
from mlml._orbits import _labelling_orbits
from mlml._sweep import FrameSweep, RelationChunk, relation_chunk_width
from mlml.algebra import ULTRAFILTERS
from mlml.cli import main
from mlml.frames import PROPERTIES, FrameProperty, correspondence_check, count_frames
from packed_layout import group, mask_of, relation_block

# The nine correspondences of the acceptance battery.
CRITERIA = (
    ("reflexive", "[]p -> p"),
    ("transitive", "[]p -> [][]p"),
    ("euclidean", "<>p -> []<>p"),
    ("euclidean", "<>@p -> []<>@p"),
    ("serial", "[]p -> <>p"),
    ("symmetric", "p -> []<>p"),
    ("out_of_bubble", "<>T -> ([]~@p -> ~[]p)"),
    ("transitive_through_equality", "[]p -> [=][=]p"),
    ("transitive_through_difference", "[]p -> [-][=](@p & p)"),
)

E1, E2, E3 = ULTRAFILTERS
ULTRAFILTER_SETS = ((E1, E2, E3), (E1,), (E2,), (E3,), (E1, E3))

# Criteria 3, 7 and 8b, which mismatch at three worlds: their reports with
# two workers are compared too.
POOLED = (CRITERIA[1], CRITERIA[6], CRITERIA[8])


def frame_by_frame(name: str) -> FrameProperty:
    """The property under a finder outside PROPERTIES, with the same
    clauses: the harness checks it frame by frame at every world count."""
    violation = PROPERTIES[name].violation
    return FrameProperty(name, functools.wraps(violation)(lambda frame: violation(frame)))


@pytest.fixture(scope="module")
def unreduced_rows():
    """Per criterion, the rows of the frame-by-frame check on up to three
    worlds under every ultrafilter."""
    return {
        (name, formula): correspondence_check(frame_by_frame(name), formula, 3).rows
        for name, formula in CRITERIA
    }


@pytest.mark.parametrize("name,formula", CRITERIA)
def test_weighted_totals_count_the_unreduced_rows(unreduced_rows, name, formula):
    rows = unreduced_rows[name, formula]
    for selected in ULTRAFILTER_SETS:
        for n in (1, 2, 3):
            kept = [row for row in rows if row[0] <= n and row[3] in selected]
            without_valid = sum(1 for row in kept if isinstance(row[4], int))
            reports = [correspondence_check(name, formula, n, selected, keep_rows=False)]
            if n == 3 and selected == ULTRAFILTER_SETS[0] and (name, formula) in POOLED:
                reports.append(correspondence_check(name, formula, n, selected, workers=2,
                                                    keep_rows=False))
                if (name, formula) == POOLED[0]:  # outside the table: no orbit pass
                    reports.append(correspondence_check(frame_by_frame(name), formula, n,
                                                        selected, keep_rows=False))
            for report in reports:
                assert report.rows == [] and not report.mismatches
                assert report.totals == {"property_without_valid": without_valid,
                                         "valid_without_property": len(kept) - without_valid}
                assert report.mismatch_count == len(kept)
                assert report.clean == (not kept)
                assert report.frames_checked == sum(count_frames(k) for k in range(1, n + 1))


@pytest.mark.parametrize("name,formula", CRITERIA)
def test_rows_match_the_unreduced_rows(unreduced_rows, name, formula):
    rows = unreduced_rows[name, formula]
    without_valid = sum(1 for row in rows if isinstance(row[4], int))
    totals = {"property_without_valid": without_valid,
              "valid_without_property": len(rows) - without_valid}
    report = correspondence_check(name, formula, 3)
    assert report.rows == rows
    assert report.totals == totals
    assert report.mismatch_count == len(report.rows)
    if (name, formula) in POOLED:
        pooled = correspondence_check(name, formula, 3, workers=2)
        assert pooled.rows == report.rows and pooled.totals == totals
        assert list(pooled.csv_rows()) == list(report.csv_rows())


def test_clean_criterion_sweeps_only_representatives(monkeypatch):
    swept = []

    class Spy(FrameSweep):
        def __init__(self, frame, *args, **kwargs):
            swept.append((len(frame.worlds), frame.labels))
            super().__init__(frame, *args, **kwargs)

    monkeypatch.setattr(frames, "FrameSweep", Spy)
    names = tuple(u.name for u in ULTRAFILTERS)
    for keep_rows in (True, False):
        swept.clear()
        report = correspondence_check("reflexive", "[]p -> p", 3, keep_rows=keep_rows)
        assert report.clean and report.frames_checked == 6 + 144 + 13824
        at_three = [labels for n, labels in swept if n == 3]
        assert at_three == [labels for labels, _ in _labelling_orbits(3, names)]
        assert len(at_three) == 3
        assert len(swept) == 1 + 2 + 3


def test_a_mismatch_falls_back_to_every_frame_only_with_rows(monkeypatch, tmp_path):
    """Count-only, the orbit pass alone; with rows, the same orbit pass run
    to its end, then the frame-by-frame pass, which sweeps every labelling
    over ranges of relations as wide as one sweep holds, one part per
    labelling and range, whatever the worker count."""
    log = tmp_path / "sweeps"

    # The pool's workers are forked after the patch and log to the same file.
    class Spy(FrameSweep):
        def __init__(self, chunk, *args, **kwargs):
            if len(chunk.worlds) == 3:
                with open(log, "a") as out:
                    out.write(f"{''.join(chunk.labels)} {chunk.relations}\n")
            super().__init__(chunk, *args, **kwargs)

    def swept_at_three():
        lines = log.read_text().splitlines() if log.exists() else []
        log.unlink(missing_ok=True)
        return lines

    monkeypatch.setattr(frames, "FrameSweep", Spy)
    names = tuple(u.name for u in ULTRAFILTERS)
    representatives = ["".join(labels) for labels, _ in _labelling_orbits(3, names)]
    labellings = ["".join(labels) for labels in itertools.product("ABC", repeat=3)]
    correspondence_check("transitive", "[]p -> [][]p", 3, keep_rows=False)
    assert swept_at_three() == [f"{labels} range(0, 512)" for labels in representatives]

    correspondence_check("transitive", "[]p -> [][]p", 3)
    assert swept_at_three() == [
        f"{labels} range(0, 512)" for labels in representatives + labellings]

    # Two variables: 16 relations per sweep, so 32 sweeps per labelling.  The
    # orbit pass sweeps tuples of canonical relations, this pass ranges.
    correspondence_check("super_out_of_bubble", "[](p | q) -> p | q", 3, keep_rows=False)
    orbit_chunks = sorted(swept_at_three())
    assert orbit_chunks and not any(" range(" in line for line in orbit_chunks)
    every_chunk = sorted(f"{labels} range({lo}, {lo + 16})"
                         for labels in labellings for lo in range(0, 512, 16))
    for workers in (1, 2):
        correspondence_check("super_out_of_bubble", "[](p | q) -> p | q", 3, workers=workers)
        swept = swept_at_three()
        assert sorted(line for line in swept if " range(" not in line) == orbit_chunks
        assert sorted(line for line in swept if " range(" in line) == every_chunk


# A two-variable criterion: 16 relations per sweep at three worlds, and
# mismatches there, so that both passes run.
TWO_VARIABLES = ("super_out_of_bubble", "[](p | q) -> p | q")


def test_no_part_is_wider_than_one_sweep(monkeypatch):
    parts = []
    check_group = frames._check_group

    def spy(job):
        n, group = job[3], job[4]
        parts.extend((n, relations) for _, relations, _ in group)
        return check_group(job)

    monkeypatch.setattr(frames, "_check_group", spy)
    assert correspondence_check(*TWO_VARIABLES, 3).rows
    at_three = [relations for n, relations in parts if n == 3]
    # Canonical tuples from the orbit pass, ranges from the frame-by-frame pass.
    assert {type(relations) for relations in at_three} == {tuple, range}
    assert max(map(len, at_three)) == relation_chunk_width(3, 2) == 16
    assert all(len(relations) <= relation_chunk_width(n, 2) for n, relations in parts)


def _inline_pool(monkeypatch, cpus):
    """A pool that runs each job as it is submitted, on a host with `cpus`
    CPUs: the sizes it was made with, the jobs submitted, and per read how
    many jobs were submitted after the one read."""
    submitted, ahead, sizes = [], [], []

    class Read(concurrent.futures.Future):
        def result(self, timeout=None):
            ahead.append(len(submitted) - 1 - self.index)
            return super().result(timeout)

    class Inline(concurrent.futures.Executor):
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def submit(self, fn, *args):
            future = Read()
            future.index = len(submitted)
            future.set_result(fn(*args))
            submitted.append(future)
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Inline)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    return sizes, submitted, ahead


def test_the_pool_is_read_through_a_window(monkeypatch):
    """Never more than 2 * workers jobs submitted ahead of the one read,
    and the report is that of one worker."""
    sizes, submitted, ahead = _inline_pool(monkeypatch, 2)
    one = correspondence_check(*TWO_VARIABLES, 3)
    assert not submitted
    two = correspondence_check(*TWO_VARIABLES, 3, workers=2)
    assert sizes == [2]
    assert len(ahead) == len(submitted) > 2 * 2
    assert max(ahead) == 2 * 2
    assert (two.rows, two.totals, two.frames_checked) == (one.rows, one.totals,
                                                          one.frames_checked)


def test_the_pool_starts_only_where_a_pass_has_two_groups(monkeypatch):
    """One sweep holds all 512 relations on three worlds for one variable,
    so every pass is one job and runs in process; with two variables it
    holds 16, and the pool starts."""
    sizes, submitted, _ = _inline_pool(monkeypatch, 2)
    for name, formula in POOLED:
        report = correspondence_check(name, formula, 3, workers=2)
        assert report.rows and report.rows == correspondence_check(name, formula, 3).rows
    assert not sizes and not submitted
    correspondence_check(*TWO_VARIABLES, 3, workers=2)
    assert sizes == [2] and submitted


@pytest.mark.parametrize("workers, cpus, size", [
    (3, 2, 2), (2, 4, 2), (2, 1, None), (3, None, None)])
def test_the_pool_has_a_process_per_cpu_at_most(monkeypatch, workers, cpus, size):
    """The pool and its window are sized by the worker count up to the CPU
    count, 1 where the count is unknown, and with one the jobs run in
    process."""
    sizes, submitted, ahead = _inline_pool(monkeypatch, cpus)
    report = correspondence_check(*TWO_VARIABLES, 3, workers=workers)
    if size is None:
        assert not sizes and not submitted
    else:
        assert sizes == [size] and len(ahead) == len(submitted)
        assert max(ahead) == 2 * size
    assert report.totals == correspondence_check(*TWO_VARIABLES, 3, keep_rows=False).totals


def test_rows_are_checked_against_the_weighted_counts(monkeypatch):
    """With rows kept, the frame-by-frame pass must count the frames and
    mismatches that the orbit pass weighs: one part's weight doubled makes
    them disagree."""
    orbit_parts = frames._orbit_parts

    def doubled(*args, **kwargs):
        groups = list(orbit_parts(*args, **kwargs))
        (labels, relations, weights), *rest = groups[0]
        groups[0] = [(labels, relations, {2 * w: units for w, units in weights.items()}),
                     *rest]
        return groups

    monkeypatch.setattr(frames, "_orbit_parts", doubled)
    with pytest.raises(AssertionError, match="frame-by-frame pass disagree"):
        correspondence_check("transitive", "[]p -> [][]p", 3)


def test_the_orbit_weights_must_count_every_frame(monkeypatch):
    """A clean criterion gets no frame-by-frame pass, so the orbit pass's
    weighted frame count is checked against every frame: one labelling
    orbit's size off by one makes it raise."""
    orbits = frames._labelling_orbits

    def off_by_one(n, orbit_key):
        (labels, size), *rest = orbits(n, orbit_key)
        return ((labels, size + 1), *rest)

    monkeypatch.setattr(frames, "_labelling_orbits", off_by_one)
    with pytest.raises(AssertionError, match="not every frame"):
        correspondence_check("reflexive", "[]p -> p", 2)


def test_count_only_cli_matches_the_csv_lines(capsys):
    args = ["correspond", "--property", "euclidean", "--formula", "<>p -> []<>p",
            "--max-worlds", "2", "--all-ultrafilters"]
    assert main(args) == 1
    summary = capsys.readouterr().out
    assert main(args + ["--csv"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert summary == lines[-1] + "\n"
    assert summary.endswith(f", {len(lines) - 2} mismatches\n")


def test_count_only_rechecks_a_representative(monkeypatch):
    seen = []
    checked = frames.kripke._checked_countermodel

    def spy(model, premises, goal):
        seen.append(model)
        return checked(model, premises, goal)

    monkeypatch.setattr(frames.kripke, "_checked_countermodel", spy)
    report = correspondence_check("euclidean", "<>p -> []<>p", 3, keep_rows=False)
    assert report.directions() == {"property_without_valid"}
    assert 1 <= len(seen) <= 3
    assert all(PROPERTIES["euclidean"].holds(model.frame) for model in seen)


# -- relations_meeting ---------------------------------------------------------

# (worlds, variables, binary): blocks of 1, 2, 4 and 8 valuations, then 16
# and 64 valuations, wider than a byte.
SHAPES = ((1, 0, True), (1, 1, True), (2, 1, True), (3, 1, True), (2, 1, False),
          (3, 1, False), (1, 2, False))


@st.composite
def meeting_cases(draw):
    n, variables, binary = draw(st.sampled_from(SHAPES))
    worlds = tuple(f"w{i + 1}" for i in range(n))
    labels = tuple(draw(st.sampled_from("ABC")) for _ in worlds)
    total = 1 << (n * n)
    if draw(st.booleans()):
        count = 1 << draw(st.integers(0, min(n * n, 6)))
        start = draw(st.integers(0, total // count - 1)) * count
        relations = range(start, start + count)
    else:  # an ascending tuple of any length
        count = draw(st.integers(1, min(total, 64)))
        relations = tuple(sorted(draw(st.permutations(range(total)))[:count]))
    sweep = FrameSweep(RelationChunk(worlds, labels, relations), ("p", "q")[:variables],
                       binary=binary)
    size = sweep.valuation_count
    groups = []
    for r in range(count):
        kind = draw(st.sampled_from(("empty", "one", "full", "random")))
        if kind == "one":
            groups.append(group(sweep, draw(st.integers(0, size - 1)), r))
        elif kind == "full":
            groups += (group(sweep, i, r) for i in range(size))
        elif kind == "random":
            bits = draw(st.integers(0, (1 << size) - 1))
            groups += (group(sweep, i, r) for i in range(size) if bits >> i & 1)
    return sweep, mask_of(groups)


@given(meeting_cases())
@settings(max_examples=300, deadline=None)
def test_relations_meeting_matches_a_per_block_reference(case):
    sweep, mask = case
    expected = sum(1 << r for r in range(len(sweep.relations))
                   if relation_block(sweep, mask, r, planes=1))
    assert sweep.relations_meeting(mask) == expected


@given(meeting_cases())
@settings(max_examples=300, deadline=None)
def test_lowest_indices_match_lowest_index(case):
    sweep, mask = case
    relations = range(len(sweep.relations))
    assert sweep.lowest_indices(mask, relations) == [sweep.lowest_index(mask, r)
                                                     for r in relations]
