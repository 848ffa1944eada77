"""Frame properties, enumeration, the correspondence harness and fixtures."""

import pytest

from mlml import frames
from mlml.frames import (
    PROPERTIES,
    correspondence_check,
    count_frames,
    enumerate_frames,
    fixtures,
    frame_encoding,
    indiscernibility_check,
)
from mlml._sweep import ResourceBudgetExceeded
from mlml.algebra import ULTRAFILTERS
from mlml.kripke import Frame, Model, model_valid
from mlml.syntax import parse, variables
from packed_layout import group, mask_at


def frame2(edges, labels=("A", "A")):
    worlds = ("w1", "w2")
    return Frame(worlds, frozenset(edges), dict(zip(worlds, labels)))


def test_basic_predicates():
    loop = Frame(("w",), frozenset({("w", "w")}), {"w": "A"})
    for name in ("reflexive", "euclidean", "serial"):
        assert PROPERTIES[name].holds(loop)
    worlds = ("a", "b", "c")
    total = Frame(worlds, frozenset((x, y) for x in worlds for y in worlds),
                  {w: "B" for w in worlds})
    for name in ("reflexive", "serial", "symmetric", "transitive", "euclidean"):
        assert PROPERTIES[name].holds(total)


def test_single_arrow_predicate_values():
    f = frame2({("w1", "w2")})
    assert PROPERTIES["transitive"].holds(f)      # vacuously
    assert not PROPERTIES["euclidean"].holds(f)   # w2 would need a self-loop
    assert not PROPERTIES["symmetric"].holds(f)
    assert not PROPERTIES["reflexive"].holds(f)
    assert not PROPERTIES["serial"].holds(f)      # w2 has no successor


def test_violation_witnesses():
    f = frame2({("w1", "w2")})
    assert PROPERTIES["reflexive"].violation(f) == ("w1",)
    assert PROPERTIES["euclidean"].violation(f) == ("w1", "w2", "w2")
    assert PROPERTIES["symmetric"].violation(f) == ("w1", "w2")


def test_bubble_predicates():
    lonely_loop = Frame(("w",), frozenset({("w", "w")}), {"w": "A"})
    assert not PROPERTIES["out_of_bubble"].holds(lonely_loop)
    isolated = Frame(("w",), frozenset(), {"w": "A"})
    assert PROPERTIES["out_of_bubble"].holds(isolated)
    assert PROPERTIES["super_out_of_bubble"].holds(isolated)


def test_tte_ttd_predicates():
    tte = PROPERTIES["transitive_through_equality"].holds
    ttd = PROPERTIES["transitive_through_difference"].holds
    worlds = ("x", "y", "z")
    total = Frame(worlds, frozenset((a, b) for a in worlds for b in worlds),
                  {"x": "A", "y": "B", "z": "C"})
    assert tte(total) and ttd(total)
    chain_same = Frame(worlds, frozenset({("x", "y"), ("y", "z")}),
                       {w: "A" for w in worlds})
    assert not tte(chain_same)
    assert ttd(chain_same)  # vacuous: no lattice change
    chain_mixed = Frame(worlds, frozenset({("x", "y"), ("y", "z")}),
                        {"x": "A", "y": "B", "z": "B"})
    assert not ttd(chain_mixed)
    assert tte(chain_mixed)  # vacuous


def test_transitivity_implies_tte_and_ttd():
    for frame in enumerate_frames(3):
        if PROPERTIES["transitive"].holds(frame):
            assert PROPERTIES["transitive_through_equality"].holds(frame)
            assert PROPERTIES["transitive_through_difference"].holds(frame)


def test_enumeration_counts():
    for n, expected in ((1, 6), (2, 144), (3, 13824)):
        assert count_frames(n) == expected
    assert sum(1 for _ in enumerate_frames(1)) == 6
    assert sum(1 for _ in enumerate_frames(2)) == 144


def test_enumeration_order_and_encoding():
    frames3 = list(enumerate_frames(1))
    assert frame_encoding(frames3[0]) == "1:0:A"
    assert frame_encoding(frames3[3]) == "1:1:A"
    two = list(enumerate_frames(2))
    # relation bit i*n+j set means worlds[i] reaches worlds[j]; bit 0 is the
    # w1 self-loop, and labels cycle fastest
    assert frame_encoding(two[9]) == "2:1:AA"
    assert two[9].relation == frozenset({("w1", "w1")})
    assert two[9 + 1].lattice_of == {"w1": "A", "w2": "B"}
    assert list(enumerate_frames(2))[2 * 9].relation == frozenset({("w1", "w2")})


def test_isomorphism_reduction_counts():
    # world swap on two worlds: Burnside gives (144 + 12) / 2 orbits
    assert sum(1 for _ in enumerate_frames(2, reduce_isomorphism=True)) == 78
    assert sum(1 for _ in enumerate_frames(1, reduce_isomorphism=True)) == 6


def test_correspondence_reflexive_two_worlds():
    report = correspondence_check("reflexive", "[]p -> p", 2)
    assert report.frames_checked == 150
    assert report.clean
    assert report.ultrafilters == ("e1", "e2", "e3")


def test_correspondence_euclidean_directions():
    report = correspondence_check("euclidean", "<>p -> []<>p", 2)
    assert report.mismatches
    assert report.directions() == {"property_without_valid"}
    first = report.mismatches[0]
    assert isinstance(first.witness, Model)
    assert not model_valid(first.witness, parse("<>p -> []<>p"))


def test_correspondence_workers_match_sequential():
    sequential = correspondence_check("euclidean", "<>p -> []<>p", 2)
    parallel = correspondence_check("euclidean", "<>p -> []<>p", 2, workers=2)
    assert parallel.frames_checked == sequential.frames_checked
    key = lambda m: (frame_encoding(m.frame), m.ultrafilter.name, m.direction)
    assert [key(m) for m in parallel.mismatches] == [key(m) for m in sequential.mismatches]


def test_correspondence_time_budget():
    with pytest.raises(ResourceBudgetExceeded):
        correspondence_check("reflexive", "[]p -> p", 3, time_budget=0.0)


def test_correspondence_frame_budget():
    with pytest.raises(ResourceBudgetExceeded):
        correspondence_check("reflexive", "[]p -> p", 2, max_frames=10)


def test_the_frame_budget_stops_counting_once_passed(monkeypatch):
    """The running total passes a budget of 10 at two worlds, 6 + 144
    frames: the counts of more worlds, whose digits grow with the square of
    the world count, are never computed."""
    counted = []
    monkeypatch.setattr(frames, "count_frames",
                        lambda n: counted.append(n) or count_frames(n))
    with pytest.raises(ResourceBudgetExceeded, match="frame budget of 10 exhausted"):
        correspondence_check("reflexive", "[]p -> p", 1000, max_frames=10)
    assert len(counted) <= 2


def test_one_direction_preservation_for_serial_and_symmetric():
    """Formulas that characterize a property classically never validate a
    frame lacking it here, whatever happens in the other direction."""
    for prop, text in (("serial", "[]p -> <>p"), ("symmetric", "p -> []<>p")):
        report = correspondence_check(prop, text, 2)
        assert "valid_without_property" not in report.directions(), prop


def test_axiom4_fails_on_transitive_mixed_frame():
    """Pin the verified counterexample behind the red acceptance criterion 3
    (see README, "Failing characterizations")."""
    worlds = ("w1", "w2")
    total = Frame(worlds, frozenset((a, b) for a in worlds for b in worlds),
                  {"w1": "A", "w2": "B"})
    assert PROPERTIES["transitive"].holds(total)
    from mlml.kripke import find_frame_countermodel

    counter = find_frame_countermodel(total, parse("[]p -> [][]p"))
    assert counter is not None


def test_oob_and_ttd_formulas_fail_on_property_frames():
    """Companion pins for the red acceptance criteria 7 and 8b."""
    from mlml.algebra import Ultrafilter
    from mlml.kripke import find_frame_countermodel

    oob_frame = Frame(("w1", "w2"), frozenset({("w2", "w1"), ("w2", "w2")}),
                      {"w1": "A", "w2": "B"})
    assert PROPERTIES["out_of_bubble"].holds(oob_frame)
    assert find_frame_countermodel(
        oob_frame, parse("<>T -> ([]~@p -> ~[]p)"), Ultrafilter.from_name("e2")
    ) is not None

    ttd_frame = Frame(("w1", "w2"), frozenset({("w1", "w2"), ("w2", "w2")}),
                      {"w1": "A", "w2": "B"})
    assert PROPERTIES["transitive_through_difference"].holds(ttd_frame)
    assert find_frame_countermodel(ttd_frame, parse("[]p -> [-][=](@p & p)")) is not None


def test_fixtures():
    named = fixtures()
    euc3 = named["euc3"]
    assert PROPERTIES["euclidean"].holds(euc3)
    assert euc3.lattice_of == {"w": "B", "u": "B", "v": "A"}
    soob_f = named["soob_F"]
    soob_g = named["soob_Fprime"]
    assert len(soob_f.worlds) == len(soob_g.worlds) == 7
    assert PROPERTIES["super_out_of_bubble"].holds(soob_f)
    assert PROPERTIES["out_of_bubble"].holds(soob_g)
    assert not PROPERTIES["super_out_of_bubble"].holds(soob_g)
    # no self-loops in the bubble fixtures
    for frame in (soob_f, soob_g):
        assert all((w, w) not in frame.relation for w in frame.worlds)
    # cliques are bidirectional between distinct members
    assert ("w1", "w1p") in soob_f.relation and ("w1p", "w1") in soob_f.relation


def test_indiscernibility_small_depth():
    report = indiscernibility_check(2)
    assert report.agree
    assert report.formulas_checked == 25  # 1 + 4 + 20 one-variable formulas


def test_sweep_matches_scalar_on_seven_world_fixture():
    # the indiscernibility battery leans on the sweep engine; spot-check it
    # against the definitional evaluator on the large fixture
    from mlml._sweep import FrameSweep
    from mlml.algebra import ULTRAFILTERS
    from mlml.kripke import model_valid

    frame = fixtures()["soob_F"]
    sweep = FrameSweep(frame, ("p",))
    formulas = [parse(t) for t in ("[]p", "<>@p -> []<>@p", "@[](p & ~p)")]
    for f in formulas:
        for u in ULTRAFILTERS:
            mask = sweep.valid_mask(f, u)
            for index in (0, 1, 4097, 9000, sweep.valuation_count - 1):
                model = Model(frame, sweep.decode_valuation(index), u)
                assert mask_at(mask, group(sweep, index)) == model_valid(model, f)


# ---------------------------------------------------------------------------
# Properties on relation bitmasks, and the packed correspondence harness
# ---------------------------------------------------------------------------


def _reference_violations(name, frame):
    """Every violation of the named property, in world order, straight from
    the textbook definitions."""
    worlds, edges, label = frame.worlds, frame.relation, frame.lattice_of

    def successors(w):
        return [v for v in worlds if (w, v) in edges]

    if name in ("out_of_bubble", "super_out_of_bubble"):
        for w in worlds:
            if successors(w) and all(label[v] == label[w] for v in successors(w)):
                yield (w,)
    if name == "super_out_of_bubble":
        for w in worlds:
            for u in worlds:
                if (w, u) in edges and label[w] != label[u]:
                    third = ({"A", "B", "C"} - {label[w], label[u]}).pop()
                    if all(label[v] != third for v in successors(w)):
                        yield (w, u)
    for w in worlds:
        if name == "reflexive" and (w, w) not in edges:
            yield (w,)
        if name == "serial" and not successors(w):
            yield (w,)
        for u in worlds:
            if name == "symmetric" and (w, u) in edges and (u, w) not in edges:
                yield (w, u)
            for v in worlds:
                step = (w, u) in edges and (u, v) in edges and (w, v) not in edges
                if (
                    name == "transitive" and step
                    or name == "euclidean"
                    and (w, u) in edges and (w, v) in edges and (u, v) not in edges
                    or name == "transitive_through_equality"
                    and step and label[w] == label[u] == label[v]
                    or name == "transitive_through_difference"
                    and step and label[w] != label[u] == label[v]
                ):
                    yield (w, u, v)


def test_properties_match_their_definitions_on_every_small_frame():
    """On every frame with up to three worlds: each predicate's first
    violation is the textbook definition's first in world order, and the
    packed relation mask, over chunks of every aligned width, agrees."""
    from itertools import product

    for n in (1, 2, 3):
        worlds = tuple(f"w{i + 1}" for i in range(n))
        total = 1 << (n * n)
        relations = [frozenset((worlds[i], worlds[j]) for i in range(n) for j in range(n)
                               if bits >> (i * n + j) & 1) for bits in range(total)]
        for labels in product("ABC", repeat=n):
            frames = [Frame(worlds, edges, dict(zip(worlds, labels))) for edges in relations]
            for name, prop in PROPERTIES.items():
                expected = [next(_reference_violations(name, f), None) for f in frames]
                assert [prop.violation(f) for f in frames] == expected, (name, labels)
                width = 1
                while width <= total:
                    for start in range(0, total, width):
                        mask = prop.relation_mask(worlds, labels, range(start, start + width))
                        assert mask == sum(1 << r for r in range(width)
                                           if expected[start + r] is None), (name, labels)
                    width *= 8 if n == 3 else 2


_WITNESS_DIGEST = """
import hashlib, sys
from mlml.frames import PROPERTIES, enumerate_frames
digest = hashlib.sha256()
for n in (1, 2, 3):
    for frame in enumerate_frames(n):
        for prop in PROPERTIES.values():
            digest.update(repr(prop.violation(frame)).encode())
print(digest.hexdigest())
"""


def test_violation_witnesses_do_not_depend_on_the_hash_seed():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    runs = [
        subprocess.Popen([sys.executable, "-c", _WITNESS_DIGEST], stdout=subprocess.PIPE,
                         text=True, env={**os.environ, "PYTHONPATH": src,
                                         "PYTHONHASHSEED": seed})
        for seed in ("1", "3")
    ]
    digests = [run.communicate(timeout=300)[0] for run in runs]
    assert all(run.returncode == 0 for run in runs)
    assert digests[0] == digests[1] != ""


def test_transitive_witness_is_the_first_in_world_order():
    worlds = ("w1", "w2", "w3")
    edges = {("w1", "w2"), ("w2", "w3"), ("w3", "w1"), ("w1", "w3"), ("w2", "w1")}
    frame = Frame(worlds, frozenset(edges), {w: "A" for w in worlds})
    assert PROPERTIES["transitive"].violation(frame) == ("w1", "w2", "w1")


@pytest.mark.parametrize("name,text,directions", [
    ("super_out_of_bubble", "[](p | q) -> p | q",
     {"property_without_valid", "valid_without_property"}),
    ("transitive", "[]p -> [][]p", {"property_without_valid"}),
], ids=("two_variables", "one_variable"))
def test_width_capped_chunks_match_one_sweep_per_frame(name, text, directions):
    """A two-variable formula at three worlds splits each labelling into
    chunks of 16 relations, a one-variable one sweeps all 512 at once; one
    worker, two workers and a per-frame loop report the same mismatches."""
    from mlml._sweep import FrameSweep, compile_formula
    from mlml.algebra import Ultrafilter
    from mlml.kripke import model_to_dict

    prop = PROPERTIES[name]
    formula = parse(text)
    program = compile_formula(formula)
    u = Ultrafilter.from_name("e2")

    def row(frame, direction, witness):
        if isinstance(witness, Model):
            witness = model_to_dict(witness)
        return len(frame.worlds), frame_encoding(frame), direction, witness

    expected = []
    for n in (1, 2, 3):
        for frame in enumerate_frames(n):
            sweep = FrameSweep(frame, variables(formula))
            holds = prop.holds(frame)
            index = sweep.first_invalid_index(program, u)
            if holds and index is not None:
                model = Model(frame, sweep.decode_valuation(index), u)
                expected.append(row(frame, "property_without_valid", model))
            elif not holds and index is None:
                expected.append(row(frame, "valid_without_property", prop.violation(frame)))
    expected.sort(key=lambda r: r[:2])
    assert {r[2] for r in expected} == directions
    for workers in (1, 2):
        report = correspondence_check(prop, formula, 3, u, workers=workers)
        assert report.frames_checked == 6 + 144 + 13824
        assert all(m.ultrafilter == u for m in report.mismatches)
        assert [row(m.frame, m.direction, m.witness) for m in report.mismatches] == expected


def test_correspondence_witnesses_replay_on_the_definitional_evaluator():
    from mlml.kripke import first_failing_world

    replayed = 0
    for name, text in (("transitive", "[]p -> [][]p"), ("euclidean", "<>p -> []<>p")):
        formula = parse(text)
        report = correspondence_check(name, formula, 3)
        for m in report.mismatches:
            assert m.direction == "property_without_valid"
            assert PROPERTIES[name].holds(m.frame)
            assert m.witness.frame is m.frame and m.witness.ultrafilter is m.ultrafilter
            assert first_failing_world(m.witness, formula) is not None
            replayed += 1
    assert replayed == 2214 + 1626


# ---------------------------------------------------------------------------
# Report rows: the CSV formatter and the lazily built mismatches
# ---------------------------------------------------------------------------

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


def _csv_reference(report):
    """The CSV lines of the report's mismatches, each built as a Mismatch and
    written out from it: the witness through model_to_dict and json.dumps,
    or as its violation, and each line, with its newline, by the standard
    csv module."""
    import csv
    import io
    import json

    from mlml.kripke import model_to_dict

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    keys = []
    for m in report.mismatches:
        holds = m.direction == "property_without_valid"
        if holds:
            assert m.witness.frame is m.frame and m.witness.ultrafilter is m.ultrafilter
            witness = json.dumps(model_to_dict(m.witness))
        else:
            witness = "violation at " + ",".join(m.witness)
        keys.append((len(m.frame.worlds), frame_encoding(m.frame), m.ultrafilter.name))
        writer.writerow([f"{keys[-1][1]};U={keys[-1][2]}", str(holds).lower(),
                         str(not holds).lower(), witness])
    assert keys == sorted(keys)  # the encoding sorts as a string
    return buffer.getvalue().splitlines(keepends=True)


E1, E2, E3 = ULTRAFILTERS
# Every ultrafilter, and two given against their rank order.
SELECTIONS = pytest.mark.parametrize("selected", ["all", (E3, E1)], ids=["all", "e3-e1"])


def _in_report_order(rows):
    """The rows sorted by the report's key: world count, the relation bits
    as the frame encoding writes them, labels, then ultrafilter rank."""
    rank = {u: i for i, u in enumerate(ULTRAFILTERS)}
    return sorted(rows, key=lambda row: (row[0], f"{row[1]}:", row[2], rank[row[3]]))


@pytest.mark.parametrize("prop, text", CRITERIA)
def test_csv_rows_match_the_mismatches(prop, text):
    report = correspondence_check(prop, text, 2)
    assert list(report.csv_rows()) == _csv_reference(report)


@pytest.mark.parametrize("prop, text", CRITERIA)
def test_csv_rows_match_the_mismatches_given_e3_e1(prop, text):
    """Two ultrafilters given against their rank order."""
    report = correspondence_check(prop, text, 2, (E3, E1))
    assert list(report.csv_rows()) == _csv_reference(report)


@SELECTIONS
@pytest.mark.parametrize("prop, text", CRITERIA)
def test_rows_come_in_report_order(prop, text, selected):
    """The rows are bucketed, not sorted: they must come out as the sort by
    the report's key puts them, with the ultrafilters in rank order whatever
    order they were given in, which `report.ultrafilters` keeps."""
    report = correspondence_check(prop, text, 3, selected)
    assert report.rows == _in_report_order(report.rows)
    assert report.ultrafilters == (("e1", "e2", "e3") if selected == "all" else ("e3", "e1"))


@pytest.mark.parametrize("workers", [1, 2])
def test_csv_rows_match_the_mismatches_in_chunks(workers):
    """Two variables at three worlds: 16-relation chunks, both directions,
    one or two workers, the rows in report order.  Read with the variables in the other order too, so
    that slot order and sorted order differ."""
    from dataclasses import replace

    report = correspondence_check("super_out_of_bubble", "[](p | q) -> p | q", 3,
                                  workers=workers)
    assert report.directions() == {"property_without_valid", "valid_without_property"}
    assert report.rows == _in_report_order(report.rows)
    assert list(report.csv_rows()) == _csv_reference(report)
    swapped = replace(report, variables=report.variables[::-1])
    assert list(swapped.csv_rows()) == _csv_reference(swapped)


def test_mismatches_are_built_only_when_read(monkeypatch):
    from mlml import frames

    built = []
    frame_class = frames.Frame

    def counting_frame(*args):
        built.append(args)
        return frame_class(*args)

    monkeypatch.setattr(frames, "Frame", counting_frame)
    report = correspondence_check("transitive", "[]p -> [][]p", 3)
    assert len(built) == 3  # the re-check of the first witness per ultrafilter
    assert len(report.mismatches) == 2214
    assert report.directions() == {"property_without_valid"} and not report.clean
    assert len(list(report.csv_rows())) == 2214
    assert len(built) == 3
    last = report.mismatches[-1]
    assert len(built) == 4
    assert report.mismatches[-1:] == [last]


def test_correspond_rechecks_the_countermodel(monkeypatch):
    from mlml import kripke

    monkeypatch.setattr(kripke, "first_failing_world", lambda model, formula: None)
    with pytest.raises(AssertionError, match="sweep and definitional evaluator disagree"):
        correspondence_check("euclidean", "<>p -> []<>p", 2)


def test_correspond_rechecks_the_violation(monkeypatch):
    from mlml.frames import ClauseViolation

    report = correspondence_check("symmetric", "<>p -> []p", 2)
    assert "valid_without_property" in report.directions()
    monkeypatch.setattr(ClauseViolation, "__call__", lambda self, frame: ("w9",))
    with pytest.raises(AssertionError, match="sweep and definitional evaluator disagree"):
        correspondence_check("symmetric", "<>p -> []p", 2)


# ---------------------------------------------------------------------------
# Indiscernibility over semantic classes
# ---------------------------------------------------------------------------


def _fixture_sweeps():
    from mlml._sweep import FrameSweep

    named = fixtures()
    return [FrameSweep(named[name], ("p",)) for name in ("soob_F", "soob_Fprime")]


def _selections():
    from mlml.algebra import ULTRAFILTERS

    return [ULTRAFILTERS] + [(u,) for u in ULTRAFILTERS]


@pytest.mark.parametrize("depth", range(4))
def test_class_path_matches_the_formula_loop_on_the_fixtures(depth):
    from mlml import frames
    from mlml.syntax import generate_corpus

    sweeps = _fixture_sweeps()
    for selected in _selections():
        report = indiscernibility_check(depth, selected)
        assert report.disagreements == frames._formula_disagreements(sweeps, depth, selected)
        assert report.formulas_checked == len(generate_corpus(["p"], depth))


@pytest.mark.parametrize("depth", range(4))
def test_semantic_classes_are_the_distinct_values_of_the_corpus(depth):
    from mlml import frames
    from mlml.syntax import connective_count, generate_corpus

    sweeps = _fixture_sweeps()
    least_depth = {}
    for f in generate_corpus(["p"], depth):  # ordered by connective count
        values = tuple(tuple(sweep.values(f)) for sweep in sweeps)
        least_depth.setdefault(values, connective_count(f))
    classes = list(frames._semantic_classes(sweeps, depth))
    assert len(set(classes)) == len(classes) == len(least_depth)
    assert [least_depth[c] for c in classes] == sorted(least_depth.values())


def test_semantic_class_counts_to_depth_five():
    from mlml import frames

    classes = frames._semantic_classes(_fixture_sweeps(), 5)
    assert sum(1 for _ in classes) == 1 + 3 + 10 + 25 + 76 + 223


def test_the_class_path_generates_no_corpus(monkeypatch):
    from mlml import syntax

    def refuse(*args):
        raise AssertionError("corpus generated")

    monkeypatch.setattr(syntax, "generate_corpus", refuse)
    report = indiscernibility_check(4)
    assert report.agree and report.formulas_checked == 881


def test_a_split_falls_back_to_the_formula_rows():
    from mlml import frames
    from mlml._sweep import FrameSweep

    reflexive = Frame(("w",), frozenset({("w", "w")}), {"w": "A"})
    irreflexive = Frame(("w",), frozenset(), {"w": "A"})
    sweeps = [FrameSweep(frame, ("p",)) for frame in (reflexive, irreflexive)]
    for depth in range(5):
        for selected in _selections():
            rows = frames._disagreements(reflexive, irreflexive, depth, selected, None)
            assert rows == frames._formula_disagreements(sweeps, depth, selected)
            assert bool(rows) == (depth > 0)
            if depth == 4:  # []p -> p, written in the corpus connectives
                assert ("~([]p & ~p)", selected[0].name, True, False) in rows


# sha256 of `indiscern --corpus-depth d` stdout, without and with --csv,
# as the formula loop printed it.
INDISCERN_SHA256 = {
    0: ("f2192593be2b1bb53384fab9c1891b4ce9217755aca51fcb86119a5af3146f12",
        "85feb2c2969747d4bc85b8ec041c04def370be01bb622456e98526f69c7d510a"),
    1: ("0083e6c5036b2326d49e5b45264889f9746726efdb62d6fdca9b20b7d9694093",
        "620b732929dc57c14a8a14365821ac448603633dfc874e759d5a2cc1f6824f55"),
    2: ("676530d1a3bee9391c3fe75a8ff32afe64230d08ac61d45509b92c47ff87a25e",
        "7e9ae1cf2267c40bac8ffa5c1a62a9fe5765053c2f5f015f96d1c6618c64a032"),
    3: ("7da858df39122f0458d2cfd42d8997caa11df18844d4d3129b3fc1003945f2e1",
        "c5388226f30133553115e9ee5abfc2fe708b9d0f36a93c52df9349a1a1be9f61"),
    4: ("9d92091d52fc5b14682be744522338af639865fa34af21c3b06c9c1783e1ac7f",
        "ef5772a23ac9401f4b4db4277d74115ef2a64f0e8a486948db3901ff00e737c0"),
    5: ("22bc403af5e51825f1a9fcb5d2bd095c3d06955d1f84abf165abbc6f693b674c",
        "da0387a4407f83ed684f06580cf0b48003185948cd0ea6a5cffebd8202f3b564"),
    6: ("ebcd6287a343375158c749ebb902c45c84a1cb31fc0016e4a39e2877db9722aa",
        "1e110d7c0e96d16ea8ef837246d5e1d4fce813c1a874a8603a21f7adf90b4314"),
}


def _indiscern_stdout_digests(capsys, depth):
    import hashlib

    from mlml.cli import main

    digests = []
    for flags in ([], ["--csv"]):
        assert main(["indiscern", "--corpus-depth", str(depth), *flags]) == 0
        digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    return tuple(digests)


@pytest.mark.parametrize("depth", sorted(INDISCERN_SHA256))
def test_indiscern_stdout_matches_the_formula_loop(capsys, depth):
    assert _indiscern_stdout_digests(capsys, depth) == INDISCERN_SHA256[depth]


def test_semantic_classes_do_not_rest_on_the_fingerprint(capsys, monkeypatch):
    from mlml import frames

    sweeps = _fixture_sweeps()
    keyed = [list(frames._semantic_classes(sweeps, depth)) for depth in range(5)]
    monkeypatch.setattr(frames, "_fingerprint", lambda values: 0)  # one bucket for all
    for depth in range(5):
        assert list(frames._semantic_classes(sweeps, depth)) == keyed[depth]
        assert _indiscern_stdout_digests(capsys, depth) == INDISCERN_SHA256[depth]


def test_indiscern_past_the_class_cap_exits_3(capsys, monkeypatch):
    from mlml import frames
    from mlml.cli import main

    # The last level is checked, not kept: depth 2 keeps 1 + 3, depth 3
    # must keep depth 2's 10 as well.
    monkeypatch.setattr(frames, "MAX_SEMANTIC_CLASSES", 4)
    assert main(["indiscern", "--corpus-depth", "2"]) == 0
    assert main(["indiscern", "--corpus-depth", "3"]) == 3
    captured = capsys.readouterr()
    assert "more than 4 semantic classes at corpus depth 2" in captured.err
    assert captured.out.count("\n") == 1


def test_indiscern_reaches_the_class_cap_before_counting_the_corpus(capsys, monkeypatch):
    from mlml import frames
    from mlml.cli import main

    counted = []
    monkeypatch.setattr(frames, "MAX_SEMANTIC_CLASSES", 4)
    monkeypatch.setattr(frames.syntax, "corpus_size", lambda *args: counted.append(args))
    assert main(["indiscern", "--corpus-depth", "100000"]) == 3
    assert "more than 4 semantic classes at corpus depth 2" in capsys.readouterr().err
    assert counted == []


def test_indiscern_keeps_no_class_of_its_last_level(capsys, monkeypatch):
    from mlml import frames
    from mlml.cli import main

    monkeypatch.setattr(frames, "MAX_SEMANTIC_CLASSES", 1 + 3 + 10 + 25 + 76)  # depths 0-4
    assert main(["indiscern", "--corpus-depth", "5"]) == 0
    assert "agree on all 5909 corpus formulas" in capsys.readouterr().out
