"""Relation orbits and canonical frames against brute force.

The countermodel search sweeps, per orbit representative L of the
labellings, only the relations least in their orbit under L's stabiliser H,
each weighted by its orbit size; `enumerate --reduce` keeps the least frame
of each orbit under all world permutations, given per least relation with
its least labellings.  Both come from one bit-sliced walk in `mlml._orbits`
that keeps the renamings fixing each canonical relation, checked here
against the permuted relations themselves and against Burnside's lemma.
The relation-blind pass reads each property once per representative.
"""

import hashlib
import tracemalloc
from itertools import permutations, product
from math import factorial

import pytest

from mlml import frames
from mlml._orbits import (
    _chunks, _labelling_orbits, canonical_relations, least_frames, stabiliser)
from mlml.algebra import ULTRAFILTERS
from mlml.cli import main
from mlml._sweep import relation_chunk_width, set_bits
from mlml.frames import PROPERTIES, FrameProperty, count_frames, enumerate_frames
from mlml.kripke import countermodel_search
from mlml.syntax import parse

ALL = ("e1", "e2", "e3")
SELECTIONS = [ALL, ("e1",), ("e2",), ("e3",), ("e1", "e3")]


def _image(r, s, n):
    """The relation r with world i renamed to s[i]."""
    return sum(1 << (s[i] * n + s[j]) for i in range(n) for j in range(n) if r >> (i * n + j) & 1)


def _moved(labels, s):
    image = [""] * len(labels)
    for i, label in enumerate(labels):
        image[s[i]] = label
    return tuple(image)


@pytest.mark.parametrize("names", SELECTIONS)
def test_canonical_relations_are_the_least_of_their_stabiliser_orbits(names):
    for n in (1, 2, 3):
        for labels, _ in _labelling_orbits(n, names):
            group = stabiliser(labels, names)
            expected = []
            for r in range(1 << (n * n)):
                images = [_image(r, s, n) for s in group]
                if min(images) == r:
                    expected.append((r, len(group) // images.count(r)))
            got = list(canonical_relations(n, labels, names))
            assert got == expected
            assert sum(weight for _, weight in got) == 1 << (n * n)


def test_stabilisers_of_the_three_world_representatives():
    assert [(labels, len(stabiliser(labels, ALL))) for labels, _ in _labelling_orbits(3, ALL)] == [
        (("A", "A", "A"), 6), (("A", "A", "B"), 2), (("A", "B", "C"), 6)]
    for names in SELECTIONS:
        for n in (1, 2, 3):
            for labels, _ in _labelling_orbits(n, names):
                group = stabiliser(labels, names)
                assert group[0] == tuple(range(n))
                # A group: closed under composition.
                products = {tuple(s[t[i]] for i in range(n)) for s in group for t in group}
                assert products == set(group)


def test_four_world_canonical_relations():
    """Four worlds take several chunks, most without the relations that
    every renaming fixes."""
    counts = []
    for labels, _ in _labelling_orbits(4, ALL):
        canonical = list(canonical_relations(4, labels, ALL))
        assert sum(weight for _, weight in canonical) == 1 << 16
        counts.append(len(canonical))
    assert counts == [3044, 11456, 8548, 16960]
    assert sum(counts) == 40008


@pytest.mark.parametrize("n, names", [(3, names) for names in SELECTIONS] + [(4, ALL)])
def test_weighted_canonical_relations_count_every_frame_with_a_property(n, names):
    """What the search counts against --max-frames when it has no hit."""
    worlds = tuple(f"w{i + 1}" for i in range(n))
    for prop in PROPERTIES.values():
        weighted = 0
        for labels, size in _labelling_orbits(n, names):
            canonical = list(canonical_relations(n, labels, names))
            holds = prop.relation_mask(worlds, labels, tuple(r for r, _ in canonical))
            weighted += size * sum(weight for k, (_, weight) in enumerate(canonical)
                                   if holds >> k & 1)
        every = range(1 << (n * n))
        assert weighted == sum(prop.relation_mask(worlds, labels, every).bit_count()
                               for labels in product("ABC", repeat=n))


def _weighted_total(groups, n, width, ramp):
    """The weighted frame count of a pass, after checking the shape of its
    groups: group k takes from each labelling the next step of 1, 1, 2, 4,
    ... relations up to `width` with `ramp`, else `width`, as an aligned
    range or a strictly ascending tuple no longer than the step, every unit
    carrying one weight, and each labelling's relations come once each,
    ascending."""
    total, done, seen = 0, 0, {}
    for group in groups:
        step = min(width, max(1, done)) if ramp else width
        done += step
        for labels, chunk, weights in group:
            count = len(chunk)
            assert 0 < count <= width
            carried = 0
            for weight, units in weights.items():
                assert weight > 0 and units and not carried & units
                carried |= units
                total += weight * units.bit_count()
            assert carried == (1 << count) - 1  # every unit carries a weight
            if isinstance(chunk, range):
                assert count & (count - 1) == 0
                assert chunk.step == 1 and chunk.start % count == 0 and count == step
            else:
                assert all(a < b for a, b in zip(chunk, chunk[1:])) and count <= step
            swept = seen.setdefault(labels, [])
            swept += chunk
    for swept in seen.values():
        assert swept == sorted(set(swept))
    return total


@pytest.mark.parametrize("names", SELECTIONS)
def test_every_pass_is_cut_into_ramped_aligned_parts(names):
    """The frame-by-frame and orbit passes weigh every frame, the
    relation-blind pass every frame passing the property, with one or two
    variables and with or without the ramp, on up to three worlds, and the
    orbit pass's canonical tuples on four."""
    for n in (1, 2, 3):
        for variables, ramp in product((1, 2), (False, True)):
            width = relation_chunk_width(n, variables)
            for groups in (frames._every_frame(n, variables, ramp),
                           frames._orbit_parts(n, variables, names, ramp)):
                assert _weighted_total(groups, n, width, ramp) == count_frames(n)
        worlds = tuple(f"w{i + 1}" for i in range(n))
        for prop in [None, *PROPERTIES.values()]:
            passing = count_frames(n) if prop is None else sum(
                prop.relation_mask(worlds, labels, range(1 << (n * n))).bit_count()
                for labels in product("ABC", repeat=n))
            groups = list(frames._relation_blind_parts(n, names, prop))
            assert len(groups) == 1
            assert _weighted_total(groups, n, 1, False) == passing
    # Canonical tuples come from four worlds on, some with a tail whose
    # length is not a power of two.
    for ramp in (False, True):
        groups = list(frames._orbit_parts(4, 1, names, ramp))
        assert _weighted_total(groups, 4, relation_chunk_width(4, 1), ramp) == count_frames(4)
        assert any(isinstance(chunk, tuple) and len(chunk) & (len(chunk) - 1)
                   for group in groups for _, chunk, _ in group)


def test_the_relation_blind_pass_reads_each_property_once_per_representative(monkeypatch):
    """At four worlds the relation-blind pass reads a property's mask over
    all 65,536 relations in one call per labelling-orbit representative,
    and its groups are those of a walk over the 4,096-relation chunks."""
    worlds = ("w1", "w2", "w3", "w4")
    representatives = _labelling_orbits(4, ALL)
    mask = FrameProperty.relation_mask
    calls = []

    def spy(self, *args):
        calls.append(args[2])
        return mask(self, *args)

    for prop in PROPERTIES.values():
        expected = []
        for labels, size in representatives:
            passing = [relations[k] for relations in _chunks(4)
                       for k in set_bits(mask(prop, worlds, labels, relations))]
            expected.append((labels, range(passing[0], passing[0] + 1),
                             {size * len(passing): 1}))
        calls.clear()
        monkeypatch.setattr(FrameProperty, "relation_mask", spy)
        assert list(frames._relation_blind_parts(4, ALL, prop)) == [expected]
        monkeypatch.undo()
        assert calls == [range(0, 1 << 16)] * len(representatives)


def test_a_search_without_a_countermodel_sweeps_only_canonical_relations(monkeypatch):
    swept = set()
    sweep = frames.FrameSweep

    def spy(chunk, *args, **kwargs):
        if len(chunk.worlds) == 3:
            swept.update((chunk.labels, r) for r in chunk.relations)
        return sweep(chunk, *args, **kwargs)

    monkeypatch.setattr(frames, "FrameSweep", spy)
    # A judgment with a modality: one with none gets one relation per
    # representative instead.
    judgment = [parse("[]p"), parse("@[]p")], parse("@([]p | q)")
    assert countermodel_search(*judgment, 3, ULTRAFILTERS) is None
    assert len(swept) == 104 + 272 + 104 == 480
    assert swept == {(labels, r) for labels, _ in _labelling_orbits(3, ALL)
                     for r, _ in canonical_relations(3, labels, ALL)}


def _burnside(n):
    """Orbits of labelled frames under world permutations: the average over
    the permutations of the frames each fixes."""
    total = 0
    for s in permutations(range(n)):
        world_cycles = _cycles(range(n), lambda i: s[i])
        edge_cycles = _cycles([(i, j) for i in range(n) for j in range(n)],
                              lambda e: (s[e[0]], s[e[1]]))
        total += 2 ** edge_cycles * 3 ** world_cycles
    return total // factorial(n)


def _cycles(points, move):
    seen, cycles = set(), 0
    for x in points:
        if x not in seen:
            cycles += 1
            while x not in seen:
                seen.add(x)
                x = move(x)
    return cycles


def _least(n):
    """The least frames on n worlds, as (relation bitmask, labels) pairs."""
    return [(bits, labels) for bits, group in least_frames(n) for labels in group]


def test_reduced_enumeration_counts_match_burnside():
    for n, count in ((1, 6), (2, 78), (3, 2456), (4, 228588)):
        assert _burnside(n) == count
        assert len(_least(n)) == count
    assert sum(1 for _ in enumerate_frames(3, reduce_isomorphism=True)) == 2456


def test_the_first_least_frame_needs_no_table_of_every_labelling():
    """least_frames works a chunk of relations at a time: at six worlds, with
    3**6 labellings and 6! permutations, its first frame costs little
    memory."""
    tracemalloc.start()
    try:
        bits, group = next(least_frames(6))
        assert (bits, group[0]) == (0, ("A",) * 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_reduced_frames_are_least_in_their_orbits():
    for n in (1, 2, 3):
        kept = _least(n)
        assert kept == sorted(kept)
        for bits, labels in kept:
            assert all((bits, labels) <= (_image(bits, s, n), _moved(labels, s))
                       for s in permutations(range(n)))


def test_reduced_enumeration_output_is_unchanged(capsys):
    assert main(["enumerate", "--worlds", "3", "--reduce"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == "b4224dfd1ccb50bb3d99dc1cb3ddc766cb5882080f7ca2627f9a1ff6fe174050"


def test_a_search_whose_sweep_holds_a_labellings_relations_sweeps_them_all(monkeypatch):
    """With one variable, one sweep can hold all 512 relations of a 3-world
    labelling, so the orbit pass sweeps aligned ranges of every relation of
    each representative instead of canonical tuples."""
    swept = set()
    sweep = frames.FrameSweep

    def spy(chunk, *args, **kwargs):
        if len(chunk.worlds) == 3:
            assert isinstance(chunk.relations, range)
            swept.update((chunk.labels, r) for r in chunk.relations)
        return sweep(chunk, *args, **kwargs)

    monkeypatch.setattr(frames, "FrameSweep", spy)
    assert countermodel_search([parse("@[]p")], parse("@~[]p"), 3, ULTRAFILTERS) is None
    assert swept == {(labels, r) for labels, _ in _labelling_orbits(3, ALL) for r in range(512)}
    assert len(swept) == 3 * 512
