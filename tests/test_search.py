"""Differential test of the chunked countermodel search against the
frame-by-frame search it replaced, which is kept here as the reference.

Random premises and goals over p and q are searched on every frame with up
to two worlds, and up to three for one variable, under a random ordered
subset of the ultrafilters, with no frame filter, a `PROPERTIES` entry or
a property whose clauses single out world w1, a random valuation cap, and a
random frame budget as well as the budgets that end just at and just before
the countermodel's frame.  Both searches must return the same model or raise
the same exception with the same message.

The search first sweeps one labelling per orbit of world renamings and atom
permutations; the symmetry that makes this sound is checked here on every
property and every frame with up to three worlds.  A judgment with no
modality gets one relation per orbit representative; random ones are
compared with the frame-by-frame scan alone, which a copy of the property
outside `PROPERTIES` forces.
"""

from itertools import permutations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from mlml import frames
from mlml._sweep import FrameSweep, ResourceBudgetExceeded
from mlml.algebra import ULTRAFILTERS
from mlml.frames import (
    PROPERTIES,
    ClauseViolation,
    FrameProperty,
    _labelling_orbits,
    enumerate_frames,
)
from mlml.kripke import Model, countermodel_search
from mlml.syntax import Ball, Not, parse, variables

from test_sweep import _formulas


def per_frame_search(premises, goal, max_worlds, ultrafilters, frame_filter, max_valuations,
                     max_frames):
    """One sweep per frame, frames in canonical order: the first countermodel."""
    var_names = tuple(sorted(set().union(*(variables(g) for g in premises + [goal]))))
    seen = 0
    for n in range(1, max_worlds + 1):
        for frame in enumerate_frames(n):
            if frame_filter is not None and not frame_filter(frame):
                continue
            seen += 1
            if max_frames is not None and seen > max_frames:
                raise ResourceBudgetExceeded(f"frame budget of {max_frames} exhausted")
            sweep = FrameSweep(frame, var_names, max_valuations=max_valuations)
            for u in ultrafilters:
                index = sweep.countermodel_index(premises, goal, u)
                if index is not None:
                    return Model(frame, sweep.decode_valuation(index), u)
    return None


def _outcome(search, *args):
    try:
        model = search(*args)
    except ResourceBudgetExceeded as exc:
        return "raised", str(exc)
    return None if model is None else (model.frame, model.valuation, model.ultrafilter.name)


def _w1_loop(n, labels):
    """The one clause: a relation lacking the edge w1 -> w1 fails."""
    yield (0,), 0, 1


# Renaming the worlds does not keep this property, so the search must not
# reduce it to orbit representatives.
W1_LOOP = FrameProperty("w1_loop", ClauseViolation(_w1_loop))

FILTERS = st.sampled_from([None, W1_LOOP] + list(PROPERTIES))


@st.composite
def searches(draw):
    names = draw(st.sampled_from([("p",), ("p", "q")]))
    formulas = _formulas(3, names)
    premises = draw(st.lists(formulas, max_size=2))
    goal = draw(formulas)
    max_worlds = draw(st.integers(1, 3 if len(names) == 1 else 2))
    order = draw(st.permutations(ULTRAFILTERS))
    ultrafilters = tuple(order[:draw(st.integers(1, 3))])
    # A cap of 16 valuations stops two variables at two worlds, one at three.
    max_valuations = draw(st.sampled_from([4 ** 10, 16]))
    max_frames = draw(st.none() | st.integers(1, 8) | st.integers(1, 2000))
    return premises, goal, max_worlds, ultrafilters, draw(FILTERS), max_valuations, max_frames


def _frames_reached(frame, frame_filter) -> int:
    """How many frames pass the filter up to and including this one."""
    count = 0
    for n in range(1, len(frame.worlds) + 1):
        for other in enumerate_frames(n):
            count += frame_filter is None or frame_filter(other)
            if other == frame:
                return count
    raise AssertionError("frame not enumerated")


@settings(max_examples=60, deadline=None)
@given(searches())
# The README's two searches: a hit on the 26th frame, and one on Euclidean frames.
@example(([parse("p")], parse("[]p"), 2, ULTRAFILTERS, None, 4 ** 10, None))
@example(([], parse("<>p -> []<>p"), 3, ULTRAFILTERS, "euclidean", 4 ** 10, None))
# No countermodel at three worlds, under every ultrafilter and under e2 alone.
@example(([parse("p"), parse("@p")], parse("@(p | q)"), 3, ULTRAFILTERS, None, 4 ** 10, None))
@example(([parse("p"), parse("@p")], parse("@(p | q)"), 3, ULTRAFILTERS[1:2], None, 4 ** 10,
          None))
# None on reflexive frames: 3 + 36 + 1,728 of them, a budget just at and just below.
@example(([], parse("[]p -> p"), 3, ULTRAFILTERS, "reflexive", 4 ** 10, 1767))
@example(([], parse("[]p -> p"), 3, ULTRAFILTERS, "reflexive", 4 ** 10, 1766))
# The first countermodel under e1 has a loop at a B-world and none at the
# A-world; the representative AB of its orbit puts w1 in A.
@example(([parse("<>p"), parse("p")], parse("<>[-]p"), 2, ULTRAFILTERS[:1], W1_LOOP, 4 ** 10,
          None))
# Under e2 alone, an atom permutation that moves e2 is no symmetry: the first
# countermodel has labels A, C, and A, B, in its orbit under all of S_3, has
# none on that relation.
@example(([parse("~p & <>p")], parse("p"), 2, ULTRAFILTERS[1:2], None, 4 ** 10, None))
# The 42nd frame that passes the filter is the first countermodel.  The
# orbit pass stops at the budget before it meets one, which does not show
# that there is none, so the search goes on frame by frame and finds it.
@example(([parse("p")], parse("[-]p"), 3, ULTRAFILTERS[:1], "super_out_of_bubble", 4 ** 10, 42))
def test_chunked_search_matches_the_per_frame_search(case):
    premises, goal, max_worlds, ultrafilters, frame_filter, max_valuations, max_frames = case
    prop = PROPERTIES[frame_filter] if isinstance(frame_filter, str) else frame_filter
    reference = None if prop is None else prop.holds
    budgets = [max_frames]
    unbudgeted = _outcome(per_frame_search, premises, goal, max_worlds, ultrafilters,
                          reference, max_valuations, None)
    if unbudgeted is not None and unbudgeted[0] != "raised":
        # A budget of exactly the frames up to the hit, and one frame less.
        reached = _frames_reached(unbudgeted[0], reference)
        budgets += [reached, reached - 1]
    for budget in budgets:
        expected = _outcome(per_frame_search, premises, goal, max_worlds, ultrafilters,
                            reference, max_valuations, budget)
        got = _outcome(countermodel_search, premises, goal, max_worlds, ultrafilters,
                       prop, max_valuations, budget)
        assert got == expected


def test_a_spent_frame_budget_comes_before_the_valuation_cap():
    """`p | ~p` has no countermodel on the six one-world frames; the first
    two-world frame is over a budget of six frames, and its 16 valuations
    are over a cap of 4.  The budget is reported first, as frame by frame."""
    goal = parse("p | ~p")
    for budget, message in ((6, "frame budget of 6 exhausted"),
                            (7, "16 valuations exceed the cap of 4")):
        args = ([], goal, 2, ULTRAFILTERS, None, 4, budget)
        assert _outcome(countermodel_search, *args) == ("raised", message)
        assert _outcome(per_frame_search, *args) == ("raised", message)


def test_a_bound_holds_filter_searches_on_the_clause_masks(monkeypatch):
    """A property's bound `holds`, as the is_* aliases are, finds the same
    countermodel as the property, and a search without a hit builds no
    frame to call it on."""
    from mlml import frames

    built = []
    from_bits = frames._frame_from_bits
    monkeypatch.setattr(frames, "_frame_from_bits",
                        lambda *args: built.append(args) or from_bits(*args))
    reflexive = PROPERTIES["reflexive"]
    assert countermodel_search([], parse("[]p -> p"), 3, frame_filter=reflexive.holds) is None
    assert built == []
    goal = parse("[]p -> [][]p")
    model = countermodel_search([], goal, 3, frame_filter=frames.is_reflexive)
    assert model is not None
    assert model == countermodel_search([], goal, 3, frame_filter=reflexive)


def test_a_filter_without_clauses_is_refused():
    """A property is its clauses: a finder without them, or a plain
    predicate as the search's filter, raises TypeError."""
    with pytest.raises(TypeError):
        FrameProperty("x", lambda frame: None)
    with pytest.raises(TypeError):
        countermodel_search([], parse("p"), 1, frame_filter=lambda frame: True)


def test_a_search_without_a_countermodel_sweeps_the_orbit_representatives(monkeypatch):
    """One labelling per orbit for no filter and for a `PROPERTIES` entry,
    every labelling for a property whose clauses single out a world.  The
    judgment has a modality, so the orbit pass sweeps canonical relations."""
    swept = []
    sweep = frames.FrameSweep
    monkeypatch.setattr(frames, "FrameSweep",
                        lambda chunk, *args, **kw: swept.append(chunk.labels) or sweep(chunk, *args, **kw))
    judgment = ([parse("[]p"), parse("@[]p")], parse("@([]p | q)"), 3)
    for ultrafilters, frame_filter, labellings in (
        (ULTRAFILTERS, None, [("A",), ("A", "A"), ("A", "B"), ("A", "A", "A"),
                              ("A", "A", "B"), ("A", "B", "C")]),
        (ULTRAFILTERS[1:2], PROPERTIES["reflexive"],
         [x for n in (1, 2, 3) for x, _ in _labelling_orbits(n, ("e2",))]),
        (ULTRAFILTERS, W1_LOOP, [x for n in (1, 2, 3) for x in product("ABC", repeat=n)]),
    ):
        swept.clear()
        assert countermodel_search(*judgment, ultrafilters, frame_filter) is None
        assert sorted(set(swept), key=lambda x: (len(x), x)) == labellings


def _no_clauses(n, labels):
    """No clause can fail: every frame has the property."""
    return ()


@st.composite
def modal_free_searches(draw):
    names = draw(st.sampled_from([("p",), ("p", "q")]))
    formulas = _formulas(3, names, st.sampled_from([Not, Ball]))
    premises = draw(st.lists(formulas, max_size=2))
    goal = draw(formulas)
    order = draw(st.permutations(ULTRAFILTERS))
    ultrafilters = tuple(order[:draw(st.integers(1, 3))])
    return (premises, goal, draw(st.integers(1, 3)), ultrafilters,
            draw(st.sampled_from([None] + list(PROPERTIES))),
            draw(st.sampled_from([None, 3, 40, 500])))


@settings(max_examples=40, deadline=None)
@given(modal_free_searches())
# No countermodel up to three worlds: every relation-blind part is swept.
@example(([parse("p"), parse("@p")], parse("@(p | q)"), 3, ULTRAFILTERS, "euclidean", None))
# A hit on the least relation passing `reflexive`, which is not relation 0.
@example(([], parse("@p"), 2, ULTRAFILTERS, "reflexive", None))
@example(([], parse("@p"), 2, ULTRAFILTERS, "reflexive", 3))
# Modal formulas whose constants fold away: to F, and to T with a hit.
@example(([parse("~@[]@p")], parse("<>(@p & ~@@p)"), 3, ULTRAFILTERS, "serial", 40))
@example(([parse("@[]@q")], parse("@<>@p & p"), 2, ULTRAFILTERS, "reflexive", None))
def test_the_relation_blind_search_matches_the_frame_by_frame_scan(case):
    premises, goal, max_worlds, ultrafilters, name, max_frames = case
    prop = None if name is None else PROPERTIES[name]
    # A copy outside PROPERTIES, under a name of its own, gets no orbit pass.
    clauses = _no_clauses if prop is None else prop.violation.clauses
    plain = FrameProperty("plain", ClauseViolation(clauses))
    args = (premises, goal, max_worlds, ultrafilters)
    assert (_outcome(countermodel_search, *args, prop, 4 ** 10, max_frames)
            == _outcome(countermodel_search, *args, plain, 4 ** 10, max_frames))


@pytest.mark.parametrize("premises, goal", [
    (["p", "@p"], "@(p | q)"),
    # Modal, but folding constants leaves the premise F and the goal F.
    (["~@[]@p"], "<>(@p & ~@@p) ^ <>(~@p & ~@@p)"),
])
def test_a_relation_blind_search_sweeps_one_relation_per_representative(
        monkeypatch, premises, goal):
    """Without a countermodel, one one-relation sweep per labelling
    representative and world count, at the least relation that passes the
    filter, for a judgment with no modality once its constants are
    folded."""
    swept = []
    sweep = frames.FrameSweep
    monkeypatch.setattr(frames, "FrameSweep",
                        lambda chunk, *args, **kw: swept.append(chunk) or sweep(chunk, *args, **kw))
    for frame_filter, key in (
        (None, ("e1", "e2", "e3")),
        (PROPERTIES["reflexive"], ("e1", "e2", "e3")),
        (PROPERTIES["serial"], ("e2",)),
    ):
        swept.clear()
        ultrafilters = [u for u in ULTRAFILTERS if u.name in key]
        assert countermodel_search([parse(p) for p in premises], parse(goal), 3, ultrafilters,
                                   frame_filter) is None
        expected = []
        for n in (1, 2, 3):
            worlds = tuple(f"w{i + 1}" for i in range(n))
            for labels, _ in _labelling_orbits(n, key):
                least = 0
                if frame_filter is not None:
                    mask = frame_filter.relation_mask(worlds, labels, range(1 << (n * n)))
                    least = (mask & -mask).bit_length() - 1
                expected.append((labels, range(least, least + 1)))
        assert [(chunk.labels, chunk.relations) for chunk in swept] == expected


def _moved(labels, sigma, rename):
    """World i's label, renamed, at world sigma[i]."""
    image = [""] * len(labels)
    for i, label in enumerate(labels):
        image[sigma[i]] = rename[label]
    return tuple(image)


def _images(labels, atom_names):
    """The orbit of a labelling: every world renaming and every permutation
    of A, B, C whose atoms map the named ultrafilters to each other."""
    atom = dict(zip("ABC", ("e1", "e2", "e3")))
    orbit = set()
    for letters in permutations("ABC"):
        rename = dict(zip("ABC", letters))
        if {atom[rename[x]] for x in "ABC" if atom[x] in atom_names} != set(atom_names):
            continue
        orbit.update(_moved(labels, sigma, rename) for sigma in permutations(range(len(labels))))
    return orbit


@pytest.mark.parametrize("names, counts", [
    (("e1", "e2", "e3"), [1, 2, 3, 4, 5]),
    (("e1",), [2, 4, 6, 9, 12]),
    (("e2",), [2, 4, 6, 9, 12]),
    (("e3",), [2, 4, 6, 9, 12]),
    (("e1", "e3"), [2, 4, 6, 9, 12]),
])
def test_labelling_orbits_are_least_labellings_with_their_orbit_sizes(names, counts):
    for n, count in zip(range(1, 6), counts):
        orbits = _labelling_orbits(n, names)
        assert len(orbits) == count
        assert sum(size for _, size in orbits) == 3 ** n
        for labels, size in orbits:
            orbit = _images(labels, names)
            assert min(orbit) == labels and len(orbit) == size


@pytest.mark.parametrize("name", list(PROPERTIES))
def test_properties_keep_the_world_and_atom_symmetry(name):
    """For every labelling L, world permutation s and permutation of A, B, C:
    the relation mask of the permuted labelling over all relations is the
    mask of L with each relation renamed by s."""
    prop = PROPERTIES[name]
    for n in (1, 2, 3):
        worlds = tuple(f"w{i + 1}" for i in range(n))
        relations = range(1 << (n * n))
        masks = {labels: prop.relation_mask(worlds, labels, relations)
                 for labels in product("ABC", repeat=n)}
        for sigma in permutations(range(n)):
            moved = [sum(1 << (sigma[i] * n + sigma[j])
                         for i in range(n) for j in range(n) if r >> (i * n + j) & 1)
                     for r in relations]
            for labels, mask in masks.items():
                renamed = sum(1 << moved[r] for r in relations if mask >> r & 1)
                for letters in permutations("ABC"):
                    assert masks[_moved(labels, sigma, dict(zip("ABC", letters)))] == renamed
