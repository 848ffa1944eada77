"""Differential test of the chunked countermodel search against the
frame-by-frame search it replaced, which is kept here as the reference.

Random premises and goals over p and q are searched on every frame with up
to two worlds, and up to three for one variable, under a random ordered
subset of the ultrafilters, with no frame filter, a `PROPERTIES` entry or a
plain predicate, a random valuation cap, and a random frame budget as well as
the budgets that end just at and just before the countermodel's frame.  Both
searches must return the same model or raise the same exception with the
same message.
"""

from hypothesis import example, given, settings, strategies as st

from mlml._sweep import FrameSweep, ResourceBudgetExceeded
from mlml.algebra import ULTRAFILTERS
from mlml.frames import PROPERTIES, FrameProperty, enumerate_frames
from mlml.kripke import Model, countermodel_search
from mlml.syntax import parse, variables

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


def _even_edges(frame) -> bool:
    return len(frame.relation) % 2 == 0


FILTERS = st.sampled_from([None, _even_edges] + list(PROPERTIES))


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
def test_chunked_search_matches_the_per_frame_search(case):
    premises, goal, max_worlds, ultrafilters, frame_filter, max_valuations, max_frames = case
    prop = PROPERTIES[frame_filter] if isinstance(frame_filter, str) else frame_filter
    reference = prop.holds if isinstance(prop, FrameProperty) else prop
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
