"""Model evaluation, frame validity, countermodel search, and agreement of
the packed sweep engine with the definitional evaluator."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from mlml import algebra
from mlml._sweep import FrameSweep, ResourceBudgetExceeded
from mlml.algebra import BOT, E1, E13, E23, TOP, ULTRAFILTERS, Ultrafilter, carrier
from mlml.frames import PROPERTIES, enumerate_frames
from mlml.kripke import (
    Frame,
    FragmentError,
    Model,
    UnknownVariableError,
    UnknownWorldError,
    classical_reference_eval,
    countermodel_search,
    eval_formula,
    find_frame_countermodel,
    first_failing_world,
    frame_from_dict,
    frame_to_dict,
    frame_valid,
    model_from_dict,
    model_to_dict,
    model_valid,
    satisfies,
)
from mlml.syntax import Ball, Box, Diamond, Var, generate_corpus, parse, variables

from packed_layout import element_at, group
from test_sweep import _formulas, frames

P = Var("p")


def non_normality_model() -> Model:
    frame = Frame(("w", "u"), frozenset({("w", "u")}), {"w": "B", "u": "A"})
    return Model(frame, {("w", "p"): TOP, ("u", "p"): E1})


def euc3_model() -> Model:
    worlds = ("w", "u", "v")
    frame = Frame(
        worlds,
        frozenset((a, b) for a in worlds for b in worlds),
        {"w": "B", "u": "B", "v": "A"},
    )
    return Model(frame, {("w", "p"): BOT, ("u", "p"): BOT, ("v", "p"): E1})


def test_frame_validation():
    with pytest.raises(ValueError):
        Frame((), frozenset(), {})
    with pytest.raises(ValueError):
        Frame(("w", "w"), frozenset(), {"w": "A"})
    with pytest.raises(ValueError):
        Frame(("w",), frozenset({("w", "x")}), {"w": "A"})
    with pytest.raises(ValueError):
        Frame(("w",), frozenset(), {"w": "E"})


def test_model_validation():
    frame = Frame(("w",), frozenset(), {"w": "A"})
    # e2 is not in carrier A
    with pytest.raises(ValueError):
        Model(frame, {("w", "p"): algebra.E2})
    model = Model(frame, {("w", "p"): E1})
    with pytest.raises(UnknownWorldError):
        model.value("x", "p")
    with pytest.raises(UnknownVariableError):
        model.value("w", "q")


def test_empty_successor_boxes_are_top():
    frame = Frame(("w",), frozenset(), {"w": "C"})
    model = Model(frame, {("w", "p"): BOT})
    for text in ["[]p", "[=]p", "[-]p"]:
        assert eval_formula(model, "w", parse(text)) == TOP
    assert eval_formula(model, "w", parse("<>p")) == BOT


def test_non_normality_witness():
    model = non_normality_model()
    assert eval_formula(model, "w", Box(P)) == BOT
    assert model_valid(model, P)
    assert not model_valid(model, Box(P))
    assert first_failing_world(model, Box(P)) == "w"


def test_euc3_countermodel_values():
    model = euc3_model()
    assert eval_formula(model, "w", Diamond(P)) == E13
    assert satisfies(model, "w", Diamond(P))
    assert eval_formula(model, "w", Box(Diamond(P))) == BOT
    assert not satisfies(model, "w", parse("<>p -> []<>p"))


def test_satisfaction_examples():
    frame = Frame(("w",), frozenset({("w", "w")}), {"w": "A"})
    up_e1 = ULTRAFILTERS[0]
    model_top = Model(frame, {("w", "p"): TOP}, up_e1)
    model_z = Model(frame, {("w", "p"): E1}, up_e1)
    model_nz = Model(frame, {("w", "p"): E23}, up_e1)
    assert satisfies(model_top, "w", P)
    assert satisfies(model_z, "w", P)
    assert not satisfies(model_nz, "w", P)
    assert model_valid(model_top, parse("T"))


def test_eval_stays_in_carrier_and_clause_identities():
    formulas = [parse(t) for t in (
        "p", "~p", "@p", "[]p", "<>p", "[=]p", "[-]p",
        "[](p & q)", "[]p & []q", "<>~(p & q)", "@[]p",
    )]
    count = 0
    for frame in enumerate_frames(2):
        count += 1
        if count % 7:  # sample relation/label space
            continue
        sweep_vars = ("p", "q")
        for valuation_index in range(16):
            sweep = FrameSweep(frame, sweep_vars)
            valuation = sweep.decode_valuation(valuation_index * 17 % sweep.valuation_count)
            model = Model(frame, valuation)
            for w in frame.worlds:
                label = frame.lattice_of[w]
                for f in formulas:
                    value = eval_formula(model, w, f)
                    assert value in carrier(label)
                # ball output is crisp
                assert eval_formula(model, w, parse("@p")) in (BOT, TOP)
                # diamond is complement-of-box-not
                assert eval_formula(model, w, parse("<>p")) == eval_formula(
                    model, w, parse("~[]~p")
                )
                # box splits meets
                assert eval_formula(model, w, parse("[](p & q)")) == algebra.meet(
                    eval_formula(model, w, parse("[]p")),
                    eval_formula(model, w, parse("[]q")),
                )


def test_eval_is_ultrafilter_independent():
    model = euc3_model()
    shifted = Model(model.frame, model.valuation, Ultrafilter.from_name("e3"))
    for w in model.frame.worlds:
        for text in ("p", "[]p", "<>p", "@p", "[-]p"):
            f = parse(text)
            assert eval_formula(model, w, f) == eval_formula(shifted, w, f)


def test_sweep_agrees_with_definitional_evaluator_exhaustively():
    """Every 1- and 2-world frame, every valuation, a mixed formula set."""
    formulas = [parse(t) for t in (
        "[]p -> p", "<>p -> []<>p", "@[]p", "[-][=](@p & p)",
        "[](~p | p)", "<>T -> ([]~@p -> ~[]p)",
    )]
    for n in (1, 2):
        for frame in enumerate_frames(n):
            sweep = FrameSweep(frame, ("p",))
            packed = {f: sweep.values(f) for f in formulas}
            for index in range(sweep.valuation_count):
                model = Model(frame, sweep.decode_valuation(index))
                for f in formulas:
                    for wi, w in enumerate(frame.worlds):
                        expected = eval_formula(model, w, f)
                        got = element_at(sweep, packed[f][wi], group(sweep, index))
                        assert got == expected


def test_sweep_agrees_on_sampled_three_world_frames():
    formulas = [parse(t) for t in ("[]p -> [][]p", "<>@p -> []<>@p")]
    for i, frame in enumerate(enumerate_frames(3)):
        if i % 701:
            continue
        sweep = FrameSweep(frame, ("p",))
        for f in formulas:
            packed = sweep.values(f)
            for index in range(0, sweep.valuation_count, 5):
                model = Model(frame, sweep.decode_valuation(index))
                for wi, w in enumerate(frame.worlds):
                    assert (element_at(sweep, packed[wi], group(sweep, index))
                            == eval_formula(model, w, f))


def test_frame_valid_examples():
    looped = Frame(("w",), frozenset({("w", "w")}), {"w": "A"})
    assert frame_valid(looped, parse("[]p -> p"))
    isolated = Frame(("w",), frozenset(), {"w": "A"})
    counter = find_frame_countermodel(isolated, parse("[]p -> p"))
    assert counter is not None
    assert counter.valuation[("w", "p")] == BOT


def _brute_frame_countermodel(frame, premises, goal, u):
    """The first valuation, slots (world, variable) in frame order and sorted
    variable order, each ranging over its world's carrier in ascending order,
    whose model satisfies every premise at every world and fails the goal
    at some world, by eval_formula."""
    names = sorted(set(variables(goal)).union(*map(variables, premises)))
    slots = [(w, name) for w in frame.worlds for name in names]
    for values in product(*(sorted(carrier(frame.lattice_of[w])) for w, _ in slots)):
        model = Model(frame, dict(zip(slots, values)), u)

        def everywhere(f):
            return all(algebra.is_designated(eval_formula(model, w, f), u) for w in frame.worlds)

        if all(map(everywhere, premises)) and not everywhere(goal):
            return model
    return None


@settings(max_examples=150, deadline=None)
@given(frames().filter(lambda frame: len(frame.worlds) <= 2), st.lists(_formulas(3), max_size=2),
       _formulas(3), st.sampled_from(ULTRAFILTERS))
def test_find_frame_countermodel_with_premises_matches_brute_force(frame, premises, goal, u):
    expected = _brute_frame_countermodel(frame, premises, goal, u)
    assert find_frame_countermodel(frame, goal, u, premises=premises) == expected
    if not premises:
        assert frame_valid(frame, goal, u) == (expected is None)


def test_k_axiom_valid_on_all_two_world_frames():
    k_axiom = parse("[](p -> q) -> ([]p -> []q)")
    for n in (1, 2):
        for frame in enumerate_frames(n):
            for u in ULTRAFILTERS:
                assert frame_valid(frame, k_axiom, u)


def test_countermodel_search_non_normality():
    counter = countermodel_search([P], Box(P), 2)
    assert counter is not None
    assert len(counter.frame.worlds) == 2
    assert model_valid(counter, P)
    assert not model_valid(counter, Box(P))


def test_countermodel_search_k_axiom_clean():
    assert countermodel_search([], parse("[](p -> q) -> ([]p -> []q)"), 2) is None


def test_countermodel_search_euclidean_restricted():
    counter = countermodel_search(
        [], parse("<>p -> []<>p"), 3, frame_filter=PROPERTIES["euclidean"]
    )
    assert counter is not None
    assert PROPERTIES["euclidean"].holds(counter.frame)
    assert not model_valid(counter, parse("<>p -> []<>p"))


def test_fc_and_ea_generic_instances_have_countermodels():
    """The generic certainty-of-necessity and existence rule instances are
    globally unsound in this semantics (see README, "Failing
    characterizations"); pin the countermodels."""
    fc = countermodel_search([parse("<>p"), parse("<>~p")], parse("@[]p"), 2)
    assert fc is not None
    ea = countermodel_search(
        [parse("~@[]p")], parse("<>(p & ~@p) ^ <>(~p & ~@p)"), 2
    )
    assert ea is not None
    # the guarded instances used by the bundled corpus are sound
    assert countermodel_search([parse("<>@p"), parse("<>~@p")], parse("@[]@p"), 2) is None
    assert countermodel_search(
        [parse("~@[]@p")], parse("<>(@p & ~@@p) ^ <>(~@p & ~@@p)"), 2
    ) is None


def test_resource_caps():
    frame = Frame(("w", "u"), frozenset(), {"w": "A", "u": "A"})
    with pytest.raises(ResourceBudgetExceeded):
        find_frame_countermodel(frame, parse("p & q"), max_valuations=10)
    with pytest.raises(ResourceBudgetExceeded):
        countermodel_search([], parse("p | ~p"), 2, max_frames=3)


def test_classical_reference_eval():
    frame = Frame(("w", "u"), frozenset({("w", "u")}), {"w": "A", "u": "B"})
    valuation = {("w", "p"): False, ("u", "p"): True}
    assert classical_reference_eval(frame, valuation, "w", Box(P))
    assert classical_reference_eval(frame, valuation, "w", Diamond(P))
    # dead end: box vacuously true, diamond false
    assert classical_reference_eval(frame, valuation, "u", Box(P))
    assert not classical_reference_eval(frame, valuation, "u", Diamond(P))
    with pytest.raises(FragmentError):
        classical_reference_eval(frame, valuation, "w", Ball(P))
    with pytest.raises(FragmentError):
        classical_reference_eval(frame, valuation, "w", parse("[=]p"))


def test_classical_agreement_on_two_world_frames():
    from mlml.syntax import format_formula

    corpus = [f for f in generate_corpus(["p"], 2) if "@" not in format_formula(f)]
    for frame in enumerate_frames(2):
        for bits in range(4):
            booleans = {
                ("w1", "p"): bool(bits & 2),
                ("w2", "p"): bool(bits & 1),
            }
            elements = {k: TOP if v else BOT for k, v in booleans.items()}
            model = Model(frame, elements)
            for f in corpus:
                for w in frame.worlds:
                    assert satisfies(model, w, f) == classical_reference_eval(
                        frame, booleans, w, f
                    )


def _classical_formulas(depth: int):
    from mlml.syntax import And, Bot, Not, Or, Top

    leaves = st.sampled_from([Var("p"), Var("q"), Top(), Bot()])
    if depth == 0:
        return leaves
    sub = _classical_formulas(depth - 1)
    return st.one_of(
        leaves,
        st.builds(lambda op, f: op(f), st.sampled_from([Not, Box, Diamond]), sub),
        st.builds(lambda op, f, g: op(f, g), st.sampled_from([And, Or]), sub, sub),
    )


@st.composite
def _classical_models(draw):
    n = draw(st.integers(1, 3))
    worlds = tuple(f"w{i + 1}" for i in range(n))
    edges = draw(st.sets(st.sampled_from([(a, b) for a in worlds for b in worlds])))
    labels = draw(st.lists(st.sampled_from("ABC"), min_size=n, max_size=n))
    frame = Frame(worlds, frozenset(edges), dict(zip(worlds, labels)))
    valuation = {(w, v): draw(st.sampled_from([BOT, TOP])) for w in worlds for v in ("p", "q")}
    return Model(frame, valuation, draw(st.sampled_from(ULTRAFILTERS)))


@settings(max_examples=300, deadline=None)
@given(_classical_models(), _classical_formulas(4))
def test_classical_oracle_matches_satisfies_on_crisp_valuations(model, f):
    """On valuations in {0, 1} every formula of the classical fragment takes
    crisp values, so it holds exactly where it is classically true."""
    booleans = {key: value == TOP for key, value in model.valuation.items()}
    for w in model.frame.worlds:
        assert satisfies(model, w, f) == classical_reference_eval(model.frame, booleans, w, f)


def test_frame_and_model_documents_round_trip():
    model = non_normality_model()
    doc = model_to_dict(model)
    assert doc["ultrafilter"] == "e1"
    assert doc["valuation"]["u"]["p"] == "e1"
    restored = model_from_dict(doc)
    assert restored.frame.worlds == model.frame.worlds
    assert restored.valuation == model.valuation
    frame_doc = frame_to_dict(model.frame)
    assert frame_from_dict(frame_doc).relation == model.frame.relation
    with pytest.raises(ValueError):
        frame_from_dict({"worlds": ["w"]})
    bad = model_to_dict(model)
    bad["valuation"]["u"]["p"] = "e2"  # not in carrier A
    with pytest.raises(ValueError):
        model_from_dict(bad)
