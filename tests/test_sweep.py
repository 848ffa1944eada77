"""Differential tests of the packed engine against the semantics of record.

Random formulas over p and q, built from all eleven constructors, are
evaluated by `FrameSweep` on random labelled frames of up to three worlds and
compared with `kripke.eval_formula` and `kripke.satisfies` at every world,
for sampled valuations decoded by the sweep itself, under every ultrafilter.
"""

from hypothesis import given, settings, strategies as st

from mlml._sweep import FrameSweep, compile_formula
from mlml.algebra import ULTRAFILTERS
from mlml.kripke import Frame, Model, eval_formula, satisfies
from mlml.syntax import (
    And, Ball, Bot, Box, BoxDiff, BoxSame, Diamond, Not, Or, Top, Var,
)

VARS = ("p", "q")
_LEAVES = st.sampled_from([Var("p"), Var("q"), Top(), Bot()])
_UNARY = st.sampled_from([Not, Ball, Box, Diamond, BoxSame, BoxDiff])
_BINARY = st.sampled_from([And, Or])


def _formulas(depth: int):
    if depth == 0:
        return _LEAVES
    sub = _formulas(depth - 1)
    return st.one_of(
        _LEAVES,
        st.builds(lambda op, f: op(f), _UNARY, sub),
        st.builds(lambda op, f, g: op(f, g), _BINARY, sub, sub),
    )


FORMULAS = _formulas(4)


@st.composite
def frames(draw) -> Frame:
    n = draw(st.integers(1, 3))
    worlds = tuple(f"w{i + 1}" for i in range(n))
    bits = draw(st.integers(0, (1 << (n * n)) - 1))
    labels = draw(st.lists(st.sampled_from("ABC"), min_size=n, max_size=n))
    relation = frozenset(
        (worlds[i], worlds[j]) for i in range(n) for j in range(n) if bits >> (i * n + j) & 1
    )
    return Frame(worlds, relation, dict(zip(worlds, labels)))


INDICES = st.lists(st.integers(0, 4 ** 6 - 1), min_size=1, max_size=6)


def _assert_agrees(sweep, formula, evaluated, indices):
    """evaluated is the formula itself or its compiled program."""
    frame = sweep.frame
    packed = sweep.values(evaluated)
    masks = {u: sweep.designated_mask(evaluated, u) for u in ULTRAFILTERS}
    for index in indices:
        index %= sweep.valuation_count
        valuation = sweep.decode_valuation(index)
        for u in ULTRAFILTERS:
            model = Model(frame, valuation, u)
            for wi, w in enumerate(frame.worlds):
                assert (packed[wi] >> (3 * index)) & 7 == eval_formula(model, w, formula)
                assert bool((masks[u][wi] >> (3 * index)) & 1) == satisfies(model, w, formula)


@settings(max_examples=150, deadline=None)
@given(frames(), FORMULAS, INDICES)
def test_sweep_matches_eval_formula(frame, formula, indices):
    sweep = FrameSweep(frame, VARS)
    _assert_agrees(sweep, formula, formula, indices)


@settings(max_examples=100, deadline=None)
@given(frames(), FORMULAS, INDICES)
def test_precompiled_program_matches_eval_formula(frame, formula, indices):
    program = compile_formula(formula)
    sweep = FrameSweep(frame, VARS)
    packed = sweep.values(program)
    assert sweep.values(program) is packed
    _assert_agrees(sweep, formula, program, indices)
    assert FrameSweep(frame, VARS).values(formula) == packed


@settings(max_examples=60, deadline=None)
@given(frames(), st.lists(FORMULAS, min_size=2, max_size=5), INDICES)
def test_one_sweep_across_formulas(frame, formulas, indices):
    sweep = FrameSweep(frame, VARS)
    # Interleave and repeat, so later formulas reuse earlier subformulas.
    for formula in formulas + formulas[::-1]:
        _assert_agrees(sweep, formula, formula, indices)
