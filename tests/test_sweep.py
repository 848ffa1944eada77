"""Differential tests of the packed engine against the semantics of record.

Random formulas over p and q, built from all eleven constructors, are
evaluated by `FrameSweep` on random labelled frames of up to three worlds and
compared with `kripke.eval_formula` and `kripke.satisfies` at every world,
for sampled valuations decoded by the sweep itself, under every ultrafilter.
Sweeps over a chunk of relations are compared, relation by relation, with
one sweep per frame.
"""

import pytest
from hypothesis import given, settings, strategies as st

from mlml._sweep import FrameSweep, RelationChunk, compile_formula, relation_chunk_width
from mlml.algebra import ULTRAFILTERS
from mlml.kripke import Frame, Model, eval_formula, satisfies
from mlml.syntax import (
    And, Ball, Bot, Box, BoxDiff, BoxSame, Diamond, Not, Or, Top, Var,
)

VARS = ("p", "q")
_UNARY = st.sampled_from([Not, Ball, Box, Diamond, BoxSame, BoxDiff])
_BINARY = st.sampled_from([And, Or])


def _formulas(depth: int, names=VARS):
    leaves = st.sampled_from([Var(name) for name in names] + [Top(), Bot()])
    if depth == 0:
        return leaves
    sub = _formulas(depth - 1, names)
    return st.one_of(
        leaves,
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
    return _frame(worlds, labels, bits)


def _frame(worlds, labels, bits) -> Frame:
    n = len(worlds)
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


# ---------------------------------------------------------------------------
# Relation-packed sweeps against one sweep per frame
# ---------------------------------------------------------------------------


@st.composite
def relation_chunks(draw, names) -> RelationChunk:
    n = draw(st.integers(1, 3))
    worlds = tuple(f"w{i + 1}" for i in range(n))
    labels = tuple(draw(st.lists(st.sampled_from("ABC"), min_size=n, max_size=n)))
    widest = relation_chunk_width(n, len(names)).bit_length() - 1
    width = 1 << draw(st.integers(0, widest))
    start = draw(st.integers(0, (1 << (n * n)) // width - 1)) * width
    return RelationChunk(worlds, labels, range(start, start + width))


# Zero, one or two variables: blocks of 1 and 4 valuations take the folding
# reduction, wider ones the byte-slicing one.
CHUNK_CASES = st.sampled_from([(), ("p",), VARS]).flatmap(
    lambda names: st.tuples(st.just(names), relation_chunks(names), _formulas(4, names))
)


@settings(max_examples=150, deadline=None)
@given(CHUNK_CASES)
def test_packed_chunk_matches_one_sweep_per_frame(case):
    names, chunk, formula = case
    program = compile_formula(formula)
    sweep = FrameSweep(chunk, names)
    block = 3 * sweep.valuation_count
    singles = [FrameSweep(_frame(chunk.worlds, chunk.labels, bits), names)
               for bits in chunk.relations]
    packed = sweep.values(program)
    for r, single in enumerate(singles):
        assert [v >> (block * r) & ((1 << block) - 1) for v in packed] == single.values(program)
    for u in ULTRAFILTERS:
        invalid = sweep.valid_mask(program, u) ^ sweep.ones_mask
        failing = sweep.relations_meeting(invalid)
        for r, single in enumerate(singles):
            expected = single.first_invalid_index(program, u)
            assert bool(failing >> r & 1) == (expected is not None)
            assert sweep.lowest_index(invalid, r) == expected


@pytest.mark.parametrize("worlds, names", [
    (("w1",), ()), (("w1",), ("p",)), (("w1",), VARS), (("w1", "w2"), ()), (("w1", "w2"), ("p",)),
])
def test_relation_reductions_read_every_valuation_of_every_relation(worlds, names):
    """Blocks of 1 and 4 valuations fold, wider ones are sliced as bytes."""
    chunk = RelationChunk(worlds, ("A",) * len(worlds), range(1 << len(worlds) ** 2))
    sweep = FrameSweep(chunk, names)
    count = sweep.valuation_count
    for r in range(len(chunk.relations)):
        for i in range(count):
            mask = 1 << 3 * (r * count + i)
            assert sweep.relations_meeting(mask) == 1 << r
            assert sweep.lowest_index(mask, r) == i
            assert sweep.lowest_index(mask, r ^ 1) is None
    assert sweep.relations_meeting(0) == 0


def test_chunk_width_keeps_operands_at_most_two_to_the_sixteen_groups():
    assert relation_chunk_width(3, 1) == 512  # every relation on three worlds
    assert relation_chunk_width(3, 2) == 16
    assert relation_chunk_width(4, 1) == 256
    assert relation_chunk_width(1, 1) == 2
    assert relation_chunk_width(2, 10) == 1  # beyond the cap: one frame per sweep


def test_relation_chunk_must_be_aligned():
    worlds, labels = ("w1", "w2"), ("A", "B")
    for relations in (range(2, 6), range(0, 3), range(0)):
        with pytest.raises(ValueError):
            RelationChunk(worlds, labels, relations)
