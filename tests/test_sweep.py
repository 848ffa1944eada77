"""Differential tests of the packed engine against the semantics of record.

Random formulas over p and q, built from all eleven constructors, are
evaluated by `FrameSweep` on random labelled frames of up to three worlds and
compared with `kripke.eval_formula` and `kripke.satisfies` at every world,
for sampled valuations decoded by the sweep itself, under every ultrafilter.
Sweeps over a chunk of relations, an aligned range or an ascending tuple, are
compared, relation by relation, with the one-relation chunk of each frame
and with `kripke.eval_formula`.  World
names are drawn in shuffled order, so a frame's worlds need not be sorted.
`FrameSweep.apply` is compared, operator by operator, with the scalar
operators of `algebra` on random carrier values, and the per-block readers
on blocks with only their last valuation set.
"""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from mlml._sweep import (
    AND, BALL, BOX, BOX_DIFF, BOX_SAME, NOT, OR, FrameSweep, RelationChunk, compile_formula,
    relation_chunk_width,
)
from mlml.algebra import (
    DEFAULT_ULTRAFILTER, TOP, ULTRAFILTERS, ball, carrier, complement, down_interp, join, meet,
)
from mlml.kripke import Frame, Model, eval_formula, satisfies
from mlml.syntax import (
    And, Ball, Bot, Box, BoxDiff, BoxSame, Diamond, Not, Or, Top, Var, fold_constants, parse,
)
from packed_layout import (
    element_at, group, group_count, mask_at, mask_of, pack, relation_block,
)

VARS = ("p", "q")
_UNARY = st.sampled_from([Not, Ball, Box, Diamond, BoxSame, BoxDiff])
_BINARY = st.sampled_from([And, Or])


def _formulas(depth: int, names=VARS, unary=_UNARY):
    leaves = st.sampled_from([Var(name) for name in names] + [Top(), Bot()])
    if depth == 0:
        return leaves
    sub = _formulas(depth - 1, names, unary)
    return st.one_of(
        leaves,
        st.builds(lambda op, f: op(f), unary, sub),
        st.builds(lambda op, f, g: op(f, g), _BINARY, sub, sub),
    )


FORMULAS = _formulas(4)


@st.composite
def frames(draw) -> Frame:
    n = draw(st.integers(1, 3))
    worlds = tuple(draw(st.permutations([f"w{i + 1}" for i in range(n)])))
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


def _assert_agrees(sweep, frame, formula, evaluated, indices):
    """evaluated is the formula itself or its compiled program."""
    packed = sweep.values(evaluated)
    masks = {u: sweep.designated_mask(evaluated, u) for u in ULTRAFILTERS}
    for index in indices:
        index %= sweep.valuation_count
        valuation = sweep.decode_valuation(index)
        for u in ULTRAFILTERS:
            model = Model(frame, valuation, u)
            for wi, w in enumerate(frame.worlds):
                g = group(sweep, index)
                assert element_at(sweep, packed[wi], g) == eval_formula(model, w, formula)
                assert mask_at(masks[u][wi], g) == satisfies(model, w, formula)


@settings(max_examples=150, deadline=None)
@given(frames(), FORMULAS, INDICES)
def test_sweep_matches_eval_formula(frame, formula, indices):
    sweep = FrameSweep(frame, VARS)
    _assert_agrees(sweep, frame, formula, formula, indices)


@settings(max_examples=100, deadline=None)
@given(frames(), FORMULAS, INDICES)
def test_precompiled_program_matches_eval_formula(frame, formula, indices):
    program = compile_formula(formula)
    sweep = FrameSweep(frame, VARS)
    packed = sweep.values(program)
    assert sweep.values(program) is packed
    _assert_agrees(sweep, frame, formula, program, indices)
    assert FrameSweep(frame, VARS).values(formula) == packed


@settings(max_examples=60, deadline=None)
@given(frames(), st.lists(FORMULAS, min_size=2, max_size=5), INDICES)
def test_one_sweep_across_formulas(frame, formulas, indices):
    sweep = FrameSweep(frame, VARS)
    # Interleave and repeat, so later formulas reuse earlier subformulas.
    for formula in formulas + formulas[::-1]:
        _assert_agrees(sweep, frame, formula, formula, indices)


# ---------------------------------------------------------------------------
# Relation-packed sweeps against one sweep per frame
# ---------------------------------------------------------------------------


@st.composite
def relation_chunks(draw, names) -> RelationChunk:
    n = draw(st.integers(1, 3))
    worlds = tuple(draw(st.permutations([f"w{i + 1}" for i in range(n)])))
    labels = tuple(draw(st.lists(st.sampled_from("ABC"), min_size=n, max_size=n)))
    widest = relation_chunk_width(n, len(names)).bit_length() - 1
    width = 1 << draw(st.integers(0, widest))
    start = draw(st.integers(0, (1 << (n * n)) // width - 1)) * width
    return RelationChunk(worlds, labels, range(start, start + width))


@st.composite
def relation_tuples(draw, names) -> RelationChunk:
    """A strictly ascending tuple of relations of any length up to the chunk
    width, as the search cuts its canonical relations."""
    n = draw(st.integers(1, 3))
    worlds = tuple(draw(st.permutations([f"w{i + 1}" for i in range(n)])))
    labels = tuple(draw(st.lists(st.sampled_from("ABC"), min_size=n, max_size=n)))
    width = draw(st.integers(1, relation_chunk_width(n, len(names))))
    relations = draw(st.permutations(range(1 << (n * n))))[:width]
    return RelationChunk(worlds, labels, tuple(sorted(relations)))


# Zero, one or two variables: blocks of 1 and 4 valuations take the folding
# reduction, wider ones the byte-slicing one.  Chunks are aligned ranges or
# ascending tuples of any length.
CHUNK_CASES = st.sampled_from([(), ("p",), VARS]).flatmap(
    lambda names: st.tuples(st.just(names),
                            st.one_of(relation_chunks(names), relation_tuples(names)),
                            _formulas(4, names))
)


@settings(max_examples=150, deadline=None)
@given(CHUNK_CASES, INDICES)
def test_packed_chunk_matches_one_sweep_per_frame(case, indices):
    names, chunk, formula = case
    program = compile_formula(formula)
    sweep = FrameSweep(chunk, names)
    frames = [_frame(chunk.worlds, chunk.labels, bits) for bits in chunk.relations]
    singles = [FrameSweep(frame, names) for frame in frames]
    packed = sweep.values(program)
    for r, (frame, single) in enumerate(zip(frames, singles)):
        values = [relation_block(sweep, v, r) for v in packed]
        assert values == single.values(program)
        for index in indices:
            index %= sweep.valuation_count
            model = Model(frame, sweep.decode_valuation(index), DEFAULT_ULTRAFILTER)
            for wi, w in enumerate(frame.worlds):
                assert (element_at(single, values[wi], group(single, index))
                        == eval_formula(model, w, formula))
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
            mask = mask_of([group(sweep, i, r)])
            assert sweep.relations_meeting(mask) == 1 << r
            assert sweep.lowest_index(mask, r) == i
            assert sweep.lowest_index(mask, r ^ 1) is None
    assert sweep.relations_meeting(0) == 0


def _every_frame_values(f, worlds, names):
    """f's values on every labelled frame on the worlds, one sweep per
    labelling over every relation."""
    relations = range(1 << len(worlds) ** 2)
    return [FrameSweep(RelationChunk(worlds, labels, relations), names).values(f)
            for labels in product("ABC", repeat=len(worlds))]


@settings(max_examples=80, deadline=None)
@given(FORMULAS)
def test_folding_constants_keeps_every_value(formula):
    folded = fold_constants(formula)
    for worlds in (("w1",), ("w1", "w2")):
        assert _every_frame_values(folded, worlds, VARS) == _every_frame_values(formula, worlds, VARS)


@pytest.mark.parametrize("text, folded", [
    ("~@[]@p", Bot()),
    ("<>(@p & ~@@p) ^ <>(~@p & ~@@p)", Bot()),
    ("@(@p | [=]~@q) & [-]T", Top()),
    ("<>F | [](p & T)", Box(Var("p"))),
    ("@(p & q) | <>~@p", None),  # nothing to fold: the formula itself
])
def test_folding_constants_on_three_worlds(text, folded):
    formula = parse(text)
    result = fold_constants(formula)
    assert result is formula if folded is None else result == folded
    worlds = ("w1", "w2", "w3")
    assert _every_frame_values(result, worlds, VARS) == _every_frame_values(formula, worlds, VARS)


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


def test_relation_tuple_must_be_nonempty_and_ascending():
    worlds, labels = ("w1", "w2"), ("A", "B")
    for relations in ((3, 1), (), (1, 5, 5, 9), range(1, 3), range(0, 3)):
        with pytest.raises(ValueError):
            RelationChunk(worlds, labels, relations)
    assert RelationChunk(worlds, labels, (1, 2, 3)).relations == (1, 2, 3)


# ---------------------------------------------------------------------------
# Operators, one by one, against the scalar operators of algebra
# ---------------------------------------------------------------------------


def _scalar(op, label, successors, x, y):
    """The value at a world of the given label of one instruction, from the
    operands x and y at that world and the (label, operand) pairs of its
    successors, by the definitional clauses."""
    if op == NOT:
        return down_interp(complement(x), label)
    if op == AND:
        return down_interp(meet(x, y), label)
    if op == OR:
        return down_interp(join(x, y), label)
    if op == BALL:
        return down_interp(ball(x), label)
    value = TOP
    for successor_label, v in successors:
        if op == BOX or (op == BOX_SAME) == (successor_label == label):
            value = meet(value, v if op == BOX_SAME else down_interp(v, label))
    return value


@pytest.mark.parametrize("labels", ["".join(pair) for pair in product("ABC", repeat=2)])
def test_apply_matches_the_scalar_operators(labels):
    """Every operator on random carrier values at two worlds of every label
    pair, under every relation on them."""
    rng = random.Random(labels)
    chunk = RelationChunk(("w1", "w2"), tuple(labels), range(16))
    sweep = FrameSweep(chunk, ("p",))
    count = group_count(sweep)
    a, b = ([[rng.choice(carrier(label)) for _ in range(count)] for label in labels]
            for _ in range(2))
    packed_a, packed_b = [pack(x) for x in a], [pack(y) for y in b]
    for op in (NOT, BALL, AND, OR, BOX, BOX_SAME, BOX_DIFF):
        out = sweep.apply(op, packed_a, packed_b)
        for r, bits in enumerate(chunk.relations):
            for index in range(sweep.valuation_count):
                g = group(sweep, index, r)
                for wi, label in enumerate(labels):
                    successors = [(labels[ui], a[ui][g]) for ui in range(2)
                                  if bits >> (wi * 2 + ui) & 1]
                    expected = _scalar(op, label, successors, a[wi][g], b[wi][g])
                    assert element_at(sweep, out[wi], g) == expected, (op, r, index, wi)


# (worlds, variables, binary, relations): blocks of one valuation (no
# variables), binary blocks of 2 and 4 valuations, not whole bytes, and
# blocks of 8, 16 and 64 valuations, which lowest_indices reads off one byte
# string from 16 relations on.
READER_SHAPES = [
    (1, (), False, 2), (2, (), False, 16), (1, ("p",), True, 2), (2, ("p",), True, 16),
    (3, ("p",), True, 32), (2, ("p",), False, 16), (3, ("p",), False, 16),
]


@pytest.mark.parametrize("n, names, binary, count", READER_SHAPES)
def test_reductions_read_a_block_with_only_its_last_valuation(n, names, binary, count):
    worlds = tuple(f"w{i + 1}" for i in range(n))
    chunk = RelationChunk(worlds, ("B",) * n, range(count))
    sweep = FrameSweep(chunk, names, binary=binary)
    last = sweep.valuation_count - 1
    relations = range(count)
    for r in relations:
        mask = mask_of([group(sweep, last, r)])
        assert sweep.relations_meeting(mask) == 1 << r
        assert sweep.lowest_indices(mask, relations) == [last if s == r else None
                                                         for s in relations]
    every = mask_of(group(sweep, last, r) for r in relations)
    assert sweep.relations_meeting(every) == (1 << count) - 1
    assert sweep.lowest_indices(every, relations) == [last] * count
    assert sweep.relations_meeting(sweep.ones_mask) == (1 << count) - 1
    assert sweep.lowest_indices(sweep.ones_mask, relations) == [0] * count
