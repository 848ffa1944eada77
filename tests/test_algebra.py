"""Exhaustive checks of the eight-valued algebra; every domain here is tiny
enough to enumerate completely."""

from itertools import product

import pytest

from mlml.algebra import (
    BOT,
    E1,
    E12,
    E13,
    E2,
    E23,
    E3,
    ELEMENTS,
    LATTICE_LABELS,
    TOP,
    ULTRAFILTERS,
    Ultrafilter,
    ball,
    carrier,
    complement,
    down_interp,
    element_from_name,
    element_name,
    is_designated,
    join,
    leq,
    meet,
    middle_pair,
    z_of,
)


def test_element_names_round_trip():
    names = [element_name(x) for x in ELEMENTS]
    assert sorted(names) == sorted(["0", "1", "e1", "e2", "e3", "e12", "e13", "e23"])
    for x in ELEMENTS:
        assert element_from_name(element_name(x)) == x
    with pytest.raises(ValueError):
        element_from_name("e4")
    with pytest.raises(ValueError):
        element_name(9)


def test_spec_operation_examples():
    assert meet(E13, E23) == E3
    assert complement(E2) == E13
    for x in ELEMENTS:
        assert join(BOT, x) == x


def test_boolean_laws_exhaustive():
    for x, y in product(ELEMENTS, repeat=2):
        assert complement(meet(x, y)) == join(complement(x), complement(y))
        assert complement(join(x, y)) == meet(complement(x), complement(y))
        assert join(x, meet(x, y)) == x
        assert meet(x, join(x, y)) == x
    for x in ELEMENTS:
        assert complement(complement(x)) == x
        assert join(x, complement(x)) == TOP
        assert meet(x, complement(x)) == BOT
    for x, y, z in product(ELEMENTS, repeat=3):
        assert meet(x, join(y, z)) == join(meet(x, y), meet(x, z))
        assert join(x, meet(y, z)) == meet(join(x, y), join(x, z))


def test_ball_facts():
    assert ball(TOP) == TOP
    assert ball(BOT) == TOP
    assert ball(E13) == BOT
    for x in ELEMENTS:
        assert ball(x) in (BOT, TOP)
        assert ball(ball(x)) == TOP
        assert ball(complement(x)) == ball(x)


def test_carriers():
    assert set(carrier("A")) == {BOT, E1, E23, TOP}
    assert set(carrier("B")) == {BOT, E2, E13, TOP}
    assert set(carrier("C")) == {BOT, E3, E12, TOP}
    for label in LATTICE_LABELS:
        assert list(carrier(label)) == sorted(carrier(label))
    assert set(carrier("B")) & set(carrier("C")) == {BOT, TOP}
    assert set(carrier("A")) | set(carrier("B")) | set(carrier("C")) == set(ELEMENTS)
    with pytest.raises(ValueError):
        carrier("D")


def test_carrier_closure():
    for label in LATTICE_LABELS:
        elems = set(carrier(label))
        for x in elems:
            assert complement(x) in elems
            assert ball(x) in elems
            for y in elems:
                assert meet(x, y) in elems
                assert join(x, y) in elems


def test_down_interp_examples():
    assert down_interp(E13, "A") == E1
    assert down_interp(E2, "A") == BOT
    for label in LATTICE_LABELS:
        for x in carrier(label):
            assert down_interp(x, label) == x


def test_down_interp_structure():
    # contraction, idempotence, monotonicity and meet preservation, all 64
    # pairs per lattice
    for label in LATTICE_LABELS:
        for x in ELEMENTS:
            dx = down_interp(x, label)
            assert leq(dx, x)
            assert down_interp(dx, label) == dx
        for x, y in product(ELEMENTS, repeat=2):
            if leq(x, y):
                assert leq(down_interp(x, label), down_interp(y, label))
            assert down_interp(meet(x, y), label) == meet(
                down_interp(x, label), down_interp(y, label)
            )


def test_foreign_middle_pairs_split():
    # of each complementary middle pair, the atom side vanishes into a
    # foreign lattice while the coatom side lands on the foreign lattice's
    # own atom-side middle
    for source in LATTICE_LABELS:
        atom_side, coatom_side = middle_pair(source)
        for target in LATTICE_LABELS:
            if target == source:
                continue
            target_atom = middle_pair(target)[0]
            assert down_interp(atom_side, target) == BOT
            assert down_interp(coatom_side, target) == target_atom


def test_ultrafilters():
    assert len(ULTRAFILTERS) == 3
    for u in ULTRAFILTERS:
        elems = [x for x in ELEMENTS if is_designated(x, u)]
        assert len(elems) == 4
        for x in ELEMENTS:
            assert is_designated(x, u) != is_designated(complement(x), u)
        assert is_designated(TOP, u)
        assert not is_designated(BOT, u)
    with pytest.raises(ValueError):
        Ultrafilter(E12)
    assert Ultrafilter.from_name("e2").generator == E2


def test_designation_examples():
    up_e1 = ULTRAFILTERS[0]
    assert is_designated(E1, up_e1)
    assert not is_designated(E23, up_e1)
    for u in ULTRAFILTERS:
        assert is_designated(TOP, u)


def test_z_of():
    up_e1 = Ultrafilter.from_name("e1")
    assert z_of("A", up_e1) == E1
    assert z_of("B", up_e1) == E13
    assert z_of("C", Ultrafilter.from_name("e3")) == E3
    for label in LATTICE_LABELS:
        for u in ULTRAFILTERS:
            z = z_of(label, u)
            designated = {x for x in carrier(label) if is_designated(x, u)}
            assert designated == {TOP, z}
