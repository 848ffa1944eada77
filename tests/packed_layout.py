"""The one reader of the packed engine's layout that the tests share.

A sweep's per-world value holds three bit planes of G bits each, G the
number of groups (one per valuation, or per (relation, valuation) pair of a
chunk, relation-major): bit k*G + g says whether group g's element contains
atom e(k+1).  A mask holds one plane, bit g for group g.  Tests that look
inside a value or a mask go through these functions, so they do not depend
on the layout themselves.
"""


def group_count(sweep) -> int:
    return sweep.valuation_count * len(sweep.relations)


def group(sweep, index: int, relation: int = 0) -> int:
    """The group of valuation `index` of the chunk's given relation."""
    return relation * sweep.valuation_count + index


def element_at(sweep, value: int, g: int) -> int:
    """The B8 element that a per-world value holds at group g."""
    groups = group_count(sweep)
    return sum((value >> (plane * groups + g) & 1) << plane for plane in range(3))


def mask_at(mask: int, g: int) -> bool:
    """Whether a mask has group g."""
    return bool(mask >> g & 1)


def mask_of(groups) -> int:
    """The mask of the given groups."""
    return sum(1 << g for g in set(groups))


def pack(elements) -> int:
    """The per-world value whose group g holds elements[g], one group per
    element."""
    groups = len(elements)
    value = 0
    for g, element in enumerate(elements):
        for plane in range(3):
            if element >> plane & 1:
                value |= 1 << (plane * groups + g)
    return value


def relation_block(sweep, value: int, relation: int, planes: int = 3) -> int:
    """The block of the chunk's given relation in a per-world value
    (planes=3) or a mask (planes=1), laid out as the one-relation sweep of
    that relation lays it out."""
    size, groups = sweep.valuation_count, group_count(sweep)
    block = 0
    for plane in range(planes):
        bits = value >> (plane * groups + relation * size) & ((1 << size) - 1)
        block |= bits << (plane * size)
    return block
