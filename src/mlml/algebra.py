"""The eight-element Boolean algebra B8, its ball operator, and its three
four-valued subalgebras.

An element of B8 is a subset of the three atoms {e1, e2, e3}, encoded as a
3-bit mask: bit 0 is e1, bit 1 is e2, bit 2 is e3.  Meet, join and complement
are then plain bitwise operations, which keeps the exhaustive sweeps elsewhere
in the package cheap.  The ball operator sends the top and bottom elements to
top and everything else to bottom.

The six middle elements pair up into three complementary pairs, and each pair
spans a four-element subalgebra {0, m, -m, 1}.  The carriers are named by
fixed labels:

    A = {0, e1, e23, 1}     B = {0, e2, e13, 1}     C = {0, e3, e12, 1}

Down-interpretation maps an arbitrary element into a carrier by joining all
carrier elements below it.  Designated values are given by a principal
ultrafilter, i.e. the up-set of one atom.
"""

from __future__ import annotations

from dataclasses import dataclass

Element8 = int

BOT = 0
E1 = 1
E2 = 2
E3 = 4
E12 = E1 | E2
E13 = E1 | E3
E23 = E2 | E3
TOP = E1 | E2 | E3

ELEMENTS = tuple(range(8))
ATOMS = (E1, E2, E3)

_ELEMENT_NAMES = {
    BOT: "0",
    E1: "e1",
    E2: "e2",
    E12: "e12",
    E3: "e3",
    E13: "e13",
    E23: "e23",
    TOP: "1",
}
_ELEMENTS_BY_NAME = {name: x for x, name in _ELEMENT_NAMES.items()}


def element_name(x: Element8) -> str:
    """The canonical display name of an element ("0", "e1", ..., "e23", "1")."""
    try:
        return _ELEMENT_NAMES[x]
    except KeyError:
        raise ValueError(f"not a B8 element: {x!r}") from None


def element_from_name(name: str) -> Element8:
    try:
        return _ELEMENTS_BY_NAME[name]
    except (KeyError, TypeError):
        raise ValueError(f"unknown element name: {name!r}") from None


def meet(x: Element8, y: Element8) -> Element8:
    return x & y


def join(x: Element8, y: Element8) -> Element8:
    return x | y


def complement(x: Element8) -> Element8:
    return x ^ TOP


def leq(x: Element8, y: Element8) -> bool:
    """Lattice order: x is below y iff x's atoms are among y's."""
    return x & y == x


def ball(x: Element8) -> Element8:
    """Top when x is top or bottom, bottom otherwise."""
    return TOP if x == BOT or x == TOP else BOT


# ---------------------------------------------------------------------------
# The three 4-valued subalgebras
# ---------------------------------------------------------------------------

LATTICE_LABELS = ("A", "B", "C")

# Which complementary middle pair each label carries.  The assignment is
# fixed once and for all, independent of the ultrafilter in play.
_MIDDLE_PAIR = {
    "A": (E1, E23),
    "B": (E2, E13),
    "C": (E3, E12),
}

_CARRIERS = {
    label: tuple(sorted((BOT, lo, hi, TOP)))
    for label, (lo, hi) in _MIDDLE_PAIR.items()
}


def carrier(label: str) -> tuple[Element8, ...]:
    """The four elements of the named subalgebra, ascending by encoding."""
    try:
        return _CARRIERS[label]
    except KeyError:
        raise ValueError(f"unknown lattice label: {label!r}") from None


def middle_pair(label: str) -> tuple[Element8, Element8]:
    """The complementary pair of middle elements carried by the label."""
    try:
        return _MIDDLE_PAIR[label]
    except KeyError:
        raise ValueError(f"unknown lattice label: {label!r}") from None


def down_interp(x: Element8, label: str) -> Element8:
    """Largest carrier element lying below x.

    Computed as the join of every carrier element below x.  The empty-set
    fallback returns the least element of the carrier; it can never fire here
    because 0 belongs to every carrier, but the clause is part of the
    definition and is kept.
    """
    elems = carrier(label)
    below = [y for y in elems if leq(y, x)]
    if not below:
        return min(elems)
    value = BOT
    for y in below:
        value = join(value, y)
    return value


# ---------------------------------------------------------------------------
# Ultrafilters and designation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ultrafilter:
    """A principal ultrafilter of B8: the up-set of one atom.

    Every ultrafilter of a finite Boolean algebra is of this form, so the
    three atoms enumerate all possible designated-value choices.
    """

    generator: Element8

    def __post_init__(self) -> None:
        if self.generator not in ATOMS:
            raise ValueError(
                f"ultrafilter generator must be an atom, got {self.generator!r}"
            )

    @property
    def name(self) -> str:
        return element_name(self.generator)

    @classmethod
    def from_name(cls, name: str) -> "Ultrafilter":
        return cls(element_from_name(name))


ULTRAFILTERS = tuple(Ultrafilter(atom) for atom in ATOMS)
DEFAULT_ULTRAFILTER = ULTRAFILTERS[0]


def is_designated(x: Element8, u: Ultrafilter) -> bool:
    """Whether x belongs to the ultrafilter, i.e. the generator is below x."""
    return x & u.generator == u.generator


def z_of(label: str, u: Ultrafilter) -> Element8:
    """The unique designated carrier element other than the top."""
    for x in carrier(label):
        if x != TOP and is_designated(x, u):
            return x
    raise AssertionError("every carrier meets every ultrafilter in {1, z}")
