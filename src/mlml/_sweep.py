"""Valuation-parallel evaluation over a fixed frame.

Checking frame validity means evaluating a formula under every valuation of
the frame, and the correspondence harness does that for tens of thousands of
frames.  Rather than recurse once per valuation, this module packs the whole
valuation space into big integers, one Python int per world, bit-sliced by
atom: with G groups (one per valuation, or per (relation, valuation) pair of
a chunk), bits [k*G, (k+1)*G) form plane k, whose bit g says whether group
g's element contains atom e(k+1).  An ultrafilter designates exactly the
elements that contain its generator, so plane k is the designation mask under
the ultrafilter that e(k+1) generates.  Meet, join and complement are single
bitwise operations on the whole int.  Ball compares the three plane slices:
a group is crisp where they agree, and the crisp mask is copied back to all
three planes.  Down-interpretation into a label keeps the plane of its atom
and puts the meet of the other two planes, its coatom, in both of theirs.
Validity under an ultrafilter is the meet of the world values, then one plane
slice, and every mask holds one bit per group.

Valuations are indexed in lexicographic order over slots (world, variable),
worlds in frame order and variables as supplied, with slot 0 most
significant; each slot's digit indexes the world's carrier in ascending
element order.  Index 0 is therefore the all-zero valuation, and the lowest
failing bit of a validity mask identifies the canonically first countermodel.

Formulas are evaluated as compiled programs.  `compile_formula` takes the
formula's distinct nodes in the post-order of the one formula walk in
syntax, which every pass over a formula goes through, and hash-conses them
into straight-line code: one (op, a, b) instruction per distinct
subformula, whose arguments are indices of earlier instructions (diamond
compiles to not-box-not).  A sweep interns the instructions it runs by (op,
ids of the argument results), all small ints, so a subformula shared by
several formulas is computed once per sweep.  A caller that wants several
ultrafilters evaluates the program once and reads them all off one meet of
its world values (`valid_masks_of`).  `apply`
runs one opcode on per-world value lists; `values` passes it the interned
results, and the indiscernibility battery passes it the values of its
semantic classes, so both run the same operators.  Callers that evaluate
one formula on many frames compile it once and pass the program.  A
variable's vector depends only on the slot count, its slot and the world's
carrier, so the vectors come from a small fixed-size cache shared by
every sweep.

The correspondence battery and the countermodel search pack the relation
axis as well.  A sweep over a `RelationChunk` covers one labelling of n
worlds and R relation bitmasks: a power-of-two-aligned range of them, or an
ascending tuple of any length, such as the search's canonical relations of
an orbit representative (see _orbits).  The groups are relation-major within
each plane: relation r's N valuations occupy groups [r*N, (r+1)*N).
A single `Frame` is swept as the one-relation chunk of its own bitmask,
`relation_bits`.  `edge_masks` gives each edge w->u as the mask of the
relations that have it, and box joins the successor's value with the
all-ones block, in every plane, of each relation lacking the edge before the
meet.  For an edge that every relation has, as each edge of a single frame,
that block is empty; an edge none has is left out.  Down-interpretation
preserves meets and is the identity on a world's own carrier, so box
down-interprets the meet once per world, not each successor's value.
`relation_chunk_width` keeps R*N at most 2**16 groups.

The definitional single-model evaluator lives in kripke.py; the test suite
checks the two agree on random formulas and frames.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Sequence, Union

from .algebra import ATOMS, BOT, LATTICE_LABELS, TOP, Ultrafilter, carrier, middle_pair
from . import syntax
from .syntax import Formula, ResourceBudgetExceeded

if TYPE_CHECKING:  # pragma: no cover
    from .kripke import Frame


DEFAULT_MAX_VALUATIONS = 4 ** 10

# Plane k holds the bit of atom e(k+1), bit k of the element encoding.
_GENERATOR_PLANE = {atom: atom.bit_length() - 1 for atom in ATOMS}

# Per lattice label: the plane of its atom, then the two planes of its coatom.
_DOWN_PLANES = {
    label: tuple(_GENERATOR_PLANE[a] for middle in middle_pair(label) for a in ATOMS if a & middle)
    for label in LATTICE_LABELS
}

# A block's top byte, with only its top bit possibly set, as a binary digit.
_TOP_BYTE_DIGITS = bytes.maketrans(b"\x00\x80", b"01")


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

# Opcodes: the leaves, then the unary operators, then the binary ones.
VAR, TOP_OP, BOT_OP, NOT, BALL, BOX, BOX_SAME, BOX_DIFF, AND, OR = range(10)

_UNARY_OPS = {
    syntax.Not: NOT,
    syntax.Ball: BALL,
    syntax.Box: BOX,
    syntax.BoxSame: BOX_SAME,
    syntax.BoxDiff: BOX_DIFF,
}
_BINARY_OPS = {syntax.And: AND, syntax.Or: OR}


@dataclass(frozen=True, eq=False)
class Program:
    """A formula as straight-line code.

    Instruction k is (op, a, b): a and b index earlier instructions, except
    that a is the variable name for VAR, and unused arguments are -1.  Each
    distinct subformula has one instruction and the last one is the formula.
    """

    code: tuple[tuple[int, object, int], ...]


def compile_formula(f: Formula) -> Program:
    """Hash-cons f into a Program, one node of f at a time in post-order."""
    code: list[tuple[int, object, int]] = []
    position: dict[tuple[int, object, int], int] = {}
    done: dict[int, int] = {}  # id of a node of f -> its instruction

    def emit(op: int, a: object = -1, b: int = -1) -> int:
        instruction = (op, a, b)
        at = position.get(instruction)
        if at is None:
            at = position[instruction] = len(code)
            code.append(instruction)
        return at

    for g in syntax._post_order(f):
        kind = type(g)
        if kind is syntax.Var:
            at = emit(VAR, g.name)
        elif kind is syntax.Top:
            at = emit(TOP_OP)
        elif kind is syntax.Bot:
            at = emit(BOT_OP)
        elif kind in _BINARY_OPS:
            at = emit(_BINARY_OPS[kind], done[id(g.left)], done[id(g.right)])
        elif kind is syntax.Diamond:
            at = emit(NOT, emit(BOX, emit(NOT, done[id(g.sub)])))
        elif kind in _UNARY_OPS:
            at = emit(_UNARY_OPS[kind], done[id(g.sub)])
        else:
            raise TypeError(f"not a formula: {g!r}")
        done[id(g)] = at
    return Program(tuple(code))


# ---------------------------------------------------------------------------
# Variable vectors
# ---------------------------------------------------------------------------


def _replicate(block: int, block_bits: int, copies: int) -> int:
    """Concatenate `copies` copies of a block of bits: double them past the
    count, then cut off the copies over it, if any."""
    value = block
    span = block_bits
    total = block_bits * copies
    while span < total:
        value |= value << span
        span *= 2
    if span > total:
        value &= (1 << total) - 1
    return value


@lru_cache(maxsize=64)
def _var_vector(slot_count: int, slot: int, domain: tuple[int, ...], relations: int = 1) -> int:
    """Packed value of the variable in `slot` at a world whose slot digits
    range over `domain`, across all len(domain) ** slot_count valuations,
    repeated for each of `relations` relations."""
    base = len(domain)
    run = base ** (slot_count - 1 - slot)
    groups = base ** slot_count * relations
    value = 0
    for plane in range(3):
        block = 0
        for digit, element in enumerate(domain):
            if element >> plane & 1:
                block |= ((1 << run) - 1) << (run * digit)
        value |= _replicate(block, run * base, base ** slot * relations) << (plane * groups)
    return value


# ---------------------------------------------------------------------------
# Relation chunks
# ---------------------------------------------------------------------------

MAX_PACKED_GROUPS = 1 << 16


def relation_chunk_width(worlds: int, variables: int) -> int:
    """Relations per packed sweep: as many as keep relations times the
    4 ** (worlds * variables) valuations at most MAX_PACKED_GROUPS, but at
    least one and at most all 2 ** (worlds * worlds); a power of two."""
    fit = MAX_PACKED_GROUPS // 4 ** (worlds * variables)
    return max(1, min(fit, 1 << (worlds * worlds)))


@lru_cache(maxsize=128)
def relation_bit_pattern(bit: int, unit_bits: int, count: int) -> int:
    """`count` units of `unit_bits` bits each, unit r all ones iff bit `bit`
    of r is set (count a power of two)."""
    half = unit_bits << bit
    total = unit_bits * count
    if half >= total:
        return 0
    return _replicate(((1 << half) - 1) << half, 2 * half, total // (2 * half))


def set_bits(mask: int) -> list[int]:
    """The positions of the set bits of a mask, ascending."""
    text = format(mask, "b")[::-1]
    found = []
    k = text.find("1")
    while k >= 0:
        found.append(k)
        k = text.find("1", k + 1)
    return found


def _unit_blocks(column: str, unit_bits: int) -> int:
    """Units of `unit_bits` bits each, unit k all ones iff column[k] is "1":
    one all-ones block per run of ones."""
    blocks = 0
    start = column.find("1")
    while start >= 0:
        stop = column.find("0", start)
        if stop < 0:
            stop = len(column)
        blocks |= ((1 << (unit_bits * (stop - start))) - 1) << (unit_bits * start)
        start = column.find("1", stop)
    return blocks


def edge_masks(relations: range | tuple[int, ...], edges: int, unit_bits: int) -> list[int]:
    """Per edge bit below `edges`: the units, `unit_bits` bits each, of the
    chunk's relations that have that edge, unit r for relations[r].  An
    aligned range reads them off fixed bit patterns; a tuple builds them
    from the runs of its relations that have the edge."""
    count = len(relations)
    every = (1 << (unit_bits * count)) - 1
    if isinstance(relations, tuple):
        # Character b of a relation's row is its edge bit b.
        rows = [format(bits, f"0{edges}b")[::-1] for bits in relations]
        columns = ("".join(column) for column in zip(*rows))
        return [every if "0" not in column else _unit_blocks(column, unit_bits)
                for column in columns]
    return [
        relation_bit_pattern(bit, unit_bits, count) if 1 << bit < count
        else every if relations.start >> bit & 1 else 0
        for bit in range(edges)
    ]


def relation_bits(frame: "Frame") -> int:
    """The frame's relation bitmask, worlds in frame order: bit i*n+j set
    iff world i reaches world j."""
    index = {w: i for i, w in enumerate(frame.worlds)}
    n = len(frame.worlds)
    return sum(1 << (index[a] * n + index[b]) for a, b in frame.relation)


@dataclass(frozen=True)
class RelationChunk:
    """Every frame on the labelled worlds whose relation bitmask is in
    `relations`: either 2**k consecutive masks starting at a multiple of
    2**k, whose edges `edge_masks` reads off fixed bit patterns, or a
    nonempty tuple of masks in strictly ascending order.  Bit i*n+j of a
    mask means world i reaches world j."""

    worlds: tuple[str, ...]
    labels: tuple[str, ...]
    relations: range | tuple[int, ...]

    def __post_init__(self) -> None:
        relations, count = self.relations, len(self.relations)
        if isinstance(relations, tuple):
            if not count or any(a >= b for a, b in zip(relations, relations[1:])):
                raise ValueError(f"{relations!r} is not a nonempty ascending tuple")
        elif not count or count & (count - 1) or relations.start % count or relations.step != 1:
            raise ValueError(f"{relations!r} is not an aligned power-of-two range")


# ---------------------------------------------------------------------------
# The sweep
# ---------------------------------------------------------------------------


class FrameSweep:
    """All valuations of one frame, or of every frame in a RelationChunk,
    evaluated in parallel.

    Values hold three planes of one bit per group, and masks one plane: a
    group per valuation of the frame, or per (relation, valuation) pair of
    the chunk, relation-major; valuation indices, as `decode_valuation`
    reads them, count within one relation.

    With binary=True each slot ranges over {0, 1} instead of the world's full
    carrier, which is the classical-fragment comparison mode.
    """

    def __init__(
        self,
        frame: "Frame | RelationChunk",
        var_names: Sequence[str],
        binary: bool = False,
        max_valuations: int | None = DEFAULT_MAX_VALUATIONS,
    ):
        self.var_names = tuple(var_names)
        self.worlds = worlds = frame.worlds
        if isinstance(frame, RelationChunk):
            labels, self.relations = frame.labels, frame.relations
        else:  # the one-relation chunk of the frame's own bitmask
            labels = [frame.lattice_of[w] for w in worlds]
            bits = relation_bits(frame)
            self.relations = range(bits, bits + 1)
        self._labels = labels = list(labels)
        self._domains = [(BOT, TOP) if binary else carrier(label) for label in labels]
        self._base = 2 if binary else 4
        self._slot_count = len(worlds) * len(self.var_names)
        self.valuation_count = self._base ** self._slot_count
        if max_valuations is not None and self.valuation_count > max_valuations:
            raise ResourceBudgetExceeded(
                f"{self.valuation_count} valuations exceed the cap of {max_valuations}"
            )
        self._block_full = (1 << self.valuation_count) - 1
        self._groups = groups = self.valuation_count * len(self.relations)
        self._ones = ones = (1 << groups) - 1
        self._full = (1 << (3 * groups)) - 1
        # Per world: the plane mask of its atom and the shifts to the planes
        # of its coatom, for down-interpretation into its carrier.
        self._down = []
        for label in labels:
            atom, co_lo, co_hi = _DOWN_PLANES[label]
            self._down.append((ones << (atom * groups), co_lo * groups, co_hi * groups))
        # Per world: (successor, off) in its own lattice and in the others,
        # off the all-ones block, in every plane, of each relation lacking
        # the edge.
        n = len(worlds)
        self._same: list[list[tuple[int, int]]] = [[] for _ in worlds]
        self._diff: list[list[tuple[int, int]]] = [[] for _ in worlds]
        self._no_succ: list[list] = [[]] * n
        for bit, has in enumerate(edge_masks(self.relations, n * n, self.valuation_count)):
            if has:
                wi, ui = divmod(bit, n)
                successors = self._same if labels[wi] == labels[ui] else self._diff
                off = ones ^ has
                successors[wi].append((ui, off | off << groups | off << (2 * groups)))
        # Interned results: (op, argument ids) -> id, and id -> per-world values.
        self._ids: dict[tuple[int, object, int], int] = {}
        self._results: list[list[int]] = []
        # Built by the first relations_meeting: each block's top bit, every
        # other bit, and 2**(B-1) - 1 in each B-bit block.
        self._block_tops: tuple[int, int, int] | None = None

    # -- packed operators ---------------------------------------------------

    def _ball(self, v: int) -> int:
        groups, ones = self._groups, self._ones
        # Planes 0 and 1 of x: e1 ^ e2 and e2 ^ e3; a group is crisp, 0 or
        # 1, where neither is set.
        x = v ^ (v >> groups)
        crisp = ((x | (x >> groups)) & ones) ^ ones
        return crisp | crisp << groups | crisp << (2 * groups)

    def _box(self, sub: list[int], same: list[list], diff: list[list]) -> list[int]:
        """Per world: the meet over the listed (successor, off) pairs of the
        successor's value joined with off, down-interpreted into the world's
        carrier.  Down-interpretation preserves meets, keeps the 0 or 1 of
        off in each group, and is the identity on the carrier, where a
        same-lattice value already lies, so the meet is down-interpreted
        once, and only when it has a value from another lattice."""
        ones = self._ones
        out = []
        for (atoms, co_lo, co_hi), same_targets, diff_targets in zip(self._down, same, diff):
            acc = self._full
            for ui, off in same_targets:
                acc &= sub[ui] | off if off else sub[ui]
            if diff_targets:
                for ui, off in diff_targets:
                    acc &= sub[ui] | off if off else sub[ui]
                coatom = (acc >> co_lo) & (acc >> co_hi) & ones
                acc = (acc & atoms) | (coatom << co_lo) | (coatom << co_hi)
            out.append(acc)
        return out

    def _variable(self, name: str) -> list[int]:
        if name not in self.var_names:
            raise KeyError(f"variable {name!r} not covered by this sweep")
        slot = self.var_names.index(name)
        stride = len(self.var_names)
        relations = len(self.relations)
        return [
            _var_vector(self._slot_count, wi * stride + slot, domain, relations)
            for wi, domain in enumerate(self._domains)
        ]

    def apply(self, op: int, a=None, b=None) -> list[int]:
        """Per-world values of one instruction: a is the variable name for
        VAR, else the per-world values of the operand, and b those of the
        second operand of AND and OR.  Each operand's value at a world lies
        in the world's carrier, as every instruction's does."""
        full = self._full
        if op == VAR:
            return self._variable(a)
        if op == TOP_OP:
            return [full] * len(self.worlds)
        if op == BOT_OP:
            return [0] * len(self.worlds)
        if op == NOT:
            return [v ^ full for v in a]
        if op == AND:
            return [x & y for x, y in zip(a, b)]
        if op == OR:
            return [x | y for x, y in zip(a, b)]
        if op == BALL:
            return [self._ball(v) for v in a]
        if op == BOX:
            return self._box(a, self._same, self._diff)
        if op == BOX_SAME:
            return self._box(a, self._same, self._no_succ)
        return self._box(a, self._no_succ, self._diff)

    # -- evaluation ---------------------------------------------------------

    def values(self, f: Union[Formula, Program]) -> list[int]:
        """Packed value of f at each world, over every valuation at once.

        f is a formula, compiled on entry, or a program from compile_formula.
        """
        program = f if isinstance(f, Program) else compile_formula(f)
        ids, results = self._ids, self._results
        at: list[int] = []
        for op, a, b in program.code:
            if op >= NOT:
                a = at[a]
                if op >= AND:
                    b = at[b]
            key = (op, a, b)
            rid = ids.get(key)
            if rid is None:
                results.append(self.apply(op, results[a] if op >= NOT else a,
                                          results[b] if op >= AND else None))
                rid = ids[key] = len(results) - 1
            at.append(rid)
        return results[at[-1]]

    # -- satisfaction masks ---------------------------------------------------

    @property
    def ones_mask(self) -> int:
        """The all-groups mask (bit g set for every group g)."""
        return self._ones

    def designated_mask(self, f: Union[Formula, Program], u: Ultrafilter) -> list[int]:
        """Per world: mask whose bit i is set iff valuation i makes f hold
        at that world."""
        shift = _GENERATOR_PLANE[u.generator] * self._groups
        return [(v >> shift) & self._ones for v in self.values(f)]

    def valid_mask(self, f: Union[Formula, Program], u: Ultrafilter) -> int:
        """Mask whose bit i is set iff valuation i makes f hold at every
        world."""
        return self.valid_masks_of(self.values(f), (u,))[0]

    def valid_masks_of(
        self, values: Sequence[int], ultrafilters: Iterable[Ultrafilter]
    ) -> list[int]:
        """valid_mask of per-world values, as `values` or `apply` give them,
        under each of the ultrafilters: one meet of the values, then a plane
        slice per ultrafilter."""
        meet = self._full
        for v in values:
            meet &= v
        return [(meet >> (_GENERATOR_PLANE[u.generator] * self._groups)) & self._ones
                for u in ultrafilters]

    def is_frame_valid(self, f: Union[Formula, Program], u: Ultrafilter) -> bool:
        return self.valid_mask(f, u) == self._ones

    def countermodel_mask(
        self,
        premises: Iterable[Union[Formula, Program]],
        goal: Union[Formula, Program],
        ultrafilters: Sequence[Ultrafilter],
    ) -> list[int]:
        """Per ultrafilter: the mask of the valuations globally satisfying
        every premise but not the goal.  The planes of the ultrafilters are
        met with every premise's world values, and the goal is not evaluated
        once that meet is empty."""
        ones = self._ones
        shifts = [_GENERATOR_PLANE[u.generator] * self._groups for u in ultrafilters]
        meet = 0
        for shift in shifts:
            meet |= ones << shift
        for premise in premises:
            for v in self.values(premise):
                meet &= v
            if not meet:
                return [0] * len(shifts)
        valid = self.valid_masks_of(self.values(goal), ultrafilters)
        return [(meet >> shift) & (v ^ ones) for shift, v in zip(shifts, valid)]

    def countermodel_index(
        self,
        premises: Iterable[Union[Formula, Program]],
        goal: Union[Formula, Program],
        u: Ultrafilter,
    ) -> int | None:
        """Lowest valuation index globally satisfying every premise but not
        the goal, or None; for a chunk, that of its first relation."""
        return self.lowest_index(self.countermodel_mask(premises, goal, (u,))[0], 0)

    def first_invalid_index(self, f: Union[Formula, Program], u: Ultrafilter) -> int | None:
        return self.countermodel_index((), f, u)

    # -- per-relation reductions of a chunk -----------------------------------

    def relations_meeting(self, mask: int) -> int:
        """Bit r set iff the mask has a bit in the block of the chunk's r-th
        relation.

        Adding 2**(B-1) - 1 to a B-bit block with its top bit cleared sets
        that bit iff the rest of the block is nonzero, and never carries out
        of it: one addition tests every block, the block's own top bit is
        joined in, and the top bits are read off one byte per block, or off
        the binary digits where a block is not whole bytes."""
        if not mask:
            return 0
        block = self.valuation_count
        if self._block_tops is None:
            lanes = _replicate(1, block, len(self.relations))
            high = lanes << (block - 1)
            self._block_tops = (high, self._ones ^ high, high - lanes)
        high, low, below_high = self._block_tops
        tops = (mask | ((mask & low) + below_high)) & high
        if block % 8:
            return int(format(tops, f"0{block * len(self.relations)}b")[::block], 2)
        size = block // 8
        return int(tops.to_bytes(size * len(self.relations), "big")[::size]
                   .translate(_TOP_BYTE_DIGITS), 2)

    def lowest_index(self, mask: int, relation: int) -> int | None:
        """Lowest valuation index with its bit set in the block of the
        chunk's given relation, or None."""
        block = (mask >> (self.valuation_count * relation)) & self._block_full
        if block == 0:
            return None
        return (block & -block).bit_length() - 1

    def lowest_indices(self, mask: int, relations: Sequence[int]) -> list[int | None]:
        """lowest_index of the mask for each of the given relations of the
        chunk.  Converting the mask to bytes costs about as much as ten
        shifts of it, so from 16 relations on, each whole-byte block is read
        off one little-endian byte string of the mask instead of a shift of
        the whole mask per relation: an 8-byte block as one word of it where
        words are little-endian, any other block as a slice."""
        block = self.valuation_count
        if len(relations) < 16 or block % 8:
            return [self.lowest_index(mask, r) for r in relations]
        size = block // 8
        data = memoryview(mask.to_bytes(size * len(self.relations), "little"))
        if size == 8 and sys.byteorder == "little":
            blocks = map(data.cast("Q").__getitem__, relations)
        else:
            blocks = (int.from_bytes(data[size * r:size * (r + 1)], "little") for r in relations)
        return [(bits & -bits).bit_length() - 1 if bits else None for bits in blocks]

    def decode_valuation(self, index: int) -> dict[tuple[str, str], int]:
        """The valuation at the given index, as a (world, variable) map."""
        if not 0 <= index < self.valuation_count:
            raise IndexError(index)
        return valuation_at(self.worlds, self._labels, self.var_names, index, self._base == 2)


def valuation_at(
    worlds: Sequence[str],
    labels: Sequence[str],
    var_names: Sequence[str],
    index: int,
    binary: bool = False,
) -> dict[tuple[str, str], int]:
    """Valuation `index` of a sweep over the labelled worlds and the
    variables, as a (world, variable) map, in slot order."""
    base = 2 if binary else 4
    run = base ** (len(worlds) * len(var_names))
    assignment: dict[tuple[str, str], int] = {}
    for world, label in zip(worlds, labels):
        domain = (BOT, TOP) if binary else carrier(label)
        for name in var_names:
            run //= base
            assignment[(world, name)] = domain[index // run % base]
    return assignment
