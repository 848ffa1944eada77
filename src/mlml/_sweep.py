"""Valuation-parallel evaluation over a fixed frame.

Checking frame validity means evaluating a formula under every valuation of
the frame, and the correspondence harness does that for tens of thousands of
frames.  Rather than recurse once per valuation, this module packs the whole
valuation space into big integers: valuation i's value at a world occupies
bits [3*i, 3*i+3) of one Python int per world.  Meet, join and complement are
then single bitwise operations on those integers, and the ball and
down-interpretation operators reduce to a handful of shifts and masks.

Valuations are indexed in lexicographic order over slots (world, variable),
worlds in frame order and variables as supplied, with slot 0 most
significant; each slot's digit indexes the world's carrier in ascending
element order.  Index 0 is therefore the all-zero valuation, and the lowest
failing bit of a validity mask identifies the canonically first countermodel.

Formulas are evaluated as compiled programs.  `compile_formula` walks the
tree once, without recursion, and hash-conses it into straight-line code:
one (op, a, b) instruction per distinct subformula, whose arguments are
indices of earlier instructions (diamond compiles to not-box-not).  A sweep
interns the instructions it runs by (op, ids of the argument results), all
small ints, so a subformula shared by several formulas is computed once per
sweep, and the repeat evaluation of the last program, as for the next
ultrafilter, returns at once.  Callers that evaluate one formula on many
frames compile it once and pass the program.  A variable's vector depends
only on the slot count, its slot and the world's carrier, so the vectors come
from a small fixed-size cache shared by every sweep.

The correspondence battery and the countermodel search pack the relation
axis as well.  A sweep over a `RelationChunk` covers one labelling of n
worlds and a power-of-two-aligned range of R relation bitmasks,
relation-major: relation r's N valuations occupy groups [r*N, (r+1)*N) of
every operand.  An edge w->u is then a mask rather than a successor: for
the relations lacking it, the chunk's `relation_bit_pattern` marks their
blocks, and box ORs that mask into the successor's down-interpreted value
before the meet.  An edge whose bit lies
above the range's varying low bits is on or off for the whole chunk and goes
into the plain successor lists, so a one-relation chunk, and any single
`Frame`, evaluate exactly as before.  `relation_chunk_width` keeps R*N at
most 2**16 groups.

The definitional single-model evaluator lives in kripke.py; the test suite
checks the two agree on random formulas and frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Sequence, Union

from .algebra import BOT, E1, E2, E3, TOP, Ultrafilter, carrier
from . import syntax
from .syntax import Formula

if TYPE_CHECKING:  # pragma: no cover
    from .kripke import Frame


class ResourceBudgetExceeded(RuntimeError):
    """Raised when a sweep or search would exceed its configured budget."""


DEFAULT_MAX_VALUATIONS = 4 ** 10

# Per lattice label: the bit carrying its single-atom middle element and the
# two bits of its coatom middle element.
_DOWN_SHAPE = {
    "A": (0, 1, 2),
    "B": (1, 0, 2),
    "C": (2, 0, 1),
}

_GENERATOR_BIT = {E1: 0, E2: 1, E3: 2}


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
    """Hash-cons f into a Program by an iterative post-order walk."""
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

    stack = [f]
    while stack:
        g = stack[-1]
        if id(g) in done:
            stack.pop()
            continue
        kind = type(g)
        if kind is syntax.Var:
            at = emit(VAR, g.name)
        elif kind is syntax.Top:
            at = emit(TOP_OP)
        elif kind is syntax.Bot:
            at = emit(BOT_OP)
        elif kind in _BINARY_OPS:
            left, right = done.get(id(g.left)), done.get(id(g.right))
            if left is None or right is None:
                if right is None:
                    stack.append(g.right)
                if left is None:
                    stack.append(g.left)
                continue
            at = emit(_BINARY_OPS[kind], left, right)
        elif kind in _UNARY_OPS or kind is syntax.Diamond:
            sub = done.get(id(g.sub))
            if sub is None:
                stack.append(g.sub)
                continue
            if kind is syntax.Diamond:
                at = emit(NOT, emit(BOX, emit(NOT, sub)))
            else:
                at = emit(_UNARY_OPS[kind], sub)
        else:
            raise TypeError(f"not a formula: {g!r}")
        done[id(g)] = at
        stack.pop()
    return Program(tuple(code))


# ---------------------------------------------------------------------------
# Variable vectors
# ---------------------------------------------------------------------------


def _replicate(block: int, block_groups: int, copies: int) -> int:
    """Concatenate `copies` copies of a block of 3-bit groups (copies is a power of two)."""
    value = block
    span = block_groups
    total = block_groups * copies
    while span < total:
        value |= value << (3 * span)
        span *= 2
    return value


@lru_cache(maxsize=64)
def _var_vector(slot_count: int, slot: int, domain: tuple[int, ...], relations: int = 1) -> int:
    """Packed value of the variable in `slot` at a world whose slot digits
    range over `domain`, across all len(domain) ** slot_count valuations,
    repeated for each of `relations` relations (a power of two)."""
    base = len(domain)
    run = base ** (slot_count - 1 - slot)
    run_ones = ((1 << (3 * run)) - 1) // 7
    block = 0
    for digit, value in enumerate(domain):
        block |= (value * run_ones) << (3 * run * digit)
    return _replicate(block, run * base, base ** slot * relations)


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
    value = ((1 << half) - 1) << half
    span = 2 * half
    while span < total:
        value |= value << span
        span *= 2
    return value


@dataclass(frozen=True)
class RelationChunk:
    """Every frame on the labelled worlds whose relation bitmask lies in
    `relations`: 2**k consecutive masks starting at a multiple of 2**k.  Bit
    i*n+j of a mask means world i reaches world j."""

    worlds: tuple[str, ...]
    labels: tuple[str, ...]
    relations: range

    def __post_init__(self) -> None:
        count, start = len(self.relations), self.relations.start
        if not count or count & (count - 1) or start % count or self.relations.step != 1:
            raise ValueError(f"{self.relations!r} is not an aligned power-of-two range")


# ---------------------------------------------------------------------------
# The sweep
# ---------------------------------------------------------------------------


class FrameSweep:
    """All valuations of one frame, or of every frame in a RelationChunk,
    evaluated in parallel.

    Masks and values hold one 3-bit group per valuation of the frame, or per
    (relation, valuation) pair of the chunk, relation-major; valuation
    indices, as `decode_valuation` reads them, count within one relation.

    With binary=True each slot ranges over {0, 1} instead of the world's full
    carrier, which is the classical-fragment comparison mode.
    """

    relations = range(1)  # the relation bitmasks swept: a chunk's, or one frame's
    _gated = False  # whether some edge is in only some of the relations

    def __init__(
        self,
        frame: "Frame | RelationChunk",
        var_names: Sequence[str],
        binary: bool = False,
        max_valuations: int | None = DEFAULT_MAX_VALUATIONS,
    ):
        self.frame = frame
        self.var_names = tuple(var_names)
        self.worlds = worlds = frame.worlds
        chunk = isinstance(frame, RelationChunk)
        if chunk:
            self._labels = labels = list(frame.labels)
        else:
            self._labels = labels = [frame.lattice_of[w] for w in worlds]
        # Per world: its successors in its own lattice and in the others.
        self._same: list[list[int]] = [[] for _ in worlds]
        self._diff: list[list[int]] = [[] for _ in worlds]
        self._no_succ: list[list] = [[]] * len(worlds)
        if binary:
            self._domains = [(BOT, TOP)] * len(worlds)
        else:
            self._domains = [carrier(label) for label in labels]
        self._base = 2 if binary else 4
        self._slot_count = len(worlds) * len(self.var_names)
        self.valuation_count = self._base ** self._slot_count
        if max_valuations is not None and self.valuation_count > max_valuations:
            raise ResourceBudgetExceeded(
                f"{self.valuation_count} valuations exceed the cap of {max_valuations}"
            )
        self._block_full = self._full = (1 << (3 * self.valuation_count)) - 1
        if chunk:
            self._chunk_edges(frame.relations)
        else:
            index = {w: i for i, w in enumerate(worlds)}
            for w, v in frame.relation:
                wi, ui = index[w], index[v]
                (self._same if labels[wi] == labels[ui] else self._diff)[wi].append(ui)
        self._ones = self._full // 7
        # Interned results: (op, argument ids) -> id, and id -> per-world values.
        self._ids: dict[tuple[int, object, int], int] = {}
        self._results: list[list[int]] = []
        self._last: tuple[object, list[int]] | None = None

    def _chunk_edges(self, relations: range) -> None:
        """Widen the operands to every relation of the chunk and sort its
        edges: one every relation has is a successor, one only some have is
        gated by the mask of the relations lacking it, and one none has is
        left out."""
        self.relations = relations
        count, start = len(relations), relations.start
        block_bits = 3 * self.valuation_count
        self._full = (1 << (block_bits * count)) - 1
        self._gated = count > 1
        n = len(self.worlds)
        self._same_gated: list[list] = [[] for _ in range(n)]
        self._diff_gated: list[list] = [[] for _ in range(n)]
        for wi in range(n):
            for ui in range(n):
                bit = wi * n + ui
                same = self._labels[wi] == self._labels[ui]
                if 1 << bit < count:
                    off = self._full ^ relation_bit_pattern(bit, block_bits, count)
                    (self._same_gated if same else self._diff_gated)[wi].append((ui, off))
                elif start >> bit & 1:
                    (self._same if same else self._diff)[wi].append(ui)

    # -- packed operators ---------------------------------------------------

    def _ball(self, v: int) -> int:
        ones = self._ones
        w = v ^ self._full
        crisp = (v & (v >> 1) & (v >> 2) & ones) | (w & (w >> 1) & (w >> 2) & ones)
        return crisp * 7

    def _box(self, sub: list[int], same: list[list[int]], diff: list[list[int]]) -> list[int]:
        """Per world: the meet over the listed successors of their values,
        down-interpreted into the world's carrier.  A same-lattice value
        already lies in that carrier, where down-interpretation is the
        identity."""
        ones = self._ones
        out = []
        for label, same_targets, diff_targets in zip(self._labels, same, diff):
            acc = self._full
            for ui in same_targets:
                acc &= sub[ui]
            if diff_targets:
                atom_bit, co_lo, co_hi = _DOWN_SHAPE[label]
                atoms = ones << atom_bit
                for ui in diff_targets:
                    v = sub[ui]
                    pair = (v >> co_lo) & (v >> co_hi) & ones
                    acc &= (v & atoms) | (pair << co_lo) | (pair << co_hi)
            out.append(acc)
        return out

    def _gate(self, out: list[int], sub: list[int], same_gated: list[list],
              diff_gated: list[list]) -> list[int]:
        """Meet into each world's value from _box its gated successors: each
        value, down-interpreted as there, joined with its edge's mask, the
        all-ones block of every relation lacking the edge."""
        ones = self._ones
        for wi, (label, same_gates, diff_gates) in enumerate(
            zip(self._labels, same_gated, diff_gated)
        ):
            acc = out[wi]
            for ui, off in same_gates:
                acc &= sub[ui] | off
            if diff_gates:
                atom_bit, co_lo, co_hi = _DOWN_SHAPE[label]
                atoms = ones << atom_bit
                for ui, off in diff_gates:
                    v = sub[ui]
                    pair = (v >> co_lo) & (v >> co_hi) & ones
                    acc &= (v & atoms) | (pair << co_lo) | (pair << co_hi) | off
            out[wi] = acc
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

    def _apply(self, op: int, a, b: int) -> list[int]:
        """Per-world values of one instruction whose arguments are result ids."""
        full = self._full
        if op == VAR:
            return self._variable(a)
        if op == TOP_OP:
            return [full] * len(self.worlds)
        if op == BOT_OP:
            return [0] * len(self.worlds)
        sub = self._results[a]
        if op == NOT:
            return [v ^ full for v in sub]
        if op == AND:
            return [x & y for x, y in zip(sub, self._results[b])]
        if op == OR:
            return [x | y for x, y in zip(sub, self._results[b])]
        if op == BALL:
            return [self._ball(v) for v in sub]
        none = self._no_succ
        if op == BOX:
            out = self._box(sub, self._same, self._diff)
            return self._gate(out, sub, self._same_gated, self._diff_gated) if self._gated else out
        if op == BOX_SAME:
            out = self._box(sub, self._same, none)
            return self._gate(out, sub, self._same_gated, none) if self._gated else out
        out = self._box(sub, none, self._diff)
        return self._gate(out, sub, none, self._diff_gated) if self._gated else out

    # -- evaluation ---------------------------------------------------------

    def values(self, f: Union[Formula, Program]) -> list[int]:
        """Packed value of f at each world, over every valuation at once.

        f is a formula, compiled on entry, or a program from compile_formula.
        """
        last = self._last
        if last is not None and last[0] is f:
            return last[1]
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
                results.append(self._apply(op, a, b))
                rid = ids[key] = len(results) - 1
            at.append(rid)
        out = results[at[-1]]
        self._last = (f, out)
        return out

    # -- satisfaction masks ---------------------------------------------------

    @property
    def ones_mask(self) -> int:
        """Group-aligned all-valuations mask (bit 3*i set for valuation i)."""
        return self._ones

    def designated_mask(self, f: Union[Formula, Program], u: Ultrafilter) -> list[int]:
        """Per world: mask whose bit 3*i is set iff valuation i makes f hold
        at that world."""
        bit = _GENERATOR_BIT[u.generator]
        return [(v >> bit) & self._ones for v in self.values(f)]

    def valid_mask(self, f: Union[Formula, Program], u: Ultrafilter) -> int:
        """Group-aligned mask whose bit 3*i is set iff valuation i makes f
        hold at every world."""
        bit = _GENERATOR_BIT[u.generator]
        mask = self._ones
        for v in self.values(f):
            mask &= v >> bit
        return mask

    def is_frame_valid(self, f: Union[Formula, Program], u: Ultrafilter) -> bool:
        return self.valid_mask(f, u) == self._ones

    def countermodel_mask(
        self,
        premises: Iterable[Union[Formula, Program]],
        goal: Union[Formula, Program],
        u: Ultrafilter,
    ) -> int:
        """Group-aligned mask of the valuations globally satisfying every
        premise but not the goal."""
        mask = self._ones
        for premise in premises:
            mask &= self.valid_mask(premise, u)
            if mask == 0:
                return 0
        return mask & (self.valid_mask(goal, u) ^ self._ones)

    def countermodel_index(
        self,
        premises: Iterable[Union[Formula, Program]],
        goal: Union[Formula, Program],
        u: Ultrafilter,
    ) -> int | None:
        """Lowest valuation index globally satisfying every premise but not
        the goal, or None; for a chunk, that of its first relation."""
        return self.lowest_index(self.countermodel_mask(premises, goal, u), 0)

    def first_invalid_index(self, f: Union[Formula, Program], u: Ultrafilter) -> int | None:
        return self.countermodel_index((), f, u)

    # -- per-relation reductions of a chunk -----------------------------------

    def relations_meeting(self, mask: int) -> int:
        """Bit r set iff the group-aligned mask has a bit in the block of the
        chunk's r-th relation."""
        block = 3 * self.valuation_count
        if block % 8:
            # Fewer than eight valuations: fold each block onto its first bit.
            span = 3
            while span < block:
                mask |= mask >> span
                span *= 2
            return int(format(mask, "b")[::-1][::block][::-1], 2)
        size = block // 8
        data = mask.to_bytes(size * len(self.relations), "little")
        zero = bytes(size)
        found = 0
        for r, at in enumerate(range(0, len(data), size)):
            if data[at:at + size] != zero:
                found |= 1 << r
        return found

    def lowest_index(self, mask: int, relation: int) -> int | None:
        """Lowest valuation index with its bit set in the block of the
        chunk's given relation, or None."""
        block = (mask >> (3 * self.valuation_count * relation)) & self._block_full
        if block == 0:
            return None
        return ((block & -block).bit_length() - 1) // 3

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
