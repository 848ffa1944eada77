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
def _var_vector(slot_count: int, slot: int, domain: tuple[int, ...]) -> int:
    """Packed value of the variable in `slot` at a world whose slot digits
    range over `domain`, across all len(domain) ** slot_count valuations."""
    base = len(domain)
    run = base ** (slot_count - 1 - slot)
    run_ones = ((1 << (3 * run)) - 1) // 7
    block = 0
    for digit, value in enumerate(domain):
        block |= (value * run_ones) << (3 * run * digit)
    return _replicate(block, run * base, base ** slot)


# ---------------------------------------------------------------------------
# The sweep
# ---------------------------------------------------------------------------


class FrameSweep:
    """All valuations of one frame, evaluated in parallel.

    With binary=True each slot ranges over {0, 1} instead of the world's full
    carrier, which is the classical-fragment comparison mode.
    """

    def __init__(
        self,
        frame: "Frame",
        var_names: Sequence[str],
        binary: bool = False,
        max_valuations: int | None = DEFAULT_MAX_VALUATIONS,
    ):
        self.frame = frame
        self.var_names = tuple(var_names)
        self.worlds = worlds = frame.worlds
        self._labels = labels = [frame.lattice_of[w] for w in worlds]
        # Per world: its successors in its own lattice and in the others.
        index = {w: i for i, w in enumerate(worlds)}
        self._same: list[list[int]] = [[] for _ in worlds]
        self._diff: list[list[int]] = [[] for _ in worlds]
        for w, v in frame.relation:
            wi, ui = index[w], index[v]
            (self._same if labels[wi] == labels[ui] else self._diff)[wi].append(ui)
        self._no_succ: list[list[int]] = [[]] * len(worlds)
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
        self._full = (1 << (3 * self.valuation_count)) - 1
        self._ones = self._full // 7
        # Interned results: (op, argument ids) -> id, and id -> per-world values.
        self._ids: dict[tuple[int, object, int], int] = {}
        self._results: list[list[int]] = []
        self._last: tuple[object, list[int]] | None = None

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

    def _variable(self, name: str) -> list[int]:
        if name not in self.var_names:
            raise KeyError(f"variable {name!r} not covered by this sweep")
        slot = self.var_names.index(name)
        stride = len(self.var_names)
        return [
            _var_vector(self._slot_count, wi * stride + slot, domain)
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
        if op == BOX:
            return self._box(sub, self._same, self._diff)
        if op == BOX_SAME:
            return self._box(sub, self._same, self._no_succ)
        return self._box(sub, self._no_succ, self._diff)

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

    def countermodel_index(
        self,
        premises: Iterable[Union[Formula, Program]],
        goal: Union[Formula, Program],
        u: Ultrafilter,
    ) -> int | None:
        """Lowest valuation index globally satisfying every premise but not
        the goal, or None."""
        mask = self._ones
        for premise in premises:
            mask &= self.valid_mask(premise, u)
            if mask == 0:
                return None
        bad = mask & (self.valid_mask(goal, u) ^ self._ones)
        if bad == 0:
            return None
        return ((bad & -bad).bit_length() - 1) // 3

    def first_invalid_index(self, f: Union[Formula, Program], u: Ultrafilter) -> int | None:
        return self.countermodel_index((), f, u)

    def decode_valuation(self, index: int) -> dict[tuple[str, str], int]:
        """The valuation at the given index, as a (world, variable) map."""
        if not 0 <= index < self.valuation_count:
            raise IndexError(index)
        assignment: dict[tuple[str, str], int] = {}
        slot = 0
        for wi, world in enumerate(self.worlds):
            for name in self.var_names:
                run = self._base ** (self._slot_count - 1 - slot)
                digit = (index // run) % self._base
                assignment[(world, name)] = self._domains[wi][digit]
                slot += 1
        return assignment
