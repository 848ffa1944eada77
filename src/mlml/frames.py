"""Frame properties, exhaustive frame enumeration, the correspondence
harness that tests "valid on F iff F has property P" over all small frames
and the countermodel search, both as passes over groups of weighted parts of
the frame space, and the indiscernibility battery over semantic classes.

Frames on n labeled worlds are enumerated canonically: relations as n*n-bit
masks (bit i*n+j set meaning world i reaches world j) in increasing numeric
order, and for each relation every lattice labeling in lexicographic order
over the labels A < B < C.  That yields 2**(n*n) * 3**n frames per world
count.  An optional reduction keeps only the least frame of each orbit under
simultaneous world permutations.

Each property is a list of clauses over the relation's edge bits, in world
order; the first failing clause is the property's violation on a frame, and
the same clauses give its truth on a whole chunk of relation bitmasks at
once, which is how the correspondence harness and the search check it.

Besides the five textbook relational properties, the lattice labels support
properties of their own: a world is "out of the bubble" when having any
successor forces a successor in a different lattice, "super out of the
bubble" additionally forces a successor in the third lattice, and the two
restricted transitivities close two-step paths whose lattice labels agree or
split in a fixed pattern.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import defaultdict, deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, chain, islice, product, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import kripke, syntax
from ._orbits import _chunks, _labelling_orbits, canonical_relations, least_frames
from .algebra import LATTICE_LABELS, ULTRAFILTERS, Ultrafilter
from ._sweep import (
    AND,
    BALL,
    BOX,
    DEFAULT_MAX_VALUATIONS,
    NOT,
    VAR,
    FrameSweep,
    RelationChunk,
    ResourceBudgetExceeded,
    compile_formula,
    edge_masks,
    relation_bits,
    relation_chunk_width,
    set_bits,
    valuation_at,
)
from .kripke import Frame, Model, _resolve_ultrafilters, _valuation_doc
from .syntax import Formula

__all__ = [
    "ClauseViolation",
    "FrameProperty",
    "PROPERTIES",
    "is_reflexive",
    "is_serial",
    "is_symmetric",
    "is_transitive",
    "is_euclidean",
    "is_out_of_bubble",
    "is_super_out_of_bubble",
    "is_tte",
    "is_ttd",
    "enumerate_frames",
    "count_frames",
    "frame_encoding",
    "Mismatch",
    "CorrespondenceReport",
    "correspondence_check",
    "fixtures",
    "euclidean_triangle",
    "IndiscernibilityReport",
    "indiscernibility_check",
]


# ---------------------------------------------------------------------------
# Properties as clauses over relation bits
# ---------------------------------------------------------------------------

# A clause (witness, required, forbidden) fails on a relation bitmask holding
# every edge bit of `required` and none of `forbidden`; the witness is a
# tuple of world indices.  A property on n labelled worlds is the list of its
# clauses in world order, and its first failing clause is its violation.
Clause = tuple[tuple[int, ...], int, int]


def _edge(n: int, w: int, u: int) -> int:
    return 1 << (w * n + u)


def _reflexive(n: int, labels: tuple[str, ...]) -> Iterator[Clause]:
    for w in range(n):
        yield (w,), 0, _edge(n, w, w)


def _serial(n: int, labels: tuple[str, ...]) -> Iterator[Clause]:
    for w in range(n):
        yield (w,), 0, sum(_edge(n, w, u) for u in range(n))


def _symmetric(n: int, labels: tuple[str, ...]) -> Iterator[Clause]:
    for w in range(n):
        for u in range(n):
            yield (w, u), _edge(n, w, u), _edge(n, u, w)


def _two_step(n: int, keep: Callable[[int, int, int], bool]) -> Iterator[Clause]:
    """w->u and u->v force w->v, for the triples `keep` selects."""
    for w in range(n):
        for u in range(n):
            for v in range(n):
                if keep(w, u, v):
                    yield (w, u, v), _edge(n, w, u) | _edge(n, u, v), _edge(n, w, v)


def _transitive(n: int, labels: tuple[str, ...]) -> Iterator[Clause]:
    return _two_step(n, lambda w, u, v: True)


def _euclidean(n: int, labels: tuple[str, ...]) -> Iterator[Clause]:
    for w in range(n):
        for u in range(n):
            for v in range(n):
                yield (w, u, v), _edge(n, w, u) | _edge(n, w, v), _edge(n, u, v)


def _out_of_bubble(n: int, labels: tuple[str, ...]) -> Iterator[Clause]:
    """A world with a successor in its own lattice needs one in another."""
    for w in range(n):
        foreign = sum(_edge(n, w, u) for u in range(n) if labels[u] != labels[w])
        for u in range(n):
            if labels[u] == labels[w]:
                yield (w,), _edge(n, w, u), foreign


def _super_out_of_bubble(n: int, labels: tuple[str, ...]) -> Iterator[Clause]:
    """Out of the bubble, and a successor in a second lattice forces one in
    the third."""
    yield from _out_of_bubble(n, labels)
    for w in range(n):
        for u in range(n):
            if labels[u] == labels[w]:
                continue
            third = (set(LATTICE_LABELS) - {labels[w], labels[u]}).pop()
            yield (w, u), _edge(n, w, u), sum(
                _edge(n, w, v) for v in range(n) if labels[v] == third
            )


def _tte(n: int, labels: tuple[str, ...]) -> Iterator[Clause]:
    return _two_step(n, lambda w, u, v: labels[w] == labels[u] == labels[v])


def _ttd(n: int, labels: tuple[str, ...]) -> Iterator[Clause]:
    return _two_step(n, lambda w, u, v: labels[w] != labels[u] == labels[v])


@lru_cache(maxsize=1024)
def _clause_table(
    clauses: Callable, n: int, labels: tuple[str, ...]
) -> tuple[tuple[tuple[int, ...], int, int, tuple[int, ...], tuple[int, ...]], ...]:
    """The clauses that can fail, none that forbids an edge it requires,
    each with the edge indices of its required and forbidden masks."""
    return tuple(
        (witness, required, forbidden, tuple(set_bits(required)), tuple(set_bits(forbidden)))
        for witness, required, forbidden in clauses(n, labels)
        if not required & forbidden
    )


@dataclass(frozen=True)
class ClauseViolation:
    """The violation finder of a property given by clauses: the witness of
    the first clause, in world order, that fails on the frame."""

    clauses: Callable[[int, tuple[str, ...]], Iterable[Clause]]

    def __call__(self, frame: Frame) -> tuple | None:
        labels = tuple(frame.lattice_of[w] for w in frame.worlds)
        return _first_violation(self.clauses, frame.worlds, labels, relation_bits(frame))


def _first_violation(
    clauses: Callable, worlds: tuple[str, ...], labels: tuple[str, ...], bits: int
) -> tuple | None:
    for witness, required, forbidden, _, _ in _clause_table(clauses, len(worlds), labels):
        if bits & required == required and not bits & forbidden:
            return tuple(worlds[i] for i in witness)
    return None


@dataclass(frozen=True)
class FrameProperty:
    """A named frame property, given by its violation finder.

    The finder carries a `clauses` attribute, as ClauseViolation does (and
    any wrapper made with functools.wraps around it), so the property is
    also checked on relation bitmasks: `relation_mask` answers for a whole
    chunk of relations at once.
    """

    name: str
    violation: Callable[[Frame], tuple | None]

    def __post_init__(self) -> None:
        if not callable(getattr(self.violation, "clauses", None)):
            raise TypeError(f"property {self.name!r}: the violation finder has no clauses")

    def holds(self, frame: Frame) -> bool:
        return self.violation(frame) is None

    def relation_mask(
        self, worlds: tuple[str, ...], labels: tuple[str, ...],
        relations: range | tuple[int, ...],
    ) -> int:
        """Bit r set iff the frame on the labelled worlds whose relation
        bitmask is relations[r] has the property; `relations` is an aligned
        range or an ascending tuple, as for a RelationChunk."""
        every = (1 << len(relations)) - 1
        n = len(worlds)
        edges = edge_masks(relations, n * n, 1)
        failing = 0
        for _, _, _, required, forbidden in _clause_table(self.violation.clauses, n, labels):
            fails = every
            for k in required:
                fails &= edges[k]
            for k in forbidden:
                fails &= ~edges[k]
            failing |= fails
        return every & ~failing


PROPERTIES: dict[str, FrameProperty] = {
    p.name: p
    for p in (
        FrameProperty("reflexive", ClauseViolation(_reflexive)),
        FrameProperty("serial", ClauseViolation(_serial)),
        FrameProperty("symmetric", ClauseViolation(_symmetric)),
        FrameProperty("transitive", ClauseViolation(_transitive)),
        FrameProperty("euclidean", ClauseViolation(_euclidean)),
        FrameProperty("out_of_bubble", ClauseViolation(_out_of_bubble)),
        FrameProperty("super_out_of_bubble", ClauseViolation(_super_out_of_bubble)),
        FrameProperty("transitive_through_equality", ClauseViolation(_tte)),
        FrameProperty("transitive_through_difference", ClauseViolation(_ttd)),
    )
}


is_reflexive = PROPERTIES["reflexive"].holds
is_serial = PROPERTIES["serial"].holds
is_symmetric = PROPERTIES["symmetric"].holds
is_transitive = PROPERTIES["transitive"].holds
is_euclidean = PROPERTIES["euclidean"].holds
is_out_of_bubble = PROPERTIES["out_of_bubble"].holds
is_super_out_of_bubble = PROPERTIES["super_out_of_bubble"].holds
is_tte = PROPERTIES["transitive_through_equality"].holds
is_ttd = PROPERTIES["transitive_through_difference"].holds


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _world_names(n: int) -> tuple[str, ...]:
    return tuple(f"w{i + 1}" for i in range(n))


@lru_cache(maxsize=512)  # one edge set per relation, shared by its labelled frames
def _relation_from_bits(worlds: tuple[str, ...], bits: int) -> frozenset[tuple[str, str]]:
    n = len(worlds)
    return frozenset(
        (worlds[i], worlds[j])
        for i in range(n)
        for j in range(n)
        if bits >> (i * n + j) & 1
    )


def _frame_from_bits(worlds: tuple[str, ...], labels: tuple[str, ...], bits: int) -> Frame:
    return Frame(worlds, _relation_from_bits(worlds, bits), dict(zip(worlds, labels)))


def frame_encoding(frame: Frame) -> str:
    """Compact canonical id "<worlds>:<relation bits>:<labels>"."""
    labels = "".join(frame.lattice_of[w] for w in frame.worlds)
    return f"{len(frame.worlds)}:{relation_bits(frame)}:{labels}"


def enumerate_frames(n: int, reduce_isomorphism: bool = False) -> Iterator[Frame]:
    """All frames on n labeled worlds in canonical order.

    With reduce_isomorphism=True only the least representative of each orbit
    under world permutations is produced: per least relation, its least
    labellings (see _orbits.least_frames).
    """
    if n < 1:
        raise ValueError("world count must be >= 1")
    worlds = _world_names(n)
    labellings = list(product(LATTICE_LABELS, repeat=n))
    groups = least_frames(n) if reduce_isomorphism else (
        (bits, labellings) for bits in range(1 << (n * n)))
    for bits, group in groups:
        for labels in group:
            yield _frame_from_bits(worlds, labels, bits)


def count_frames(n: int) -> int:
    """2**(n*n) relations times 3**n labelings."""
    return (1 << (n * n)) * 3 ** n


# ---------------------------------------------------------------------------
# Weighted parts of the frame space
# ---------------------------------------------------------------------------


# A part of a scan over weighted frames: a labelling, a relation chunk, and
# its frame weights, each weight mapped to the units of the chunk that carry
# it; every unit carries one weight.
_Part = tuple[tuple[str, ...], "range | tuple[int, ...]", dict[int, int]]


def _parts(width: int, sources: list[tuple], ramp: bool) -> Iterator[list[_Part]]:
    """Groups of parts cut from (labelling, weight, relations) sources, a
    part per source with relations left: the next 1, 1, 2, 4, ... relations
    of each per group up to `width` with `ramp`, so that an early hit stays
    cheap, else `width` at a time.  Relations are an aligned range, cut into
    aligned ranges whose frames all carry the source's weight, or an
    ascending iterator of (relation, weight) pairs, cut into tuples of its
    relations, each frame weighted by the source's weight times its own."""
    done = 0
    while True:
        step = min(width, max(1, done)) if ramp else width
        group = []
        for labels, weight, relations in sources:
            if isinstance(relations, range):
                chunk = relations[done:done + step]
                if chunk:
                    group.append((labels, chunk, {weight: (1 << len(chunk)) - 1}))
                continue
            taken = list(islice(relations, step))
            if taken:
                weights: dict[int, int] = {}
                for k, (_, own) in enumerate(taken):
                    weights[weight * own] = weights.get(weight * own, 0) | 1 << k
                group.append((labels, tuple(r for r, _ in taken), weights))
        if not group:
            return
        done += step
        yield group


def _weighted(weights: dict[int, int], mask: int) -> int:
    """The weighted count of a part's frames whose units are in the mask."""
    return sum(weight * (units & mask).bit_count() for weight, units in weights.items())


def _every_frame(n: int, variables: int, ramp: bool) -> Iterator[list[_Part]]:
    """Every labelling on n worlds with weight 1, in relation ranges as wide
    as one sweep holds: the frame-by-frame pass of both batteries."""
    labellings = [(labels, 1, range(1 << (n * n))) for labels in product(LATTICE_LABELS, repeat=n)]
    return _parts(relation_chunk_width(n, variables), labellings, ramp)


def _orbit_parts(
    n: int, variables: int, orbit_key: tuple[str, ...], ramp: bool = True
) -> Iterator[list[_Part]]:
    """The frames on n worlds up to the symmetry that maps the ultrafilters
    named in `orbit_key` to each other, in groups of parts whose weights sum
    to every frame: the orbit representatives of `_labelling_orbits`, each
    weighted by the size of its orbit, and, where one sweep cannot hold all
    of a labelling's relations, per representative the relations canonical
    under its stabiliser (see _orbits), each weighted by the size of its
    orbit too.  Where one sweep holds them all, the ramp's sweep count is
    logarithmic in the relations swept, so canonical tuples would save a
    sweep or two and cost more to build."""
    width, every = relation_chunk_width(n, variables), range(1 << (n * n))
    return _parts(width, [
        (labels, size, every if width == len(every)
         else canonical_relations(n, labels, orbit_key))
        for labels, size in _labelling_orbits(n, orbit_key)
    ], ramp)


# ---------------------------------------------------------------------------
# Correspondence harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mismatch:
    frame: Frame
    ultrafilter: Ultrafilter
    direction: str  # "valid_without_property" | "property_without_valid"
    witness: object  # property violation tuple, or a countermodel Model


# A mismatch as the harness keeps it: (world count, relation bits, labels,
# ultrafilter, witness).  The witness is the countermodel's valuation index
# when the frame has the property, else the property's violation.
Row = tuple[int, int, str, Ultrafilter, "int | tuple"]

_ULTRAFILTER_NAME = {u.generator: u.name for u in ULTRAFILTERS}
_ULTRAFILTER_RANK = {u.generator: i for i, u in enumerate(ULTRAFILTERS)}


def _direction(witness: int | tuple) -> str:
    return "property_without_valid" if isinstance(witness, int) else "valid_without_property"


def _mismatch(row: Row, variables: tuple[str, ...]) -> Mismatch:
    n, bits, labels, u, witness = row
    worlds = _world_names(n)
    frame = _frame_from_bits(worlds, labels, bits)
    direction = _direction(witness)
    if isinstance(witness, int):
        witness = Model(frame, valuation_at(worlds, labels, variables, witness), u)
    return Mismatch(frame, u, direction, witness)


class _Labelled(NamedTuple):
    """What kripke.frame_to_dict reads of a frame."""

    worlds: tuple[str, ...]
    relation: frozenset[tuple[str, str]]
    lattice_of: dict[str, str]


def _csv_cell(text: str) -> str:
    if any(c in text for c in ",\"\n"):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_json(value: object) -> str:
    """JSON text with its quotes doubled, for inside a quoted CSV cell."""
    return json.dumps(value).replace('"', '""')


class _Mismatches(Sequence):
    """The mismatches of a report's rows, each built when read."""

    def __init__(self, rows: list[Row], variables: tuple[str, ...]):
        self._rows = rows
        self._variables = variables

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self._rows)))]
        return _mismatch(self._rows[i], self._variables)


@dataclass
class CorrespondenceReport:
    ultrafilters: tuple[str, ...]
    frames_checked: int
    variables: tuple[str, ...] = ()
    rows: list[Row] = field(default_factory=list)  # in report order
    # The number of mismatches in each direction, with or without rows.
    totals: dict[str, int] = field(default_factory=dict)

    @property
    def mismatches(self) -> Sequence[Mismatch]:
        return _Mismatches(self.rows, self.variables)

    @property
    def mismatch_count(self) -> int:
        return sum(self.totals.values())

    @property
    def clean(self) -> bool:
        return not self.mismatch_count

    def directions(self) -> set[str]:
        return {direction for direction, count in self.totals.items() if count}

    def csv_rows(self) -> Iterator[str]:
        """The lines of `correspond --csv` after its header, one per
        mismatch, formatted from the rows, each ending in a newline as
        `writelines` takes them.  A countermodel is the CSV cell of
        json.dumps(kripke.model_to_dict(model)), put together from the JSON
        of its frame's document up to its edges, of its edges and of its
        valuation's fields, each quoted for CSV once.  So its line is one
        concatenation of four parts: the relation's `n:bits:` and its edges,
        built when its first row is read, as the rows are bucketed by
        relation; and between them the labels, ultrafilter, flags and frame
        head, cached per labelling and ultrafilter, and after them the
        valuation, cached per labelling, witness and ultrafilter together
        with that head."""
        heads: dict[tuple[str, int], str] = {}
        parts: dict[tuple[str, int, int], tuple[str, str]] = {}
        last_n = last_bits = None
        for n, bits, labels, u, witness in self.rows:
            if bits != last_bits or n != last_n:
                last_n, last_bits, worlds = n, bits, _world_names(n)
                frame = _Labelled(worlds, _relation_from_bits(worlds, bits),
                                  dict(zip(worlds, labels)))
                start, edges = f"{n}:{bits}:", _csv_json(kripke.frame_to_dict(frame)["edges"])
            if witness.__class__ is not int:
                yield (f"{start}{labels};U={_ULTRAFILTER_NAME[u.generator]},false,true,"
                       f"{_csv_cell('violation at ' + ','.join(witness))}\n")
                continue
            part = parts.get((labels, witness, u.generator))
            if part is None:
                head = heads.get((labels, u.generator))
                if head is None:
                    # The document of the frame without edges ends in `[]}`.
                    frame = _Labelled(worlds, frozenset(), dict(zip(worlds, labels)))
                    head = heads[labels, u.generator] = (
                        f'{labels};U={_ULTRAFILTER_NAME[u.generator]},true,false,"'
                        + _csv_json(kripke.frame_to_dict(frame))[:-3])
                valuation = valuation_at(worlds, labels, self.variables, witness)
                part = parts[labels, witness, u.generator] = (
                    head, f', {_csv_json(_valuation_doc(valuation, u))[1:]}"\n')
            head, tail = part
            yield f"{start}{head}{edges}{tail}"


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise ResourceBudgetExceeded("time budget exhausted")


def _check_group(job: tuple) -> tuple[int, list[int], list[Row]]:
    """Check one group of weighted parts of the frames on n worlds, each
    part's chunk no wider than one sweep holds: per part, one packed sweep,
    one meet of the program's world values for every selected ultrafilter,
    validity and the property reduced to one bit per relation, each of
    which carries a weight.  Returns the `_weighted` count of the group's
    frames, its weighted mismatch counts in the property-without-validity
    and the validity-without-property directions, and its rows: every
    mismatch with `every_row`, else the first of each direction and
    ultrafilter.  The rows come per part, then per ultrafilter in the order
    given, which the caller makes the rank order of ULTRAFILTERS, so that a
    relation's rows are in report order (see correspondence_check).  Each
    row tuple is zipped together from the part's constants, its relations
    and their witnesses.  No Frame is built."""
    prop, program, var_names, n, group, ranked, max_valuations, every_row, deadline = job
    worlds = _world_names(n)
    checked, counts, rows, met = 0, [0, 0], [], set()
    for labels, chunk, weights in group:
        _check_deadline(deadline)
        text = "".join(labels)
        every = (1 << len(chunk)) - 1
        checked += _weighted(weights, every)
        holds = prop.relation_mask(worlds, labels, chunk)
        sweep = FrameSweep(RelationChunk(worlds, labels, chunk), var_names,
                           max_valuations=max_valuations)
        for u, valid in zip(ranked, sweep.valid_masks_of(sweep.values(program), ranked)):
            invalid = valid ^ sweep.ones_mask
            mismatched = ~(sweep.relations_meeting(invalid) ^ holds) & every
            for direction, found in enumerate((mismatched & holds, mismatched & ~holds)):
                if not found:
                    continue
                counts[direction] += _weighted(weights, found)
                if every_row:
                    at = set_bits(found)
                elif (direction, u.generator) not in met:
                    met.add((direction, u.generator))
                    at = [(found & -found).bit_length() - 1]
                else:
                    continue
                relations = list(map(chunk.__getitem__, at))
                witnesses = (
                    map(_first_violation, repeat(prop.violation.clauses), repeat(worlds),
                        repeat(labels), relations)
                    if direction else sweep.lowest_indices(invalid, at)
                )
                rows.extend(zip(repeat(n), relations, repeat(text), repeat(u), witnesses))
    return checked, counts, rows


def _recheck(
    rows: Iterable[Row],
    ultrafilters: int,
    totals: Sequence[int],
    prop: FrameProperty,
    formula: Formula,
    variables: tuple[str, ...],
) -> None:
    """Replay the first of the rows of each direction and ultrafilter on the
    definitional side: the countermodel with kripke's countermodel re-check,
    the violation on the property's own finder.  Finding them costs no call
    per row.  Only a direction with a nonzero total has rows, so the scan
    stops once each such direction has a row per ultrafilter, as the
    frame-by-frame pass lists for every property in PROPERTIES; where some
    ultrafilter has none, it reads every row."""
    wanted = ultrafilters * sum(1 for total in totals if total)
    first: dict[tuple[int, type], Row] = {}
    for row in rows:
        key = (row[3].generator, row[4].__class__)
        if key not in first:
            first[key] = row
            if len(first) == wanted:
                break
    for row in first.values():
        m = _mismatch(row, variables)
        if isinstance(row[4], int):
            kripke._checked_countermodel(m.witness, (), formula)
            agree = prop.holds(m.frame)
        else:
            agree = prop.violation(m.frame) == row[4]
        if not agree:
            raise AssertionError("sweep and definitional evaluator disagree")


def correspondence_check(
    prop: FrameProperty | str,
    formula: Formula | str,
    max_worlds: int,
    ultrafilters: str | Ultrafilter | Iterable[Ultrafilter] = "all",
    max_valuations: int | None = DEFAULT_MAX_VALUATIONS,
    max_frames: int | None = None,
    time_budget: float | None = None,
    workers: int = 1,
    keep_rows: bool = True,
) -> CorrespondenceReport:
    """Exhaustively compare frame validity of the formula against the
    property over every frame with up to max_worlds worlds.

    A mismatch is recorded per (frame, ultrafilter) whenever exactly one of
    "the formula is frame-valid" and "the frame has the property" holds; the
    witness is a countermodel in the property-without-validity direction and
    a property violation in the other.  Mismatches are reported sorted by
    world count, then the frame encoding as a string, then ultrafilter
    rank, with no sort of the rows: the jobs walk the ultrafilters in rank
    order, and the rows are bucketed by relation, the relations sorted (see
    _by_relation).  `report.ultrafilters` keeps the order given.  The
    report keeps them as rows and builds each Mismatch when read; the first
    of each direction and ultrafilter is re-checked here.  With
    keep_rows=False the report keeps no rows, and the first mismatch of each
    direction and ultrafilter that the check met is re-checked.

    Each world count is checked by a pass over groups of weighted parts of
    its frames (see _parts), one `_check_group` job per group: the job
    sweeps each part, a chunk of relations packed into one operand (see
    _sweep), and returns the group's weighted frame count, its weighted
    mismatch counts per direction and its rows; `frames_checked` and
    `totals` are their sums.  Renaming the worlds, and permuting the atoms
    with the ultrafilters moving in step, maps a mismatch to a mismatch of
    the same direction for every property in PROPERTIES.  For those, the
    pass is over the orbit representatives, each frame weighted by the size
    of its orbit, as the countermodel search scans them (see _orbit_parts),
    always run to its end.  Each world count's weighted frame count must be
    `count_frames(n)`, or the check raises AssertionError.  The weights are
    positive, so a weighted total of 0 means no mismatch.  Where rows are
    kept and the world count has a mismatch, the frame-by-frame pass of the
    search (see _every_frame) lists its rows, so the witness of a
    property-without-validity mismatch is the canonically first countermodel
    on its frame, as a per-frame sweep would find it.  Its frame and
    mismatch counts must equal the weighted ones, or the check raises
    AssertionError.  Any other property gets the frame-by-frame pass alone
    at every world count, in this process.  The jobs run in this process
    when `workers`, capped at the CPU count, is 1, or when every pass is one
    group, as where one sweep holds every relation on max_worlds worlds;
    else across one pool of that many processes, at most twice that many
    ahead of the one whose result is read.  Both honour the frame and time
    budgets.
    """
    if isinstance(prop, str):
        prop = PROPERTIES[prop]
    if isinstance(formula, str):
        formula = syntax.parse(formula)
    if max_worlds < 1:
        raise ValueError("max_worlds must be >= 1")
    selected = _resolve_ultrafilters(ultrafilters)
    if max_frames is not None and any(
        total > max_frames
        for total in accumulate(count_frames(n) for n in range(1, max_worlds + 1))
    ):
        raise ResourceBudgetExceeded(f"frame budget of {max_frames} exhausted")
    deadline = None if time_budget is None else time.monotonic() + time_budget

    report = CorrespondenceReport(
        ultrafilters=tuple(u.name for u in selected),
        frames_checked=0,
        variables=syntax.variables(formula),
    )
    program = compile_formula(formula)
    variables = report.variables
    symmetric = prop in PROPERTIES.values()
    orbit_key = tuple(sorted({u.name for u in selected}))
    totals = [0, 0]  # weighted mismatches without validity, without the property
    weighed = []  # per world count, the weighted frame count of its pass
    # Ultrafilters walked in rank order put each relation's rows in report order.
    ranked = tuple(sorted(selected, key=lambda u: _ULTRAFILTER_RANK[u.generator]))
    workers = min(workers, os.cpu_count() or 1)  # each process starts at the first submit
    pool_context = nullcontext()
    # A pass has two groups or more where one sweep cannot hold every relation
    # of its world count; the sweep width only shrinks as the worlds grow.
    if (workers > 1 and symmetric
            and relation_chunk_width(max_worlds, len(variables)) < 1 << max_worlds ** 2):
        from concurrent.futures import ProcessPoolExecutor

        pool_context = ProcessPoolExecutor(max_workers=workers)
    with pool_context as pool:

        def run(jobs: Iterator[tuple]) -> Iterator[tuple[int, list[int], list[Row]]]:
            """The jobs' results in order, with at most 2 * workers jobs
            submitted to the pool ahead of the one read."""
            if pool is None:
                yield from map(_check_group, jobs)
                return
            pending: deque = deque()
            for job in jobs:
                pending.append(pool.submit(_check_group, job))
                if len(pending) > 2 * workers:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()

        def check(groups, every_row: bool) -> tuple[int, list[int], list[Row]]:
            """One pass over the world count's groups: the sums of their jobs."""
            checked, counts, found = 0, [0, 0], []
            for group_checked, group_counts, group_rows in run(
                (prop, program, variables, n, group, ranked, max_valuations, every_row,
                 deadline)
                for group in groups
            ):
                checked += group_checked
                counts = [x + y for x, y in zip(counts, group_counts)]
                found += group_rows
            return checked, counts, found

        for n in range(1, max_worlds + 1):
            _check_deadline(deadline)
            every_frame = _every_frame(n, len(variables), ramp=False)
            if not symmetric:
                checked, counts, found = check(every_frame, keep_rows)
            else:
                checked, counts, found = check(
                    _orbit_parts(n, len(variables), orbit_key, ramp=False), False)
                if keep_rows and any(counts):
                    every_checked, every_counts, found = check(every_frame, True)
                    if (every_checked, every_counts) != (checked, counts):
                        raise AssertionError(
                            "orbit representatives and the frame-by-frame pass disagree")
            weighed.append(checked)
            report.frames_checked += checked
            totals = [x + y for x, y in zip(totals, counts)]
            report.rows += _by_relation(found) if keep_rows else found
    # Checked after every world count, so that a frame-by-frame pass that
    # disagrees is reported as such.
    if weighed != [count_frames(n) for n in range(1, max_worlds + 1)]:
        raise AssertionError("a pass's weighted frame count is not every frame")
    report.totals = dict(zip(("property_without_valid", "valid_without_property"), totals))
    _recheck(report.rows, len(selected), totals, prop, formula, variables)
    if not keep_rows:
        report.rows = []
    return report


def _by_relation(rows: list[Row]) -> list[Row]:
    """The rows of one world count's frame-by-frame pass in report order.
    The frame encoding sorts as a string, "2:10:AB" before "2:1:AB": by
    str(bits) + ":", then labels, then ultrafilter.  The pass puts each
    relation in one group, whose parts come in label order and whose rows
    come per part in ultrafilter rank order (see _check_group), so the rows
    of each relation are already in order: they are bucketed by relation,
    and only the relations are sorted."""
    buckets: defaultdict[int, list[Row]] = defaultdict(list)
    for row in rows:
        buckets[row[1]].append(row)
    return list(chain.from_iterable(
        buckets[bits] for bits in sorted(buckets, key="{}:".format)))


# ---------------------------------------------------------------------------
# Countermodel search
# ---------------------------------------------------------------------------


def _relation_blind_parts(
    n: int, orbit_key: tuple[str, ...], prop: FrameProperty | None
) -> Iterator[list[_Part]]:
    """For a judgment with no modality, whose value at a world depends on
    that world's valuation alone, so that a labelled frame has a
    countermodel iff every frame with its labelling does: the frames on n
    worlds passing the property (or all, for None), as one group of one part
    per orbit representative of `_labelling_orbits` with a passing
    relation.  Its `_parts` source is the range of the least passing
    relation, weighted by the orbit's size times the number of passing
    relations; the property is read off `relation_mask` over aligned ranges
    of 2**16 relations (see _orbits._chunks), one range up to four
    worlds."""
    worlds = _world_names(n)
    sources = []
    for labels, size in _labelling_orbits(n, orbit_key):
        least, count = 0, 1 << (n * n)
        if prop is not None:
            least, count = None, 0
            for relations in _chunks(n, 1 << 16):
                mask = prop.relation_mask(worlds, labels, relations)
                if mask and least is None:
                    least = relations.start + (mask & -mask).bit_length() - 1
                count += mask.bit_count()
        if count:
            sources.append((labels, size * count, range(least, least + 1)))
    return _parts(1, sources, ramp=False)


def _countermodel_scan(
    premises: tuple[Formula, ...],
    goal: Formula,
    max_worlds: int,
    selected: tuple[Ultrafilter, ...],
    frame_filter: FrameProperty | Callable[[Frame], bool] | None,
    max_valuations: int | None,
    max_frames: int | None,
) -> Model | None:
    """kripke.countermodel_search: per world count, a `scan` over every
    labelling and every relation, each frame of weight 1 (see _every_frame
    and _parts, which ramp up the relations per group).  Renaming the
    worlds and permuting the atoms, with the relation, the carriers and the
    ultrafilters moving in step, maps a countermodel to a countermodel and
    keeps every property in PROPERTIES.  So with no filter or one of those,
    each world count is first scanned on the weighted orbit representatives
    of `_orbit_parts`, or, when no premise or goal has a modality once
    their constants are folded (syntax.fold_constants, which keeps every
    value), of `_relation_blind_parts`, one relation each; every labelling
    and relation is scanned only where they have a countermodel or pass the
    budget."""
    if getattr(frame_filter, "__func__", None) is FrameProperty.holds:
        frame_filter = frame_filter.__self__  # a bound `holds`, as the is_* aliases are
    if frame_filter is not None and not isinstance(frame_filter, FrameProperty):
        raise TypeError("frame_filter must be a FrameProperty, its bound holds, or None")
    symmetric = frame_filter is None or frame_filter in PROPERTIES.values()
    var_names = syntax.variables(*premises, goal)
    *folded, goal = (syntax.fold_constants(g) for g in premises + (goal,))
    modal_free = all(syntax.is_modal_free(g) for g in folded + [goal])
    premise_programs = [compile_formula(p) for p in folded]
    goal_program = compile_formula(goal)

    def scan(n: int, groups: Iterable[list[_Part]], budget: float) -> tuple[Model | None, int]:
        """The search on n worlds over groups of parts.  Per group, one
        sweep per part with a frame passing the filter, and the lowest unit
        wins, then the part, the ultrafilter and `lowest_index`: with one
        chunk for every part, as frame by frame.  Returns the first
        countermodel, or None, and the weighted count of the frames passing
        the filter up to it.  Stops at the group where that count passes
        `budget`, and sweeps nothing once the count has reached it."""
        worlds = _world_names(n)
        count = 0
        for group in groups:
            passing = []
            for labels, relations, weights in group:
                units = (1 << len(relations)) - 1
                if frame_filter is not None:
                    units &= frame_filter.relation_mask(worlds, labels, relations)
                passing.append(units)
            hit, below = None, -1  # the units a hit must be below
            # With the budget reached, any frame passing the filter is over it.
            for i, allowed in enumerate(passing if count < budget else ()):
                if not allowed & below:
                    continue
                labels, relations, _ = group[i]
                sweep = FrameSweep(RelationChunk(worlds, labels, relations), var_names,
                                   max_valuations=max_valuations)
                for u, bad in zip(selected, sweep.countermodel_mask(
                        premise_programs, goal_program, selected)):
                    if not allowed & below:
                        break
                    hits = bad and sweep.relations_meeting(bad) & allowed & below
                    if hits:
                        r = (hits & -hits).bit_length() - 1
                        hit, below = (r, i, u, bad, sweep), (1 << r) - 1
            count += sum(_weighted(weights, mask & below)
                         for (_, _, weights), mask in zip(group, passing))
            if hit is not None:
                r, i, u, bad, sweep = hit
                count += sum(_weighted(weights, mask & 1 << r)
                             for (_, _, weights), mask in zip(group[:i + 1], passing))
                labels, relations, _ = group[i]
                frame = _frame_from_bits(worlds, labels, relations[r])
                return Model(frame, sweep.decode_valuation(sweep.lowest_index(bad, r)), u), count
            if count > budget:
                break
        return None, count

    orbit_key = tuple(sorted({u.name for u in selected}))
    limit, seen = math.inf if max_frames is None else max_frames, 0
    for n in range(1, max_worlds + 1):
        if symmetric:
            parts = (_relation_blind_parts(n, orbit_key, frame_filter) if modal_free
                     else _orbit_parts(n, len(var_names), orbit_key))
            model, count = scan(n, parts, limit - seen)
            if model is None and seen + count <= limit:
                seen += count
                continue
        model, count = scan(n, _every_frame(n, len(var_names), ramp=True), limit - seen)
        seen += count
        if seen > limit:
            raise ResourceBudgetExceeded(f"frame budget of {max_frames} exhausted")
        if model is not None:
            return model
        if symmetric:
            raise AssertionError("orbit representatives and the canonical scan disagree")
    return None


# ---------------------------------------------------------------------------
# Fixture frames
# ---------------------------------------------------------------------------


def euclidean_triangle() -> Frame:
    """Three worlds with the total relation (self-loops included).

    The labels put the two observer worlds in a lattice whose designated
    middle element is a coatom under the default ultrafilter, which is what
    makes the diamond-box countermodel go through.
    """
    worlds = ("w", "u", "v")
    relation = frozenset((a, b) for a in worlds for b in worlds)
    return Frame(worlds, relation, dict(zip(worlds, ("B", "B", "A"))))


def _clique(worlds: Iterable[str]) -> set[tuple[str, str]]:
    ws = tuple(worlds)
    return {(a, b) for a in ws for b in ws if a != b}


def _soob_frame(names: tuple[str, ...], labels: tuple[str, ...]) -> Frame:
    root, hub1, hub2, p1, q1, p2, q2 = names
    edges: set[tuple[str, str]] = {(root, hub1), (root, hub2)}
    edges |= _clique((hub1, p1, q1))
    edges |= _clique((hub2, p2, q2))
    return Frame(names, frozenset(edges), dict(zip(names, labels)))


def fixtures() -> dict[str, Frame]:
    """Named frames used by the characterization batteries.

    euc3 is the Euclidean triangle above.  soob_F consists of a root that
    reaches two hubs, each hub sitting in a bidirectional three-world clique
    whose members carry three distinct lattices; it is super out of the
    bubble.  soob_Fprime has the same shape but both hubs carry lattice C,
    so the root only ever escapes to one foreign lattice; it is out of the
    bubble but not super out of the bubble.  No world in either frame has a
    self-loop.
    """
    f_names = ("w", "w1", "w2", "w1p", "w1pp", "w2p", "w2pp")
    g_names = ("u", "u1", "u2", "u1p", "u1pp", "u2p", "u2pp")
    return {
        "euc3": euclidean_triangle(),
        "soob_F": _soob_frame(f_names, ("A", "B", "C", "A", "C", "A", "B")),
        "soob_Fprime": _soob_frame(g_names, ("A", "C", "C", "A", "B", "A", "B")),
    }


# ---------------------------------------------------------------------------
# Indiscernibility battery
# ---------------------------------------------------------------------------


@dataclass
class IndiscernibilityReport:
    formulas_checked: int
    ultrafilters: tuple[str, ...]
    disagreements: list[tuple[str, str, bool, bool]] = field(default_factory=list)

    @property
    def agree(self) -> bool:
        return not self.disagreements


# Semantic classes kept before `indiscern` gives up with exit 3.  The classes
# new at the corpus's last level feed no later level and are not kept, so
# depth d keeps those of depths below d: depth 8 keeps depth 7's 2,833, about
# 86 KB each on the two 7-world fixtures, and depth 9 would keep depth 8's
# 8,130.
MAX_SEMANTIC_CLASSES = 4096


def indiscernibility_check(
    corpus_depth: int = 3,
    ultrafilters: str | Ultrafilter | Iterable[Ultrafilter] = "all",
    max_valuations: int | None = DEFAULT_MAX_VALUATIONS,
) -> IndiscernibilityReport:
    """Compare frame validity on soob_F and soob_Fprime over the bounded
    one-variable corpus; agreement on all of it shows no such formula can
    tell super-out-of-the-bubble apart from its failure."""
    named = fixtures()
    selected = _resolve_ultrafilters(ultrafilters)
    # Counting the corpus takes longer than the class cap at deep corpora.
    disagreements = _disagreements(named["soob_F"], named["soob_Fprime"], corpus_depth,
                                   selected, max_valuations)
    return IndiscernibilityReport(
        formulas_checked=syntax.corpus_size(1, corpus_depth),
        ultrafilters=tuple(u.name for u in selected),
        disagreements=disagreements,
    )


def _disagreements(
    frame_a: Frame,
    frame_b: Frame,
    corpus_depth: int,
    selected: tuple[Ultrafilter, ...],
    max_valuations: int | None,
) -> list[tuple[str, str, bool, bool]]:
    """The corpus formulas, with the ultrafilter, valid on one frame but not
    the other, in corpus order.  The classes decide whether there are any;
    only then is every formula checked."""
    sweeps = [FrameSweep(frame, ("p",), max_valuations=max_valuations)
              for frame in (frame_a, frame_b)]
    if not _classes_split(sweeps, corpus_depth, selected):
        return []
    return _formula_disagreements(sweeps, corpus_depth, selected)


def _fingerprint(values: tuple[tuple[int, ...], ...]) -> int:
    """The bucket key of a semantic class in _semantic_classes: the hash of
    one of its ints, its value at the first sweep's first world.  On the
    bubble fixtures that world is the root, which reaches every other, and
    at depth 8 the 8,130 classes fall into 8,121 buckets.  Equal classes
    have equal keys, and the comparison within a bucket is exact, so a
    shared key costs time, never a class."""
    return hash(values[0][0])


def _semantic_classes(
    sweeps: Sequence[FrameSweep], depth: int
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Each semantic class of the one-variable corpus up to `depth`
    connectives once, at the least depth that has it: per sweep, the
    per-world values its formulas share.

    Formulas of one class can replace each other as subformulas, so level d
    applies ~, @ and [] to the classes new at level d-1 and & to those new
    at levels i and d-1-i, and keeps what no class already has.  & is
    commutative and idempotent, so it takes only i <= d-1-i, and when the
    two levels are one, pairs each class only with those after it.

    Classes are bucketed by `_fingerprint` and compared exactly within a
    bucket.  A class new at level `depth` feeds no later level, so it is
    not kept: its bucket holds its recipe, the operator and the kept
    classes it applies to, which is rebuilt only when a later candidate
    lands in that bucket.  MAX_SEMANTIC_CLASSES bounds the classes kept.
    """
    def recipes(d: int) -> Iterator[tuple]:
        for x in levels[d - 1]:
            for op in (NOT, BALL, BOX):
                yield op, x
        for i in range((d + 1) // 2):
            right = levels[d - 1 - i]
            for k, x in enumerate(levels[i]):
                for y in right[k + 1:] if i == d - 1 - i else right:
                    yield AND, x, y

    def build(recipe: tuple) -> tuple[tuple[int, ...], ...]:
        op, *operands = recipe
        return tuple(tuple(sweep.apply(op, *values)) for sweep, *values in zip(sweeps, *operands))

    p = tuple(tuple(sweep.apply(VAR, "p")) for sweep in sweeps)
    buckets = {_fingerprint(p): [p]}
    levels = [[p]]
    kept = 1
    yield p
    for d in range(1, depth + 1):
        new = []
        for recipe in recipes(d):
            c = build(recipe)
            bucket = buckets.setdefault(_fingerprint(c), [])
            # A recipe starts with its opcode, a kept class with a sweep's values.
            if any(c == (build(m) if isinstance(m[0], int) else m) for m in bucket):
                continue
            if d == depth:
                bucket.append(recipe)
            else:
                if kept == MAX_SEMANTIC_CLASSES:
                    raise ResourceBudgetExceeded(
                        f"more than {MAX_SEMANTIC_CLASSES} semantic classes at corpus depth {d}"
                    )
                kept += 1
                bucket.append(c)
                new.append(c)
            yield c
        levels.append(new)


def _classes_split(
    sweeps: Sequence[FrameSweep], depth: int, selected: tuple[Ultrafilter, ...]
) -> bool:
    """Whether some class is valid on one sweep's frame but not the other's
    under a selected ultrafilter."""
    for values in _semantic_classes(sweeps, depth):
        valid = [[mask == sweep.ones_mask for mask in sweep.valid_masks_of(v, selected)]
                 for sweep, v in zip(sweeps, values)]
        if any(verdicts != valid[0] for verdicts in valid):
            return True
    return False


def _formula_disagreements(
    sweeps: Sequence[FrameSweep], corpus_depth: int, selected: tuple[Ultrafilter, ...]
) -> list[tuple[str, str, bool, bool]]:
    """_disagreements by checking every corpus formula on both sweeps."""
    rows = []
    for f in syntax.generate_corpus(["p"], corpus_depth):
        program = compile_formula(f)
        valid_a, valid_b = (
            [mask == sweep.ones_mask
             for mask in sweep.valid_masks_of(sweep.values(program), selected)]
            for sweep in sweeps)
        rows.extend((syntax.format_formula(f), u.name, a, b)
                    for u, a, b in zip(selected, valid_a, valid_b) if a != b)
    return rows
