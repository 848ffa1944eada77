"""Frame properties, exhaustive frame enumeration, the correspondence
harness that tests "valid on F iff F has property P" over all small frames,
and the chunked scan behind kripke.countermodel_search.

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
import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations, product
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import kripke, syntax
from .algebra import Ultrafilter
from ._sweep import (
    DEFAULT_MAX_VALUATIONS,
    FrameSweep,
    RelationChunk,
    ResourceBudgetExceeded,
    compile_formula,
    relation_bit_pattern,
    relation_chunk_width,
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
            third = ({"A", "B", "C"} - {labels[w], labels[u]}).pop()
            yield (w, u), _edge(n, w, u), sum(
                _edge(n, w, v) for v in range(n) if labels[v] == third
            )


def _tte(n: int, labels: tuple[str, ...]) -> Iterator[Clause]:
    return _two_step(n, lambda w, u, v: labels[w] == labels[u] == labels[v])


def _ttd(n: int, labels: tuple[str, ...]) -> Iterator[Clause]:
    return _two_step(n, lambda w, u, v: labels[w] != labels[u] == labels[v])


@lru_cache(maxsize=1024)
def _clause_table(clauses: Callable, n: int, labels: tuple[str, ...]) -> tuple[Clause, ...]:
    """The clauses that can fail: none that forbids an edge it requires."""
    return tuple(c for c in clauses(n, labels) if not c[1] & c[2])


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class ClauseViolation:
    """The violation finder of a property given by clauses: the witness of
    the first clause, in world order, that fails on the frame."""

    clauses: Callable[[int, tuple[str, ...]], Iterable[Clause]]

    def __call__(self, frame: Frame) -> tuple | None:
        worlds = frame.worlds
        labels = tuple(frame.lattice_of[w] for w in worlds)
        return _first_violation(self.clauses, worlds, labels, _relation_bits(frame))


def _first_violation(
    clauses: Callable, worlds: tuple[str, ...], labels: tuple[str, ...], bits: int
) -> tuple | None:
    for witness, required, forbidden in _clause_table(clauses, len(worlds), labels):
        if bits & required == required and not bits & forbidden:
            return tuple(worlds[i] for i in witness)
    return None


@dataclass(frozen=True)
class FrameProperty:
    """A named frame property, given by its violation finder.

    A finder carrying a `clauses` attribute, as ClauseViolation does (and
    any wrapper made with functools.wraps around it), is also checked on
    relation bitmasks: `relation_mask` answers for a whole chunk of relations
    at once.  Any other finder is called frame by frame.
    """

    name: str
    violation: Callable[[Frame], tuple | None]

    def holds(self, frame: Frame) -> bool:
        return self.violation(frame) is None

    def _violation_at(
        self, worlds: tuple[str, ...], labels: tuple[str, ...], bits: int
    ) -> tuple | None:
        """The violation on the labelled worlds with the relation bitmask,
        read off the clauses when the finder has them."""
        clauses = getattr(self.violation, "clauses", None)
        if clauses is None:
            return self.violation(_frame_from_bits(worlds, labels, bits))
        return _first_violation(clauses, worlds, labels, bits)

    def relation_mask(
        self, worlds: tuple[str, ...], labels: tuple[str, ...], relations: range
    ) -> int:
        """Bit r set iff the frame on the labelled worlds whose relation
        bitmask is relations[r] has the property; `relations` is aligned as
        for a RelationChunk."""
        count = len(relations)
        every = (1 << count) - 1
        clauses = getattr(self.violation, "clauses", None)
        if clauses is None:
            return sum(
                1 << r
                for r, bits in enumerate(relations)
                if self.holds(_frame_from_bits(worlds, labels, bits))
            )
        n = len(worlds)
        edges = [
            relation_bit_pattern(k, 1, count) if 1 << k < count
            else every if relations.start >> k & 1 else 0
            for k in range(n * n)
        ]
        failing = 0
        for _, required, forbidden in _clause_table(clauses, n, labels):
            fails = every
            for k in _bits(required):
                fails &= edges[k]
            for k in _bits(forbidden):
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


def _relation_bits(frame: Frame) -> int:
    index = {w: i for i, w in enumerate(frame.worlds)}
    n = len(frame.worlds)
    bits = 0
    for a, b in frame.relation:
        bits |= 1 << (index[a] * n + index[b])
    return bits


def frame_encoding(frame: Frame) -> str:
    """Compact canonical id "<worlds>:<relation bits>:<labels>"."""
    labels = "".join(frame.lattice_of[w] for w in frame.worlds)
    return f"{len(frame.worlds)}:{_relation_bits(frame)}:{labels}"


def _canonical_key(n: int, bits: int, labels: tuple[str, ...]) -> tuple[int, tuple[str, ...]]:
    """Least (bits, labels) over simultaneous world permutations."""
    best: tuple[int, tuple[str, ...]] | None = None
    for perm in permutations(range(n)):
        permuted_bits = 0
        for i in range(n):
            for j in range(n):
                if bits >> (i * n + j) & 1:
                    permuted_bits |= 1 << (perm[i] * n + perm[j])
        permuted_labels = [""] * n
        for i in range(n):
            permuted_labels[perm[i]] = labels[i]
        key = (permuted_bits, tuple(permuted_labels))
        if best is None or key < best:
            best = key
    assert best is not None
    return best


def enumerate_frames(n: int, reduce_isomorphism: bool = False) -> Iterator[Frame]:
    """All frames on n labeled worlds in canonical order.

    With reduce_isomorphism=True only the least representative of each orbit
    under world permutations is produced.
    """
    if n < 1:
        raise ValueError("world count must be >= 1")
    worlds = _world_names(n)
    for bits in range(1 << (n * n)):
        relation = _relation_from_bits(worlds, bits)
        for labels in product("ABC", repeat=n):
            if reduce_isomorphism and _canonical_key(n, bits, labels) != (bits, labels):
                continue
            yield Frame(worlds, relation, dict(zip(worlds, labels)))


def count_frames(n: int) -> int:
    """2**(n*n) relations times 3**n labelings."""
    return (1 << (n * n)) * 3 ** n


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


def _direction(witness: int | tuple) -> str:
    return "property_without_valid" if isinstance(witness, int) else "valid_without_property"


class _Labelled(NamedTuple):
    """What kripke.frame_to_dict reads of a frame."""

    worlds: tuple[str, ...]
    relation: frozenset[tuple[str, str]]
    lattice_of: dict[str, str]


def _csv_cell(text: str) -> str:
    if any(c in text for c in ",\"\n"):
        return '"' + text.replace('"', '""') + '"'
    return text


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
        n, bits, labels, u, witness = self._rows[i]
        worlds = _world_names(n)
        frame = _frame_from_bits(worlds, labels, bits)
        direction = _direction(witness)
        if isinstance(witness, int):
            witness = Model(frame, valuation_at(worlds, labels, self._variables, witness), u)
        return Mismatch(frame, u, direction, witness)


@dataclass
class CorrespondenceReport:
    property_name: str
    formula: str
    max_worlds: int
    ultrafilters: tuple[str, ...]
    frames_checked: int
    variables: tuple[str, ...] = ()
    rows: list[Row] = field(default_factory=list)  # in report order

    @property
    def mismatches(self) -> Sequence[Mismatch]:
        return _Mismatches(self.rows, self.variables)

    @property
    def clean(self) -> bool:
        return not self.rows

    def directions(self) -> set[str]:
        return {_direction(row[4]) for row in self.rows}

    def csv_rows(self) -> Iterator[str]:
        """The lines of `correspond --csv` after its header, one per
        mismatch, formatted from the rows.  A countermodel is the CSV cell of
        json.dumps(kripke.model_to_dict(model)), put together from the JSON
        of its frame's fields and of its valuation's, each quoted for CSV
        once.  A frame's rows are adjacent, so only the last frame's JSON
        is kept; valuations recur across frames and are cached for this
        call."""
        frame_key = frame_part = None
        valuation_parts: dict[tuple[str, int, str], str] = {}
        for n, bits, labels, u, witness in self.rows:
            name = u.name
            head = f"{n}:{bits}:{labels};U={name}"
            if not isinstance(witness, int):
                yield f"{head},false,true,{_csv_cell('violation at ' + ','.join(witness))}"
                continue
            worlds = _world_names(n)
            if frame_key != (n, bits, labels):
                frame_key = (n, bits, labels)
                frame = _Labelled(worlds, _relation_from_bits(worlds, bits),
                                  dict(zip(worlds, labels)))
                frame_part = json.dumps(kripke.frame_to_dict(frame))[:-1].replace('"', '""')
            valuation_part = valuation_parts.get((labels, witness, name))
            if valuation_part is None:
                valuation = valuation_at(worlds, labels, self.variables, witness)
                valuation_part = json.dumps(_valuation_doc(valuation, u))[1:].replace('"', '""')
                valuation_parts[labels, witness, name] = valuation_part
            yield f'{head},true,false,"{frame_part}, {valuation_part}"'


def _correspondence_chunk(job: tuple) -> tuple[int, list[Row]]:
    """Check every frame on n worlds whose relation lies in the job's range:
    one packed sweep per labelling and chunk of relations, with validity and
    the property reduced to one bit per relation.  A mismatch is a row; no
    Frame is built unless the property has no clauses."""
    prop, program, var_names, n, relations, selected, max_valuations, deadline = job
    worlds = _world_names(n)
    width = min(len(relations), relation_chunk_width(n, len(var_names)))
    checked = 0
    rows: list[Row] = []
    for labels in product("ABC", repeat=n):
        text = "".join(labels)
        for lo in range(relations.start, relations.stop, width):
            if deadline is not None and time.monotonic() > deadline:
                raise ResourceBudgetExceeded("time budget exhausted")
            chunk = range(lo, lo + width)
            checked += width
            holds = prop.relation_mask(worlds, labels, chunk)
            sweep = FrameSweep(RelationChunk(worlds, labels, chunk), var_names,
                               max_valuations=max_valuations)
            for u in selected:
                invalid = sweep.valid_mask(program, u) ^ sweep.ones_mask
                valid = ((1 << width) - 1) ^ sweep.relations_meeting(invalid)
                for r in _bits(valid ^ holds):
                    if holds >> r & 1:
                        witness = sweep.lowest_index(invalid, r)
                    else:
                        witness = prop._violation_at(worlds, labels, lo + r)
                    rows.append((n, lo + r, text, u, witness))
    return checked, rows


def _recheck(report: CorrespondenceReport, prop: FrameProperty, formula: Formula) -> None:
    """Replay the first mismatch of each direction and ultrafilter on the
    definitional side: the countermodel on kripke.first_failing_world, the
    violation on the property's own finder."""
    seen: set[tuple[str, str]] = set()
    mismatches = report.mismatches
    for i, (_, _, _, u, witness) in enumerate(report.rows):
        key = (_direction(witness), u.name)
        if key in seen:
            continue
        seen.add(key)
        m = mismatches[i]
        if isinstance(witness, int):
            agree = (prop.holds(m.frame)
                     and kripke.first_failing_world(m.witness, formula) is not None)
        else:
            agree = prop.violation(m.frame) == witness
        if not agree:
            raise AssertionError("sweep and definitional evaluator disagree")
        if len(seen) == 2 * len(report.ultrafilters):
            return


def correspondence_check(
    prop: FrameProperty | str,
    formula: Formula | str,
    max_worlds: int,
    ultrafilters: str | Ultrafilter | Iterable[Ultrafilter] = "all",
    max_valuations: int | None = DEFAULT_MAX_VALUATIONS,
    max_frames: int | None = None,
    time_budget: float | None = None,
    workers: int = 1,
) -> CorrespondenceReport:
    """Exhaustively compare frame validity of the formula against the
    property over every frame with up to max_worlds worlds.

    A mismatch is recorded per (frame, ultrafilter) whenever exactly one of
    "the formula is frame-valid" and "the frame has the property" holds; the
    witness is a countermodel in the property-without-validity direction and
    a property violation in the other.  Mismatches are reported sorted by
    world count, then the frame encoding as a string, then ultrafilter.  The
    report keeps them as rows and builds each Mismatch when read; the first
    of each direction and ultrafilter is re-checked here.

    The frames are split into jobs of relation bitmasks, checked in this
    process when workers == 1 and across a process pool otherwise; both
    honour the frame and time budgets.  A job sweeps each labelling over
    chunks of relations packed into one operand (see _sweep), so the
    witness of a property-without-validity mismatch is the canonically
    first countermodel on its frame, as a per-frame sweep would find it.  A
    property not in PROPERTIES always runs in this process.
    """
    if isinstance(prop, str):
        prop = PROPERTIES[prop]
    if isinstance(formula, str):
        formula = syntax.parse(formula)
    if max_worlds < 1:
        raise ValueError("max_worlds must be >= 1")
    selected = _resolve_ultrafilters(ultrafilters)
    if max_frames is not None and sum(
        count_frames(n) for n in range(1, max_worlds + 1)
    ) > max_frames:
        raise ResourceBudgetExceeded(f"frame budget of {max_frames} exhausted")
    deadline = None if time_budget is None else time.monotonic() + time_budget

    report = CorrespondenceReport(
        property_name=prop.name,
        formula=syntax.format_formula(formula),
        max_worlds=max_worlds,
        ultrafilters=tuple(u.name for u in selected),
        frames_checked=0,
        variables=syntax.variables(formula),
    )
    program = compile_formula(formula)

    jobs = []
    for n in range(1, max_worlds + 1):
        total_bits = 1 << (n * n)
        step = 1 << (max(1, total_bits // (workers * 4)).bit_length() - 1)
        for lo in range(0, total_bits, step):
            jobs.append((prop, program, report.variables, n,
                         range(lo, min(lo + step, total_bits)), selected, max_valuations, deadline))

    if workers > 1 and prop in PROPERTIES.values():
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_correspondence_chunk, jobs))
    else:
        results = map(_correspondence_chunk, jobs)
    for checked, rows in results:
        report.frames_checked += checked
        report.rows.extend(rows)
    # The frame encoding sorts as a string: "2:10:AB" before "2:1:AB".
    report.rows.sort(key=lambda row: (row[0], f"{row[0]}:{row[1]}:{row[2]}", row[3].name))
    _recheck(report, prop, formula)
    return report


# ---------------------------------------------------------------------------
# Countermodel search
# ---------------------------------------------------------------------------


def _search_chunks(n: int, variables: int) -> Iterator[range]:
    """Aligned ranges over every relation on n worlds, 1, 1, 2, 4, ... wide up
    to relation_chunk_width, so that an early hit stays cheap."""
    width, lo = relation_chunk_width(n, variables), 0
    while lo < 1 << (n * n):
        step = min(width, max(1, lo))
        yield range(lo, lo + step)
        lo += step


def _countermodel_scan(
    premises: tuple[Formula, ...],
    goal: Formula,
    max_worlds: int,
    selected: tuple[Ultrafilter, ...],
    frame_filter: FrameProperty | Callable[[Frame], bool] | None,
    max_valuations: int | None,
    max_frames: int | None,
) -> Model | None:
    """kripke.countermodel_search over relation chunks: per chunk, one sweep
    per labelling with a frame passing the filter, reduced to one mask of
    relations per ultrafilter.  The lowest relation wins, then the labelling,
    the ultrafilter and `lowest_index`, as frame by frame; max_frames counts
    the frames passing the filter up to the hit's by popcount."""
    if getattr(frame_filter, "__func__", None) is FrameProperty.holds:
        frame_filter = frame_filter.__self__  # a bound `holds`, as the is_* aliases are
    if frame_filter is not None and not isinstance(frame_filter, FrameProperty):
        predicate = frame_filter
        frame_filter = FrameProperty("filter", lambda frame: None if predicate(frame) else ())
    var_names = tuple(sorted(set().union(*(syntax.variables(g) for g in premises + (goal,)))))
    premise_programs = [compile_formula(p) for p in premises]
    goal_program = compile_formula(goal)
    seen = 0
    for n in range(1, max_worlds + 1):
        worlds = _world_names(n)
        labellings = list(product("ABC", repeat=n))
        for chunk in _search_chunks(n, len(var_names)):
            below = (1 << len(chunk)) - 1  # the relations a hit must be below
            passing = [below if frame_filter is None
                       else frame_filter.relation_mask(worlds, labels, chunk)
                       for labels in labellings]
            hit = None
            # With the budget spent, any frame passing the filter here is over it.
            for i, allowed in enumerate(passing if max_frames is None or seen < max_frames else ()):
                if not allowed & below:
                    continue
                sweep = FrameSweep(RelationChunk(worlds, labellings[i], chunk), var_names,
                                   max_valuations=max_valuations)
                for u in selected:
                    if not allowed & below:
                        break
                    bad = sweep.countermodel_mask(premise_programs, goal_program, u)
                    hits = bad and sweep.relations_meeting(bad) & allowed & below
                    if hits:
                        r = (hits & -hits).bit_length() - 1
                        hit, below = (r, i, u, bad, sweep), (1 << r) - 1
            seen += sum((mask & below).bit_count() for mask in passing)
            if hit is not None:
                r, i, u, bad, sweep = hit
                seen += sum(mask >> r & 1 for mask in passing[:i + 1])
            if max_frames is not None and seen > max_frames:
                raise ResourceBudgetExceeded(f"frame budget of {max_frames} exhausted")
            if hit is not None:
                frame = _frame_from_bits(worlds, labellings[i], chunk.start + r)
                return Model(frame, sweep.decode_valuation(sweep.lowest_index(bad, r)), u)
    return None


# ---------------------------------------------------------------------------
# Fixture frames
# ---------------------------------------------------------------------------


def euclidean_triangle(labels: tuple[str, str, str] = ("B", "B", "A")) -> Frame:
    """Three worlds with the total relation (self-loops included).

    The default labels put the two observer worlds in a lattice whose
    designated middle element is a coatom under the default ultrafilter,
    which is what makes the diamond-box countermodel go through.
    """
    worlds = ("w", "u", "v")
    relation = frozenset((a, b) for a in worlds for b in worlds)
    return Frame(worlds, relation, dict(zip(worlds, labels)))


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
    corpus_depth: int
    formulas_checked: int
    ultrafilters: tuple[str, ...]
    disagreements: list[tuple[str, str, bool, bool]] = field(default_factory=list)

    @property
    def agree(self) -> bool:
        return not self.disagreements


def indiscernibility_check(
    corpus_depth: int = 3,
    ultrafilters: str | Ultrafilter | Iterable[Ultrafilter] = "all",
    max_valuations: int | None = DEFAULT_MAX_VALUATIONS,
) -> IndiscernibilityReport:
    """Compare frame validity on soob_F and soob_Fprime over the bounded
    one-variable corpus; agreement on all of it shows no such formula can
    tell super-out-of-the-bubble apart from its failure."""
    named = fixtures()
    frame_a, frame_b = named["soob_F"], named["soob_Fprime"]
    selected = _resolve_ultrafilters(ultrafilters)
    corpus = syntax.generate_corpus(["p"], corpus_depth)
    sweep_a = FrameSweep(frame_a, ("p",), max_valuations=max_valuations)
    sweep_b = FrameSweep(frame_b, ("p",), max_valuations=max_valuations)
    report = IndiscernibilityReport(
        corpus_depth=corpus_depth,
        formulas_checked=len(corpus),
        ultrafilters=tuple(u.name for u in selected),
    )
    for f in corpus:
        program = compile_formula(f)
        for u in selected:
            valid_a = sweep_a.is_frame_valid(program, u)
            valid_b = sweep_b.is_frame_valid(program, u)
            if valid_a != valid_b:
                report.disagreements.append(
                    (syntax.format_formula(f), u.name, valid_a, valid_b)
                )
    return report
