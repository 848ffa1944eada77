"""Frame properties, exhaustive frame enumeration, and the correspondence
harness that tests "valid on F iff F has property P" over all small frames.

Frames on n labeled worlds are enumerated canonically: relations as n*n-bit
masks (bit i*n+j set meaning world i reaches world j) in increasing numeric
order, and for each relation every lattice labeling in lexicographic order
over the labels A < B < C.  That yields 2**(n*n) * 3**n frames per world
count.  An optional reduction keeps only the least frame of each orbit under
simultaneous world permutations.

Besides the five textbook relational properties, the lattice labels support
properties of their own: a world is "out of the bubble" when having any
successor forces a successor in a different lattice, "super out of the
bubble" additionally forces a successor in the third lattice, and the two
restricted transitivities close two-step paths whose lattice labels agree or
split in a fixed pattern.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import permutations, product
from typing import Callable, Iterable, Iterator

from . import syntax
from .algebra import Ultrafilter
from ._sweep import (
    DEFAULT_MAX_VALUATIONS,
    FrameSweep,
    ResourceBudgetExceeded,
    compile_formula,
)
from .kripke import Frame, Model, _resolve_ultrafilters
from .syntax import Formula

__all__ = [
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
# Property predicates, each with a witness finder for its violations
# ---------------------------------------------------------------------------


def _reflexive_violation(f: Frame) -> tuple | None:
    for w in f.worlds:
        if (w, w) not in f.relation:
            return (w,)
    return None


def _serial_violation(f: Frame) -> tuple | None:
    for w in f.worlds:
        if not any((w, u) in f.relation for u in f.worlds):
            return (w,)
    return None


def _symmetric_violation(f: Frame) -> tuple | None:
    for w, u in f.relation:
        if (u, w) not in f.relation:
            return (w, u)
    return None


def _transitive_violation(f: Frame) -> tuple | None:
    for w, u in f.relation:
        for v in f.worlds:
            if (u, v) in f.relation and (w, v) not in f.relation:
                return (w, u, v)
    return None


def _euclidean_violation(f: Frame) -> tuple | None:
    for w in f.worlds:
        for u in f.worlds:
            if (w, u) not in f.relation:
                continue
            for v in f.worlds:
                if (w, v) in f.relation and (u, v) not in f.relation:
                    return (w, u, v)
    return None


def _out_of_bubble_violation(f: Frame) -> tuple | None:
    for w in f.worlds:
        succ = f.successors(w)
        if not succ:
            continue
        if not any(f.lattice_of[u] != f.lattice_of[w] for u in succ):
            return (w,)
    return None


def _super_out_of_bubble_violation(f: Frame) -> tuple | None:
    bad = _out_of_bubble_violation(f)
    if bad is not None:
        return bad
    for w, u in f.relation:
        if f.lattice_of[w] == f.lattice_of[u]:
            continue
        third = {"A", "B", "C"} - {f.lattice_of[w], f.lattice_of[u]}
        if not any(
            f.lattice_of[v] in third for v in f.successors(w)
        ):
            return (w, u)
    return None


def _tte_violation(f: Frame) -> tuple | None:
    for w, u in f.relation:
        if f.lattice_of[w] != f.lattice_of[u]:
            continue
        for v in f.worlds:
            if (
                (u, v) in f.relation
                and f.lattice_of[v] == f.lattice_of[w]
                and (w, v) not in f.relation
            ):
                return (w, u, v)
    return None


def _ttd_violation(f: Frame) -> tuple | None:
    for w, u in f.relation:
        if f.lattice_of[w] == f.lattice_of[u]:
            continue
        for v in f.worlds:
            if (
                (u, v) in f.relation
                and f.lattice_of[v] == f.lattice_of[u]
                and (w, v) not in f.relation
            ):
                return (w, u, v)
    return None


@dataclass(frozen=True)
class FrameProperty:
    name: str
    violation: Callable[[Frame], tuple | None]

    def holds(self, frame: Frame) -> bool:
        return self.violation(frame) is None


PROPERTIES: dict[str, FrameProperty] = {
    p.name: p
    for p in (
        FrameProperty("reflexive", _reflexive_violation),
        FrameProperty("serial", _serial_violation),
        FrameProperty("symmetric", _symmetric_violation),
        FrameProperty("transitive", _transitive_violation),
        FrameProperty("euclidean", _euclidean_violation),
        FrameProperty("out_of_bubble", _out_of_bubble_violation),
        FrameProperty("super_out_of_bubble", _super_out_of_bubble_violation),
        FrameProperty("transitive_through_equality", _tte_violation),
        FrameProperty("transitive_through_difference", _ttd_violation),
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


def _world_names(n: int) -> tuple[str, ...]:
    return tuple(f"w{i + 1}" for i in range(n))


def _relation_from_bits(worlds: tuple[str, ...], bits: int) -> frozenset[tuple[str, str]]:
    n = len(worlds)
    return frozenset(
        (worlds[i], worlds[j])
        for i in range(n)
        for j in range(n)
        if bits >> (i * n + j) & 1
    )


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


def enumerate_frames(
    n: int, reduce_isomorphism: bool = False, relations: range | None = None
) -> Iterator[Frame]:
    """All frames on n labeled worlds in canonical order.

    With reduce_isomorphism=True only the least representative of each orbit
    under world permutations is produced.  `relations` restricts the
    enumeration to a range of relation bitmasks (default: all of them).
    """
    if n < 1:
        raise ValueError("world count must be >= 1")
    worlds = _world_names(n)
    for bits in range(1 << (n * n)) if relations is None else relations:
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


@dataclass
class CorrespondenceReport:
    property_name: str
    formula: str
    max_worlds: int
    ultrafilters: tuple[str, ...]
    frames_checked: int
    mismatches: list[Mismatch] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.mismatches

    def directions(self) -> set[str]:
        return {m.direction for m in self.mismatches}


def _correspondence_chunk(job: tuple) -> tuple[int, list[Mismatch]]:
    """Check every frame on n worlds whose relation lies in the job's range."""
    prop, formula, n, relations, selected, max_valuations, deadline = job
    var_names = syntax.variables(formula)
    program = compile_formula(formula)
    checked = 0
    found: list[Mismatch] = []
    for frame in enumerate_frames(n, relations=relations):
        if deadline is not None and time.monotonic() > deadline:
            raise ResourceBudgetExceeded("time budget exhausted")
        checked += 1
        has_property = prop.holds(frame)
        sweep = FrameSweep(frame, var_names, max_valuations=max_valuations)
        for u in selected:
            index = sweep.first_invalid_index(program, u)
            if index is None and not has_property:
                found.append(
                    Mismatch(frame, u, "valid_without_property", prop.violation(frame))
                )
            elif index is not None and has_property:
                counter = Model(frame, sweep.decode_valuation(index), u)
                found.append(Mismatch(frame, u, "property_without_valid", counter))
    return checked, found


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
    the canonical frame encoding.

    The frames are split into chunks of relation bitmasks, checked in this
    process when workers == 1 and across a process pool otherwise; both
    honour the frame and time budgets.  A property not in PROPERTIES always
    runs in this process.
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
    )

    jobs = []
    for n in range(1, max_worlds + 1):
        total_bits = 1 << (n * n)
        step = max(1, total_bits // (workers * 4))
        for lo in range(0, total_bits, step):
            jobs.append((prop, formula, n, range(lo, min(lo + step, total_bits)),
                         selected, max_valuations, deadline))

    if workers > 1 and prop in PROPERTIES.values():
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_correspondence_chunk, jobs))
    else:
        results = map(_correspondence_chunk, jobs)
    for checked, found in results:
        report.frames_checked += checked
        report.mismatches.extend(found)

    report.mismatches.sort(
        key=lambda m: (len(m.frame.worlds), frame_encoding(m.frame), m.ultrafilter.name)
    )
    return report


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
