"""Many-logics modal frames and models over B8.

A frame is a finite set of worlds, an accessibility relation, and a lattice
label (A, B or C) per world naming which four-valued subalgebra that world
evaluates in.  A model adds a valuation assigning every (world, variable)
pair an element of the world's carrier, plus the ultrafilter fixing the
designated values.

Evaluation follows the recursive clauses: the Boolean connectives and ball
apply the B8 operations followed by down-interpretation into the home
carrier (the interpretation is the identity there, but it is part of the
definition and applied regardless); box takes the meet over all successors of
the down-interpretation of the successor's value; diamond is the complement
of box-not; box-same restricts to same-lattice successors without
down-interpretation, box-diff to different-lattice successors with it.
Empty successor sets give the top element, the infimum of nothing.

A formula holds at a world when its value lies in the ultrafilter.  The
derived notions are truth at every world of a model, validity over every
model on a frame, and a bounded search for models refuting a global
consequence.  `classical_reference_eval` is a deliberately independent
textbook two-valued Kripke evaluator used as an oracle against the above on
the modal-classical fragment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from . import algebra, syntax
from .algebra import (
    BOT,
    DEFAULT_ULTRAFILTER,
    TOP,
    Ultrafilter,
    ULTRAFILTERS,
    carrier,
    down_interp,
    element_from_name,
    element_name,
    is_designated,
)
from ._sweep import DEFAULT_MAX_VALUATIONS, FrameSweep, ResourceBudgetExceeded
from .syntax import Formula

if TYPE_CHECKING:  # pragma: no cover
    from .frames import FrameProperty

__all__ = [
    "Frame",
    "Model",
    "UnknownWorldError",
    "UnknownVariableError",
    "FragmentError",
    "ResourceBudgetExceeded",
    "eval_formula",
    "satisfies",
    "first_failing_world",
    "model_valid",
    "frame_valid",
    "find_frame_countermodel",
    "countermodel_search",
    "classical_reference_eval",
    "frame_to_dict",
    "frame_from_dict",
    "model_to_dict",
    "model_from_dict",
]


class UnknownWorldError(ValueError):
    pass


class UnknownVariableError(ValueError):
    pass


class FragmentError(ValueError):
    """Formula outside the fragment an operation supports."""


@dataclass
class Frame:
    """Worlds with lattice labels and an accessibility relation."""

    worlds: tuple[str, ...]
    relation: frozenset[tuple[str, str]]
    lattice_of: dict[str, str]

    def __post_init__(self) -> None:
        self.worlds = tuple(self.worlds)
        self.relation = frozenset(self.relation)
        self.lattice_of = dict(self.lattice_of)
        if not self.worlds:
            raise ValueError("a frame needs at least one world")
        if len(set(self.worlds)) != len(self.worlds):
            raise ValueError("duplicate world names")
        world_set = set(self.worlds)
        for pair in self.relation:
            if pair[0] not in world_set or pair[1] not in world_set:
                raise ValueError(f"relation mentions unknown world in {pair!r}")
        for w in self.worlds:
            label = self.lattice_of.get(w)
            if label not in algebra.LATTICE_LABELS:
                raise ValueError(f"world {w!r} has no valid lattice label")
        if len(self.lattice_of) != len(self.worlds):
            extra = sorted(set(self.lattice_of) - world_set, key=str)
            raise ValueError(f"lattice label for unknown world {extra[0]!r}")

    def successors(self, world: str) -> tuple[str, ...]:
        if world not in self.lattice_of:
            raise UnknownWorldError(world)
        return tuple(v for v in self.worlds if (world, v) in self.relation)


@dataclass
class Model:
    """A frame, one carrier element per (world, variable), and the
    ultrafilter of designated values."""

    frame: Frame
    valuation: dict[tuple[str, str], int]
    ultrafilter: Ultrafilter = DEFAULT_ULTRAFILTER

    def __post_init__(self) -> None:
        for (world, var), value in self.valuation.items():
            if world not in self.frame.lattice_of:
                raise UnknownWorldError(world)
            label = self.frame.lattice_of[world]
            if value not in carrier(label):
                raise ValueError(
                    f"value {element_name(value)} for {var!r} at {world!r} "
                    f"lies outside carrier {label}"
                )

    def value(self, world: str, var: str) -> int:
        if world not in self.frame.lattice_of:
            raise UnknownWorldError(world)
        try:
            return self.valuation[(world, var)]
        except KeyError:
            raise UnknownVariableError(
                f"no value for variable {var!r} at world {world!r}"
            ) from None

    def variables(self) -> tuple[str, ...]:
        return tuple(sorted({var for _, var in self.valuation}))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def eval_formula(model: Model, world: str, f: Formula) -> int:
    """Value of f at a world, an element of the world's carrier.

    Each (subformula, world) pair is evaluated once per call, keyed by the
    subformula's identity, so a formula whose subformulas are shared, as
    those of `<->` are, costs time in its distinct nodes, not its tree.
    """
    memo: dict[tuple[int, str], tuple[Formula, int]] = {}  # the node keeps its id alive

    def value(world: str, f: Formula) -> int:
        key = (id(f), world)
        known = memo.get(key)
        if known is not None:
            return known[1]
        label = model.frame.lattice_of.get(world)
        if label is None:
            raise UnknownWorldError(world)
        if isinstance(f, syntax.Var):
            result = model.value(world, f.name)
        elif isinstance(f, syntax.Top):
            result = TOP
        elif isinstance(f, syntax.Bot):
            result = BOT
        elif isinstance(f, syntax.Not):
            result = down_interp(algebra.complement(value(world, f.sub)), label)
        elif isinstance(f, syntax.And):
            result = down_interp(algebra.meet(value(world, f.left), value(world, f.right)), label)
        elif isinstance(f, syntax.Or):
            result = down_interp(algebra.join(value(world, f.left), value(world, f.right)), label)
        elif isinstance(f, syntax.Ball):
            result = down_interp(algebra.ball(value(world, f.sub)), label)
        elif isinstance(f, syntax.Box):
            result = TOP
            for u in model.frame.successors(world):
                result = algebra.meet(result, down_interp(value(u, f.sub), label))
        elif isinstance(f, syntax.Diamond):
            boxed = value(world, syntax.Box(syntax.Not(f.sub)))
            result = down_interp(algebra.complement(boxed), label)
        elif isinstance(f, syntax.BoxSame):
            result = TOP
            for u in model.frame.successors(world):
                if model.frame.lattice_of[u] == label:
                    result = algebra.meet(result, value(u, f.sub))
        elif isinstance(f, syntax.BoxDiff):
            result = TOP
            for u in model.frame.successors(world):
                if model.frame.lattice_of[u] != label:
                    result = algebra.meet(result, down_interp(value(u, f.sub), label))
        else:
            raise TypeError(f"not a formula: {f!r}")
        memo[key] = (f, result)
        return result

    return value(world, f)


def satisfies(model: Model, world: str, f: Formula) -> bool:
    """Whether f's value at the world is designated."""
    return is_designated(eval_formula(model, world, f), model.ultrafilter)


def first_failing_world(model: Model, f: Formula) -> str | None:
    for world in model.frame.worlds:
        if not satisfies(model, world, f):
            return world
    return None


def model_valid(model: Model, f: Formula) -> bool:
    """Whether f holds at every world of the model."""
    return first_failing_world(model, f) is None


# ---------------------------------------------------------------------------
# Frame validity and countermodel search
# ---------------------------------------------------------------------------


def find_frame_countermodel(
    frame: Frame,
    f: Formula,
    ultrafilter: Ultrafilter = DEFAULT_ULTRAFILTER,
    max_valuations: int | None = DEFAULT_MAX_VALUATIONS,
) -> Model | None:
    """The canonically first model on the frame falsifying f somewhere,
    or None when f is valid on the frame.

    Every variable of f independently ranges over each world's four carrier
    values, so the sweep covers 4 ** (worlds * variables) models.
    """
    sweep = FrameSweep(frame, syntax.variables(f), max_valuations=max_valuations)
    index = sweep.first_invalid_index(f, ultrafilter)
    if index is None:
        return None
    model = Model(frame, sweep.decode_valuation(index), ultrafilter)
    if first_failing_world(model, f) is None:
        raise AssertionError("sweep and definitional evaluator disagree")
    return model


def frame_valid(
    frame: Frame,
    f: Formula,
    ultrafilter: Ultrafilter = DEFAULT_ULTRAFILTER,
    max_valuations: int | None = DEFAULT_MAX_VALUATIONS,
) -> bool:
    """Whether f holds in every model based on the frame."""
    return find_frame_countermodel(frame, f, ultrafilter, max_valuations) is None


def _resolve_ultrafilters(
    ultrafilters: str | Ultrafilter | Iterable[Ultrafilter],
) -> tuple[Ultrafilter, ...]:
    if ultrafilters == "all":
        return ULTRAFILTERS
    if isinstance(ultrafilters, Ultrafilter):
        return (ultrafilters,)
    return tuple(ultrafilters)


def countermodel_search(
    premises: Iterable[Formula],
    goal: Formula,
    max_worlds: int,
    ultrafilters: str | Ultrafilter | Iterable[Ultrafilter] = "all",
    frame_filter: "FrameProperty | Callable[[Frame], bool] | None" = None,
    max_valuations: int | None = DEFAULT_MAX_VALUATIONS,
    max_frames: int | None = None,
) -> Model | None:
    """Bounded refutation of a global consequence.

    Returns the first model, in canonical order, satisfying every premise at
    every world while failing the goal at some world.  The order is: frames
    by (world count, relation bitmask, lattice labels), then ultrafilters by
    generator, then valuations lexicographically.  A None result means no
    countermodel up to the bound, which is weaker than validity.

    frame_filter restricts the search to frames with a property, e.g. one
    under study: a FrameProperty, checked on relation bitmasks, or any
    predicate on frames.  max_frames caps the frames passing it.
    """
    from .frames import _countermodel_scan  # frames imports this module

    if max_worlds < 1:
        raise ValueError("max_worlds must be >= 1")
    premises = tuple(premises)
    model = _countermodel_scan(premises, goal, max_worlds, _resolve_ultrafilters(ultrafilters),
                               frame_filter, max_valuations, max_frames)
    if model is not None and (
        not all(model_valid(model, p) for p in premises) or model_valid(model, goal)
    ):
        raise AssertionError("sweep and definitional evaluator disagree")
    return model


# ---------------------------------------------------------------------------
# Independent classical oracle
# ---------------------------------------------------------------------------


def classical_reference_eval(
    frame: Frame,
    valuation: Mapping[tuple[str, str], object],
    world: str,
    f: Formula,
) -> bool:
    """Textbook two-valued Kripke truth, kept independent of eval_formula.

    The valuation maps (world, variable) to a truthy/falsy value.  Only the
    classical modal fragment is accepted: no ball, box-same or box-diff.
    """
    if world not in frame.lattice_of:
        raise UnknownWorldError(world)
    if isinstance(f, syntax.Var):
        try:
            return bool(valuation[(world, f.name)])
        except KeyError:
            raise UnknownVariableError(
                f"no value for variable {f.name!r} at world {world!r}"
            ) from None
    if isinstance(f, syntax.Top):
        return True
    if isinstance(f, syntax.Bot):
        return False
    if isinstance(f, syntax.Not):
        return not classical_reference_eval(frame, valuation, world, f.sub)
    if isinstance(f, syntax.And):
        return classical_reference_eval(
            frame, valuation, world, f.left
        ) and classical_reference_eval(frame, valuation, world, f.right)
    if isinstance(f, syntax.Or):
        return classical_reference_eval(
            frame, valuation, world, f.left
        ) or classical_reference_eval(frame, valuation, world, f.right)
    if isinstance(f, syntax.Box):
        return all(
            classical_reference_eval(frame, valuation, u, f.sub)
            for u in frame.successors(world)
        )
    if isinstance(f, syntax.Diamond):
        return any(
            classical_reference_eval(frame, valuation, u, f.sub)
            for u in frame.successors(world)
        )
    raise FragmentError(
        f"classical evaluation does not cover {syntax.format_formula(f)}"
    )


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------


def frame_to_dict(frame: Frame) -> dict:
    return {
        "worlds": list(frame.worlds),
        "lattices": {w: frame.lattice_of[w] for w in frame.worlds},
        "edges": sorted([a, b] for a, b in frame.relation),
    }


def frame_from_dict(doc: Mapping) -> Frame:
    try:
        worlds = tuple(doc["worlds"])
        lattices = dict(doc["lattices"])
        edges = frozenset((a, b) for a, b in doc["edges"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad frame document: {exc}") from exc
    if not all(isinstance(w, str) for w in worlds):
        raise ValueError("bad frame document: world names must be strings")
    return Frame(worlds, edges, lattices)


def model_to_dict(model: Model) -> dict:
    doc = frame_to_dict(model.frame)
    doc.update(_valuation_doc(model.valuation, model.ultrafilter))
    return doc


def _valuation_doc(valuation: Mapping[tuple[str, str], int], ultrafilter: Ultrafilter) -> dict:
    """The fields a model document adds to its frame's."""
    by_world: dict[str, dict[str, str]] = {}
    for (world, var), value in sorted(valuation.items()):
        by_world.setdefault(world, {})[var] = element_name(value)
    return {"ultrafilter": ultrafilter.name, "valuation": by_world}


def model_from_dict(doc: Mapping) -> Model:
    frame = frame_from_dict(doc)
    u = Ultrafilter.from_name(doc.get("ultrafilter", "e1"))
    valuation: dict[tuple[str, str], int] = {}
    by_world = doc.get("valuation", {})
    if not isinstance(by_world, Mapping):
        raise ValueError("bad model document: valuation must map worlds to objects")
    for world, assignments in by_world.items():
        if not isinstance(assignments, Mapping):
            raise ValueError(
                f"bad model document: valuation of {world!r} must map variables to element names"
            )
        for var, name in assignments.items():
            valuation[(world, var)] = element_from_name(name)
    return Model(frame, valuation, u)
