"""Standalone four-valued propositional semantics and its rule battery.

The four-valued algebra {1, 0, a, -a} with the ball operator is realized as
the carrier A of B8 under the e1-generated ultrafilter, so a = e1 and the
designated values are {1, a}.  A valuation into {1, 0, a, -a} is a model on
the one-world frame labelled A, so this module has no evaluator or search of
its own: `eval4` is `kripke.eval_formula` on that model, and consequence is
`kripke.find_frame_countermodel` on that frame, with the premises.  Every
connective here is value-functional, so that search is exact, and for the
same reason the schematic inference rules of the propositional calculus can
be checked with their metavariables read as variables;
`rule_soundness_report` does exactly that for every modal-free scheme of
`proofs.RULE_SCHEMES`, spot-checks classical logic on the extended language,
and handles ball introduction (a rule about theoremhood, not values) by
checking that every formula in the bundled theorem list evaluates to exactly
1 under every assignment: f is 1 exactly where `@f & f` is designated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from itertools import product

from . import algebra, kripke, proofs, syntax
from .algebra import BOT, E1, E23, TOP
from .syntax import Formula

__all__ = [
    "FOUR_VALUES",
    "ModalOperatorError",
    "value4_name",
    "eval4",
    "all_valuations4",
    "Consequence4Result",
    "consequence4",
    "tautology4",
    "RuleCheck",
    "rule_soundness_report",
    "THEOREM_BUNDLE",
]

FOUR_VALUES = algebra.carrier("A")  # (0, a, -a, 1) by encoding

_VALUE_NAMES = {TOP: "1", BOT: "0", E1: "a", E23: "-a"}

_WORLD = "w"
_FRAME = kripke.Frame((_WORLD,), frozenset(), {_WORLD: "A"})


def value4_name(x: int) -> str:
    return _VALUE_NAMES[x]


class ModalOperatorError(ValueError):
    """A modal operator appeared where only the propositional fragment is allowed."""

    def __init__(self, offending: Formula):
        self.offending = offending
        try:
            text = syntax.format_formula(offending)
        except syntax.ResourceBudgetExceeded:
            text = (f"{syntax._UNARY_ASCII[type(offending)]} over a formula longer than "
                    f"{syntax.MAX_FORMAT_LENGTH} characters")
        super().__init__(f"modal operator in propositional evaluation: {text}")


def _require_propositional(f: Formula) -> None:
    """Raise ModalOperatorError at the first modal subformula, outermost and
    leftmost first."""
    offending = syntax._first_modal(f)
    if offending is not None:
        raise ModalOperatorError(offending)


def eval4(f: Formula, assignment: Mapping[str, int]) -> int:
    """Value of a modal-free formula under an assignment into {1, 0, a, -a}."""
    _require_propositional(f)
    model = kripke.Model(_FRAME, {(_WORLD, k): v for k, v in assignment.items()})
    return kripke.eval_formula(model, _WORLD, f)


def all_valuations4(var_names: Iterable[str]) -> Iterable[dict[str, int]]:
    """Every assignment of the four values to the given variables, in
    lexicographic order over (sorted variables, ascending value encoding).
    This is the sweep's valuation order on the one-world frame."""
    names = sorted(set(var_names))
    for values in product(FOUR_VALUES, repeat=len(names)):
        yield dict(zip(names, values))


@dataclass(frozen=True)
class Consequence4Result:
    holds: bool
    witness: dict[str, int] | None = None

    def __bool__(self) -> bool:
        return self.holds

    def witness_text(self) -> str:
        if self.witness is None:
            return ""
        return ", ".join(f"{name}={value4_name(v)}" for name, v in sorted(self.witness.items()))


def consequence4(premises: Iterable[Formula], goal: Formula) -> Consequence4Result:
    """Whether every assignment designating all premises designates the goal.

    This is kripke.find_frame_countermodel on the one-world frame labelled A
    under e1, so on failure the first refuting assignment (in
    all_valuations4 order) comes back as the witness, re-checked against
    kripke.eval_formula.
    """
    premises = tuple(premises)
    for f in premises + (goal,):
        _require_propositional(f)
    model = kripke.find_frame_countermodel(_FRAME, goal, premises=premises)
    if model is None:
        return Consequence4Result(True)
    return Consequence4Result(False, {name: v for (_, name), v in model.valuation.items()})


def tautology4(f: Formula) -> Consequence4Result:
    return consequence4((), f)


# ---------------------------------------------------------------------------
# The rule battery
# ---------------------------------------------------------------------------

# Formulas provable in the propositional calculus; ball introduction is sound
# exactly when these take the value 1 (not merely a designated value) under
# every assignment, so the battery asserts that stronger fact.
THEOREM_BUNDLE: tuple[str, ...] = (
    "p | ~p",
    "~(p & ~p)",
    "p -> p",
    "@@p",
    "@~@p",
    "@(p | ~p)",
    "@(p & ~p)",
    "@p | ~@p",
    "(p -> q) -> (p -> q)",
    "((p -> q) & p) -> q",
    "(p & q) -> p",
    "p -> (p | q)",
    "(p <-> ~q) -> (q <-> ~p)",
    "T",
    "@T",
    "~F",
)

# Classical consequences used to spot-check the classical-logic rule on the
# extended language.
_CLASSICAL_BATTERY: tuple[tuple[tuple[str, ...], str], ...] = (
    ((), "x | ~x"),
    ((), "(x -> y) -> (x -> y)"),
    (("x", "x -> y"), "y"),
    (("x", "y"), "x & y"),
    (("x & y",), "x"),
    (("x",), "x | y"),
    (("~~x",), "x"),
    (("x | y", "~x"), "y"),
)


@dataclass(frozen=True)
class RuleCheck:
    rule: str
    statement: str
    passed: bool
    witness: str = ""


def rule_soundness_report() -> list[RuleCheck]:
    """Semantic check of every propositional rule scheme.

    One row per modal-free tag of `proofs.RULE_SCHEMES`, in table order,
    each variant checked as it stands: its metavariables phi and psi are
    variables here, and value-functionality of all connectives makes this
    exhaustive over the scheme.  A row passes when every variant does (both
    directions of BR, both forms of BF), and its witness is the first
    failing variant's.  Then the classical battery, and last the empirical
    ball-introduction check over THEOREM_BUNDLE.
    """
    rows: list[RuleCheck] = []
    for rule, variants in proofs.RULE_SCHEMES.items():
        formulas = [f for v in variants for f in (*v.premises, v.conclusion)]
        if not all(map(syntax.is_modal_free, formulas)):
            continue
        results = [consequence4(v.premises, v.conclusion) for v in variants]
        statement = " and ".join(str(proofs.judgment(v.premises, v.conclusion)) for v in variants)
        witness = next((r.witness_text() for r in results if not r.holds), "")
        rows.append(RuleCheck(rule, statement, all(r.holds for r in results), witness))

    cl_passed = True
    cl_witness = ""
    for premise_texts, goal_text in _CLASSICAL_BATTERY:
        result = consequence4(tuple(syntax.parse(t) for t in premise_texts), syntax.parse(goal_text))
        if not result.holds:
            cl_passed = False
            cl_witness = f"{goal_text}: {result.witness_text()}"
            break
    rows.append(RuleCheck("CL", "classical battery on the extended language", cl_passed, cl_witness))

    ib_passed = True
    ib_witness = ""
    for text in THEOREM_BUNDLE:
        f = syntax.parse(text)
        # Under e1 on carrier A, @f & f is designated exactly where f is 1.
        result = tautology4(syntax.And(syntax.Ball(f), f))
        if not result.holds:
            ib_passed = False
            ib_witness = f"{text} is not exactly 1 at {result.witness_text()}"
            break
    rows.append(
        RuleCheck("IB", "every bundled theorem evaluates to exactly 1", ib_passed, ib_witness)
    )
    return rows
