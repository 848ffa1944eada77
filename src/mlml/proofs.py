"""Hilbert-style derivation checking for the propositional and modal calculi.

A derivation is a list of steps, each carrying a judgment (premise set and
conclusion), a rule tag, the indices of the earlier steps it cites, and, for
necessity introduction, the declared premise-set split.  Checking is local:
each step is validated against its rule and its cited steps, and a
derivation is accepted when every step checks.

Most rules are schematic: a step matches when the cited conclusions and its
own conclusion instantiate the rule's premise and conclusion shapes under a
single consistent binding of the metavariables, and every cited premise set
is contained in the step's premise set.  Axiom-shaped rules (DB, KA) carry
their weakening built in and are accepted under any premise set.

Two structural rules make classical reasoning checkable without fixing a
particular classical axiomatization: TautCons accepts any conclusion that is
a two-valued tautological consequence of the cited conclusions once every
maximal subformula headed by a ball or a modal operator is frozen into an
opaque atom, and Weaken re-derives a cited conclusion under a larger premise
set.  The TautCons check is the packed engine's two-valued sweep over the
frozen atoms on a one-world frame, with no truth table of its own.

The bundled corpus exercises every rule; `semantic_crosscheck` replays an
accepted derivation's final judgment against the bounded countermodel search,
flagging any hit as a soundness alarm rather than passing silently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from itertools import permutations
from typing import Iterable, Mapping, Sequence

from . import kripke, syntax
from ._sweep import DEFAULT_MAX_VALUATIONS, FrameSweep, compile_formula
from .algebra import DEFAULT_ULTRAFILTER
from .syntax import (
    And,
    Ball,
    Bot,
    Box,
    Diamond,
    Formula,
    Iff,
    Imp,
    Not,
    Or,
    Top,
    Var,
    Xor,
)

__all__ = [
    "Judgment",
    "InSplit",
    "DerivationStep",
    "Derivation",
    "CheckResult",
    "check_step",
    "check",
    "CrosscheckReport",
    "semantic_crosscheck",
    "derivation_from_dict",
    "load_bundled_corpus",
    "RULE_TAGS",
]


@dataclass(frozen=True)
class Judgment:
    premises: frozenset[Formula]
    conclusion: Formula

    def __str__(self) -> str:
        left = ", ".join(sorted(syntax.format_formula(p) for p in self.premises))
        return f"{left} |- {syntax.format_formula(self.conclusion)}" if left else \
            f"|- {syntax.format_formula(self.conclusion)}"


@dataclass(frozen=True)
class InSplit:
    """The declared premise-set decomposition for necessity introduction."""

    lambda_part: frozenset[Formula]
    gamma_part: frozenset[Formula]
    phi: Formula


@dataclass(frozen=True)
class DerivationStep:
    judgment: Judgment
    rule: str
    cites: tuple[int, ...] = ()
    split: InSplit | None = None


@dataclass
class Derivation:
    steps: list[DerivationStep]

    def final_judgment(self) -> Judgment:
        if not self.steps:
            raise ValueError("empty derivation")
        return self.steps[-1].judgment


def judgment(premises: Iterable[Formula], conclusion: Formula) -> Judgment:
    return Judgment(frozenset(premises), conclusion)


# ---------------------------------------------------------------------------
# Schematic rules and metavariable matching
# ---------------------------------------------------------------------------


_PHI = Var("phi")
_PSI = Var("psi")


@dataclass(frozen=True)
class Scheme:
    premises: tuple[Formula, ...]
    conclusion: Formula
    axiom: bool = False


# The calculus: each tag maps to its scheme variants, and a step is
# well-formed when some variant matches.  The variables of a scheme are its
# metavariables, phi and psi.  BR is bidirectional and BF covers both
# connectives.  `prop4.rule_soundness_report` checks every modal-free
# variant of this table, so an edit here is checked there too.
RULE_SCHEMES: dict[str, tuple[Scheme, ...]] = {
    "DB": (Scheme((), Ball(Ball(_PHI)), axiom=True),),
    "BR": (
        Scheme((Ball(_PHI),), Ball(Not(_PHI))),
        Scheme((Ball(Not(_PHI)),), Ball(_PHI)),
    ),
    "BF": (
        Scheme((Ball(_PHI), Ball(_PSI)), Ball(And(_PHI, _PSI))),
        Scheme((Ball(_PHI), Ball(_PSI)), Ball(Or(_PHI, _PSI))),
    ),
    "AwB": (Scheme((_PHI, Ball(_PHI)), Ball(Or(_PHI, _PSI))),),
    "NwB": (Scheme((Not(_PHI), Ball(_PHI)), Ball(And(_PHI, _PSI))),),
    "NB": (
        Scheme(
            (Not(Ball(_PHI)), Ball(_PSI)),
            Or(Not(Ball(And(_PHI, _PSI))), Not(Ball(Or(_PHI, _PSI)))),
        ),
    ),
    "TNB1": (
        Scheme((Not(Ball(_PHI)), Not(Ball(_PSI)), And(_PHI, _PSI)), Not(Ball(And(_PHI, _PSI)))),
    ),
    "TNB2": (
        Scheme((Not(Ball(_PHI)), Not(Ball(_PSI)), Not(Or(_PHI, _PSI))), Not(Ball(And(_PHI, _PSI)))),
    ),
    "BC": (
        Scheme((Ball(And(_PHI, _PSI)), And(_PHI, _PSI)), And(Ball(_PHI), Ball(_PSI))),
    ),
    "OV": (
        Scheme((Iff(Ball(_PHI), Ball(_PSI)), Iff(_PHI, Not(_PSI))), Ball(And(_PHI, _PSI))),
    ),
    "KA": (
        Scheme((), Imp(Box(Imp(_PHI, _PSI)), Imp(Box(_PHI), Box(_PSI))), axiom=True),
    ),
    "BB": (Scheme((Box(_PHI), Ball(Box(_PHI))), Box(Ball(_PHI))),),
    "FC": (Scheme((Diamond(_PHI), Diamond(Not(_PHI))), Ball(Box(_PHI))),),
    "EA": (
        Scheme(
            (Not(Ball(Box(_PHI))),),
            Xor(
                Diamond(And(_PHI, Not(Ball(_PHI)))),
                Diamond(And(Not(_PHI), Not(Ball(_PHI)))),
            ),
        ),
    ),
}

RULE_TAGS = ("Premise", "Weaken", "TautCons", "IB", "IN") + tuple(RULE_SCHEMES)


def _match(pattern: Formula, f: Formula, env: dict[str, Formula]) -> dict[str, Formula] | None:
    """The binding of env extended so that f instantiates the pattern, whose
    variables are metavariables, or None."""
    if isinstance(pattern, Var):
        bound = env.get(pattern.name)
        if bound is None:
            out = dict(env)
            out[pattern.name] = f
            return out
        return env if bound == f else None
    if type(pattern) is not type(f):
        return None
    if isinstance(pattern, (Top, Bot)):
        return env
    if isinstance(pattern, syntax._UNARY_TYPES):
        return _match(pattern.sub, f.sub, env)
    out = _match(pattern.left, f.left, env)
    if out is None:
        return None
    return _match(pattern.right, f.right, out)


def _match_scheme(
    scheme: Scheme, cited_conclusions: Sequence[Formula], conclusion: Formula
) -> bool:
    if len(cited_conclusions) != len(scheme.premises):
        return False
    for order in permutations(range(len(cited_conclusions))):
        env: dict[str, Formula] | None = {}
        for pattern, k in zip(scheme.premises, order):
            env = _match(pattern, cited_conclusions[k], env)
            if env is None:
                break
        if env is None:
            continue
        if _match(scheme.conclusion, conclusion, env) is not None:
            return True
    return False


# ---------------------------------------------------------------------------
# Tautological consequence over opaque atoms
# ---------------------------------------------------------------------------

_TAUT_ATOM_BUDGET = 16
_FRAME = kripke.Frame(("w",), frozenset(), {"w": "A"})


def _abstract(f: Formula, atoms: dict[Formula, Var]) -> Formula:
    """The Boolean skeleton of f, with every variable and every ball- or
    modal-headed subformula frozen to a fresh atom, numbered in the order a
    walk of the tree first meets them, left operand first.  The sugar shares
    operands, so the walk is iterative and abstracts each node once: what f
    shares, the skeleton shares."""
    done: dict[int, Formula] = {}  # id of a node of f -> its skeleton
    stack = [f]
    while stack:
        g = stack[-1]
        if id(g) in done:
            stack.pop()
            continue
        if isinstance(g, (Not, And, Or)):
            subs = (g.sub,) if isinstance(g, Not) else (g.left, g.right)
            pending = [s for s in reversed(subs) if id(s) not in done]
            if pending:
                stack.extend(pending)
                continue
            done[id(g)] = type(g)(*(done[id(s)] for s in subs))
        elif isinstance(g, (Top, Bot)):
            done[id(g)] = g
        else:
            if g not in atoms:
                atoms[g] = Var(f"a{len(atoms)}")
            done[id(g)] = atoms[g]
        stack.pop()
    return done[id(f)]


def tautological_consequence(assumptions: Sequence[Formula], conclusion: Formula) -> bool:
    """Two-valued consequence after opaque-atom abstraction: a two-valued
    sweep over every row of the atoms on a one-world frame."""
    atoms: dict[Formula, Var] = {}
    abstract_assumptions = [_abstract(f, atoms) for f in assumptions]
    abstract_conclusion = _abstract(conclusion, atoms)
    if len(atoms) > _TAUT_ATOM_BUDGET:
        raise ValueError(
            f"tautology check over {len(atoms)} atoms exceeds the budget of {_TAUT_ATOM_BUDGET}"
        )
    sweep = FrameSweep(_FRAME, [a.name for a in atoms.values()], binary=True)
    return sweep.countermodel_index(
        abstract_assumptions, abstract_conclusion, DEFAULT_ULTRAFILTER
    ) is None


# ---------------------------------------------------------------------------
# Step checking
# ---------------------------------------------------------------------------


def _cited_steps(
    derivation: Derivation, index: int
) -> tuple[list[DerivationStep], str | None]:
    step = derivation.steps[index]
    cited = []
    for k in step.cites:
        if not 0 <= k < index:
            return [], f"cite {k} does not reference an earlier step"
        cited.append(derivation.steps[k])
    return cited, None


_CANONICAL_TAGS = {t.lower(): t for t in RULE_TAGS}


def _canonical_rule(tag: str) -> str:
    """Rule tags are matched ignoring case so that spelling variants of a
    proof file check identically."""
    return _CANONICAL_TAGS.get(tag.lower(), tag)


def check_step(derivation: Derivation, index: int) -> str | None:
    """None when step `index` is correctly justified, else a violation text."""
    if not 0 <= index < len(derivation.steps):
        return f"no step {index}"
    step = derivation.steps[index]
    cited, err = _cited_steps(derivation, index)
    if err is not None:
        return err
    premises = step.judgment.premises
    conclusion = step.judgment.conclusion
    rule = _canonical_rule(step.rule)

    if rule == "Premise":
        if step.cites:
            return "Premise cites other steps"
        if conclusion not in premises:
            return "Premise conclusion is not among the premises"
        return None

    if rule == "Weaken":
        if len(cited) != 1:
            return "Weaken cites exactly one step"
        source = cited[0]
        if source.judgment.conclusion != conclusion:
            return "Weaken changes the conclusion"
        if not source.judgment.premises <= premises:
            return "Weaken cited premises are not contained in the step premises"
        return None

    if rule == "TautCons":
        for k, source in zip(step.cites, cited):
            if not source.judgment.premises <= premises:
                return f"TautCons cite {k} has premises outside the step premises"
        try:
            ok = tautological_consequence(
                [source.judgment.conclusion for source in cited], conclusion
            )
        except ValueError as exc:
            return str(exc)
        if not ok:
            return "TautCons conclusion is not a tautological consequence of the cited conclusions"
        return None

    if rule == "IB":
        if len(cited) != 1:
            return "IB cites exactly one step"
        source = cited[0]
        if source.judgment.premises:
            return "IB requires a theorem step (empty premises) as input"
        if premises:
            return "IB concludes under empty premises"
        if conclusion != Ball(source.judgment.conclusion):
            return "IB conclusion must be the ball of the cited theorem"
        return None

    if rule == "IN":
        split = step.split
        if split is None:
            return "IN requires the declared lambda/gamma split"
        expected_premises = split.lambda_part | {Box(g) for g in split.gamma_part}
        if premises != frozenset(expected_premises):
            return "IN premises differ from lambda united with box gamma"
        if conclusion != Box(split.phi):
            return "IN conclusion must be box of the declared formula"
        if len(cited) != 2:
            return "IN cites exactly two steps"
        side = split.lambda_part | split.gamma_part | {Ball(g) for g in split.gamma_part}
        want_first = Judgment(frozenset(side), And(split.phi, Ball(split.phi)))
        want_second = Judgment(
            frozenset(split.lambda_part | split.gamma_part), split.phi
        )
        got = (cited[0].judgment, cited[1].judgment)
        if got != (want_first, want_second) and got != (want_second, want_first):
            return "IN cited judgments do not match the required side derivations"
        return None

    variants = RULE_SCHEMES.get(rule)
    if variants is None:
        return f"unknown rule tag {rule!r}"
    if variants[0].axiom:
        if step.cites:
            return f"{rule} is an axiom and cites no steps"
        if any(_match(v.conclusion, conclusion, {}) is not None for v in variants):
            return None
        return f"{rule} conclusion does not match the axiom shape"
    for k, source in zip(step.cites, cited):
        if not source.judgment.premises <= premises:
            return f"{rule} cite {k} has premises outside the step premises"
    cited_conclusions = [source.judgment.conclusion for source in cited]
    if any(_match_scheme(v, cited_conclusions, conclusion) for v in variants):
        return None
    return f"{rule} premises or conclusion do not fit the rule shape"


@dataclass(frozen=True)
class CheckResult:
    accepted: bool
    failed_step: int | None = None
    violation: str | None = None

    def __bool__(self) -> bool:
        return self.accepted


def check(derivation: Derivation) -> CheckResult:
    """Accept iff every step checks; otherwise report the first violation."""
    if not derivation.steps:
        return CheckResult(False, None, "empty derivation")
    for index in range(len(derivation.steps)):
        violation = check_step(derivation, index)
        if violation is not None:
            return CheckResult(False, index, violation)
    return CheckResult(True)


# ---------------------------------------------------------------------------
# Semantic cross-check
# ---------------------------------------------------------------------------


@dataclass
class CrosscheckReport:
    countermodel: kripke.Model | None

    @property
    def sound(self) -> bool:
        return self.countermodel is None


def semantic_crosscheck(
    derivation: Derivation,
    max_worlds: int = 2,
    max_valuations: int | None = DEFAULT_MAX_VALUATIONS,
    max_frames: int | None = None,
) -> CrosscheckReport:
    """Search for a model refuting the final judgment of an accepted
    derivation.  Finding one is a soundness alarm: either the checker, the
    semantics, or the calculus itself is at fault, and the caller must not
    ignore it.  The caps are `countermodel_search`'s.
    """
    result = check(derivation)
    if not result.accepted:
        raise ValueError(f"derivation not accepted: {result.violation}")
    goal = derivation.final_judgment()
    # The premises in the order of their straight-line code, which is linear
    # in their size where their text can be exponential.  The search meets
    # their values and sorts their variables, so no order changes its result.
    counter = kripke.countermodel_search(
        sorted(goal.premises, key=lambda premise: compile_formula(premise).code),
        goal.conclusion,
        max_worlds,
        "all",
        max_valuations=max_valuations,
        max_frames=max_frames,
    )
    return CrosscheckReport(counter)


# ---------------------------------------------------------------------------
# File format and bundled corpus
# ---------------------------------------------------------------------------


def _formula_set(parse, owner: Mapping, key: str, number: int) -> frozenset[Formula]:
    """The formulas whose texts an optional array of step `number` lists."""
    return frozenset(map(parse, kripke._json_list(owner.get(key, ()), f"step {number}: {key}")))


def derivation_from_dict(doc: Mapping) -> Derivation:
    parse = lru_cache(maxsize=None)(syntax.parse)  # one object per text, as premises recur
    steps = []
    for number, raw in enumerate(doc["steps"]):
        if not isinstance(raw, Mapping):
            raise ValueError(f"step {number} is not an object")
        cites = raw.get("cites", ())
        if not isinstance(cites, (list, tuple)) or not all(type(k) is int for k in cites):
            raise ValueError(f"step {number}: cites must be a list of integers")
        if not isinstance(raw["rule"], str):
            raise ValueError(f"step {number}: rule must be a string")
        split = None
        if "params" in raw and raw["params"] is not None:
            params = raw["params"]
            if not isinstance(params, Mapping):
                raise ValueError(f"step {number}: params must be an object")
            split = InSplit(
                _formula_set(parse, params, "lambda", number),
                _formula_set(parse, params, "gamma", number),
                parse(params["phi"]),
            )
        steps.append(
            DerivationStep(
                judgment=Judgment(
                    _formula_set(parse, raw, "premises", number),
                    parse(raw["conclusion"]),
                ),
                rule=raw["rule"],
                cites=tuple(cites),
                split=split,
            )
        )
    return Derivation(steps)


def load_bundled_corpus() -> list[tuple[str, Derivation]]:
    """The derivations shipped with the package, as (name, derivation) pairs."""
    text = resources.files("mlml").joinpath("corpus/derivations.json").read_text("utf-8")
    doc = json.loads(text)
    return [(entry["name"], derivation_from_dict(entry)) for entry in doc["derivations"]]
