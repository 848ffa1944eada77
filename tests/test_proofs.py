"""Derivation checker: the bundled corpus, targeted corruptions, structural
rules, and the semantic cross-check."""

import dataclasses
import time

import pytest

from mlml.proofs import (
    _abstract,
    Derivation,
    DerivationStep,
    InSplit,
    Judgment,
    check,
    check_step,
    judgment,
    load_bundled_corpus,
    semantic_crosscheck,
    tautological_consequence,
)
from mlml.syntax import And, Bot, Box, Not, Or, Top, Var, parse


def step(premise_texts, conclusion_text, rule, cites=(), split=None):
    return DerivationStep(
        judgment(
            frozenset(parse(t) for t in premise_texts), parse(conclusion_text)
        ),
        rule,
        tuple(cites),
        split,
    )


def corpus_by_name():
    return dict(load_bundled_corpus())


def test_corpus_loads_and_is_accepted():
    corpus = load_bundled_corpus()
    assert len(corpus) >= 10
    for name, derivation in corpus:
        result = check(derivation)
        assert result.accepted, f"{name}: step {result.failed_step}: {result.violation}"


def test_corpus_covers_all_rules():
    used = {s.rule for _, d in load_bundled_corpus() for s in d.steps}
    for tag in ("DB", "BR", "BF", "AwB", "NwB", "NB", "TNB1", "TNB2", "BC", "OV",
                "IB", "KA", "BB", "FC", "EA", "IN", "TautCons", "Premise", "Weaken"):
        assert tag in used, tag


def test_necessitation_reproduction():
    derivation = corpus_by_name()["necessitation"]
    assert check(derivation).accepted
    final = derivation.final_judgment()
    assert final.premises == frozenset()
    assert final.conclusion == Box(parse("p | ~p"))


def test_ball_box_example():
    derivation = corpus_by_name()["ball_box"]
    assert check(derivation).accepted
    assert derivation.final_judgment().conclusion == parse("[]@p")


def test_malformed_br_application():
    bad = Derivation([
        step(["p"], "p", "Premise"),
        step(["p"], "@p", "BR", [0]),
    ])
    result = check(bad)
    assert not result.accepted
    assert result.failed_step == 1
    assert "BR" in result.violation


def test_single_edit_corruptions_rejected_at_the_edited_step():
    from proof_corruptions import corruption_battery

    corpus = corpus_by_name()
    cases = corruption_battery()
    assert len(cases) >= 10
    for name, corrupt, expected_step in cases:
        broken = corrupt(corpus[name])
        result = check(broken)
        assert not result.accepted, name
        assert result.failed_step == expected_step, (name, result)


def test_ib_requires_theorem_input():
    bad = Derivation([
        step(["p"], "p", "Premise"),
        step([], "@p", "IB", [0]),
    ])
    result = check(bad)
    assert not result.accepted and result.failed_step == 1


def test_in_requires_declared_split():
    derivation = corpus_by_name()["necessitation"]
    steps = list(derivation.steps)
    steps[3] = dataclasses.replace(steps[3], split=None)
    result = check(Derivation(steps))
    assert not result.accepted and "split" in result.violation


def test_in_with_nonempty_split():
    # Lambda = {q}, Gamma = {r}: from q, r, @r |- p & @p and q, r |- p
    # conclude q, []r |- []p.  Cited side steps are premises made to fit.
    phi = Var("p")
    side1 = judgment(frozenset(map(parse, ("q", "r", "@r"))), parse("p & @p"))
    side2 = judgment(frozenset(map(parse, ("q", "r"))), parse("p"))
    target = judgment(frozenset(map(parse, ("q", "[]r"))), parse("[]p"))
    split = InSplit(frozenset({parse("q")}), frozenset({parse("r")}), phi)
    derivation = Derivation([
        DerivationStep(side1, "Premise", ()),  # not actually derivable; shape only
        DerivationStep(side2, "Premise", ()),
        DerivationStep(target, "IN", (0, 1), split),
    ])
    # first two steps are bogus premises, so only check the IN step itself
    assert check_step(derivation, 2) is None


def test_weakening_admissibility():
    corpus = corpus_by_name()
    extra = parse("r_unused")
    for name in ("ball_factorization_and", "affirming_with_ball", "modus_ponens",
                 "ball_box", "k_axiom", "double_ball"):
        derivation = corpus[name]
        widened = Derivation([
            dataclasses.replace(
                s, judgment=Judgment(s.judgment.premises | {extra}, s.judgment.conclusion)
            )
            for s in derivation.steps
        ])
        assert check(widened).accepted, name


def test_tautological_consequence_abstraction():
    # boxes are opaque: the K axiom is not a propositional tautology
    assert not tautological_consequence([], parse("[](p -> q) -> ([]p -> []q)"))
    assert tautological_consequence([], parse("[]p | ~[]p"))
    assert tautological_consequence([parse("p"), parse("p -> q")], parse("q"))
    assert not tautological_consequence([parse("p | q")], parse("p"))
    # ball-headed formulas freeze whole: @p and @(p) are one atom, @q another
    assert not tautological_consequence([parse("@p")], parse("@q"))


def _tree_abstract(f, atoms):
    """The abstraction as a recursive walk of the tree, building a tree:
    the reference for the iterative one."""
    if isinstance(f, (Top, Bot)):
        return f
    if isinstance(f, Not):
        return Not(_tree_abstract(f.sub, atoms))
    if isinstance(f, (And, Or)):
        return type(f)(_tree_abstract(f.left, atoms), _tree_abstract(f.right, atoms))
    if f not in atoms:
        atoms[f] = Var(f"a{len(atoms)}")
    return atoms[f]


def _iff_chain(operators, leaves):
    return parse(" <-> ".join(leaves[i % len(leaves)] for i in range(operators + 1)))


def test_tautcons_on_iff_chains():
    """`<->` shares its operands, so a chain's tree doubles per operator.
    Up to ten operators the abstraction equals the tree walk's, atoms and
    their numbering included; p <-> ... <-> p is a tautology for an odd
    number of operators, and a chain is one exactly when every leaf occurs
    an even number of times; and 24 operators take well under a second."""
    for operators in range(1, 11):
        for leaves in (["p"], ["p", "[]p"], ["@q", "p", "<>(p & q)", "p"]):
            f = _iff_chain(operators, leaves)
            atoms, reference = {}, {}
            assert _abstract(f, atoms) == _tree_abstract(f, reference)
            assert list(atoms.items()) == list(reference.items())
        chain = _iff_chain(operators, ["p"])
        assert tautological_consequence([], chain) == (operators % 2 == 1)
        assert tautological_consequence([chain], _iff_chain(operators + 2, ["p"]))
    started = time.perf_counter()
    verdicts = [tautological_consequence([], _iff_chain(23, ["p", "[]p"])),
                tautological_consequence([], _iff_chain(24, ["p", "[]p"])),
                tautological_consequence([], _iff_chain(24, ["p"])),
                tautological_consequence([], _iff_chain(25, ["p"]))]
    assert time.perf_counter() - started < 1.0
    assert verdicts == [True, False, False, True]


def test_tautological_consequence_implies_exact_top_in_four_values():
    # a two-valued tautology over opaque atoms takes the value 1 at any
    # Boolean-algebra elements, so propositional theoremhood by TautCons is
    # consistent with the four-valued semantics
    from mlml.prop4 import all_valuations4, eval4
    from mlml.syntax import variables

    tautologies = ["p | ~p", "@p | ~@p", "(p -> q) -> (p -> q)",
                   "~(p & ~p)", "@(p & q) | ~@(p & q)"]
    for text in tautologies:
        f = parse(text)
        assert tautological_consequence([], f), text
        for assignment in all_valuations4(variables(f)):
            assert eval4(f, assignment) == 7, text
    # the converse fails: @@p is a four-valued validity but not a tautology
    # over opaque atoms
    assert not tautological_consequence([], parse("@@p"))


def test_tautology_atom_budget():
    wide = " | ".join(f"x{i}" for i in range(17))
    bad = Derivation([step([], wide, "TautCons")])
    result = check(bad)
    assert not result.accepted
    assert "budget" in result.violation


def test_rule_tags_match_ignoring_case():
    derivation = corpus_by_name()["ball_factorization_and"]
    respelled = Derivation([
        dataclasses.replace(s, rule=s.rule.lower()) for s in derivation.steps
    ])
    assert check(respelled).accepted


def test_unknown_rule_and_empty_derivation():
    assert not check(Derivation([])).accepted
    bad = Derivation([step([], "p | ~p", "Magic")])
    result = check(bad)
    assert "unknown rule" in result.violation


def test_axioms_cite_no_steps_and_hold_under_any_premises():
    """DB and KA, the rules whose scheme has no premises, are axioms: a step
    of either that cites a step is rejected, and one under premises is
    accepted."""
    for rule, conclusion in (("DB", "@@p"), ("KA", "[](p -> q) -> ([]p -> []q)")):
        citing = Derivation([step(["q"], "q", "Premise"), step(["q"], conclusion, rule, [0])])
        assert check_step(citing, 1) == f"{rule} is an axiom and cites no steps"
        assert check(Derivation([step(["q", "r"], conclusion, rule)])).accepted


def test_semantic_crosscheck_clean_corpus():
    for name, derivation in load_bundled_corpus():
        counter = semantic_crosscheck(derivation, 2)
        assert counter is None, f"{name}: countermodel {counter}"


def test_semantic_crosscheck_of_a_premise_too_long_to_print():
    """X |- X in one TautCons step, X a `<->` chain of 22 copies of p, whose
    text is past the printing cap: the cross-check never prints it."""
    from mlml._sweep import ResourceBudgetExceeded
    from mlml.syntax import format_formula

    x = parse(" <-> ".join(["p"] * 22))
    derivation = Derivation([step([], "p", "TautCons")])
    derivation = Derivation([dataclasses.replace(
        derivation.steps[0], judgment=judgment(frozenset({x}), x))])
    assert check(derivation).accepted
    with pytest.raises(ResourceBudgetExceeded):
        format_formula(x)
    assert semantic_crosscheck(derivation, 2) is None


def test_semantic_crosscheck_countermodel_does_not_depend_on_premise_order(monkeypatch):
    """two_not_ball_1's three premises with the refutable conclusion
    [](p & q): the search finds the model the cross-check reports whatever
    order the premises are given in."""
    import itertools

    from mlml import proofs
    from mlml.kripke import countermodel_search, model_to_dict
    from proof_corruptions import set_conclusion

    derivation = set_conclusion(corpus_by_name()["two_not_ball_1"], 3, "[](p & q)")
    goal = derivation.final_judgment()
    assert len(goal.premises) == 3
    monkeypatch.setattr(proofs, "check", lambda d: proofs.CheckResult(True))
    counter = semantic_crosscheck(derivation, 2)
    assert counter is not None
    expected = model_to_dict(counter)
    for order in itertools.permutations(goal.premises):
        assert model_to_dict(countermodel_search(order, goal.conclusion, 2)) == expected


def test_semantic_crosscheck_requires_accepted_derivation():
    bogus = Derivation([step(["p"], "[]p", "Premise")])
    with pytest.raises(ValueError):
        semantic_crosscheck(bogus)


def test_bogus_judgment_has_countermodel():
    # what the crosscheck would catch if {p} |- []p were ever accepted
    from mlml.kripke import countermodel_search

    assert countermodel_search([parse("p")], parse("[]p"), 2) is not None


def test_tautological_consequence_matches_classical_brute_force():
    # on the ball-free, modal-free corpus the opaque atoms are the variables,
    # so TautCons is classical consequence, decided here row by row by the
    # independent two-valued oracle
    import random
    from itertools import product

    from mlml.kripke import Frame, classical_reference_eval
    from mlml.syntax import Ball, _post_order, generate_corpus, is_modal_free

    frame = Frame(("w",), frozenset(), {"w": "A"})
    pool = [
        f for f in generate_corpus(["p", "q"], 3)
        if is_modal_free(f) and not any(isinstance(g, Ball) for g in _post_order(f))
    ]
    rng = random.Random(20260218)
    for _ in range(400):
        premises = rng.sample(pool, rng.randrange(3))
        goal = rng.choice(pool)
        expected = True
        for p_value, q_value in product((False, True), repeat=2):
            row = {("w", "p"): p_value, ("w", "q"): q_value}
            if all(classical_reference_eval(frame, row, "w", f) for f in premises):
                if not classical_reference_eval(frame, row, "w", goal):
                    expected = False
        assert tautological_consequence(premises, goal) == expected, (premises, goal)
