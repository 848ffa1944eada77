"""Four-valued propositional semantics and the rule battery."""

import pytest

from mlml.algebra import BOT, E1, E23, TOP
from mlml.prop4 import (
    FOUR_VALUES,
    ModalOperatorError,
    all_valuations4,
    consequence4,
    eval4,
    rule_soundness_report,
    tautology4,
    value4_name,
)
from mlml.syntax import Ball, Or, Var, parse, variables


def test_eval4_spec_examples():
    assert eval4(parse("@p"), {"p": E1}) == BOT
    assert eval4(parse("p | ~p"), {"p": E1}) == TOP
    assert eval4(parse("@(p & q)"), {"p": E1, "q": E23}) == TOP


def test_eval4_connectives():
    a = {"p": E1, "q": BOT}
    assert eval4(parse("~p"), a) == E23
    assert eval4(parse("p & q"), a) == BOT
    assert eval4(parse("p | q"), a) == E1
    assert eval4(parse("p -> q"), a) == E23
    assert eval4(parse("T"), {}) == TOP
    assert eval4(parse("F"), {}) == BOT


def test_eval4_rejects_modal_operators():
    with pytest.raises(ModalOperatorError) as info:
        eval4(parse("p & []q"), {"p": TOP, "q": TOP})
    assert "[]q" in str(info.value)
    with pytest.raises(ModalOperatorError):
        eval4(parse("<>p"), {"p": TOP})
    with pytest.raises(ModalOperatorError) as info:
        eval4(parse("[]<>p & p"), {"p": TOP})
    assert info.value.offending == parse("[]<>p")
    with pytest.raises(ValueError):
        eval4(parse("p"), {})


def test_value_names():
    assert [value4_name(v) for v in FOUR_VALUES] == ["0", "a", "-a", "1"]


def test_consequence4_spec_examples():
    assert consequence4([], parse("@@p")).holds
    refuted = consequence4([parse("p")], parse("@p"))
    assert not refuted.holds
    assert refuted.witness == {"p": E1}
    assert refuted.witness_text() == "p=a"
    assert consequence4([parse("@p"), parse("@q")], parse("@(p & q)")).holds


def test_consequence4_monotone_and_reflexive():
    goal = parse("@(p | q)")
    base = [parse("@p"), parse("@q")]
    assert consequence4(base, goal).holds
    assert consequence4(base + [parse("~p")], goal).holds
    for f in base:
        assert consequence4(base, f).holds


def test_classical_tautologies_take_exactly_top():
    # ball-free Boolean tautologies take the value 1 in every Boolean algebra
    for text in ["p | ~p", "~(p & q) | p", "(p -> q) | (q -> p)"]:
        f = parse(text)
        for assignment in all_valuations4(variables(f)):
            assert eval4(f, assignment) == TOP, text


def test_valuation_enumeration_order():
    rows = list(all_valuations4(["p"]))
    assert [row["p"] for row in rows] == list(FOUR_VALUES)
    assert len(list(all_valuations4(["p", "q"]))) == 16


def test_rule_soundness_report():
    rows = rule_soundness_report()
    assert [row.rule for row in rows] == [
        "DB", "BR", "BF", "AwB", "NwB", "NB", "TNB1", "TNB2", "BC", "OV", "CL", "IB",
    ]
    for row in rows:
        assert row.passed, f"{row.rule}: {row.witness}"


def test_scheme_rows_check_the_checker_table(monkeypatch):
    """Each scheme row checks exactly the variants of its tag in
    proofs.RULE_SCHEMES, the modal-free tags in table order."""
    import mlml.prop4 as prop4
    from mlml.proofs import RULE_SCHEMES

    checked = []

    def recording(premises, goal):
        checked.append((tuple(premises), goal))
        return consequence4(premises, goal)

    monkeypatch.setattr(prop4, "consequence4", recording)
    rows = rule_soundness_report()
    tags = [row.rule for row in rows[:-2]]
    assert tags == ["DB", "BR", "BF", "AwB", "NwB", "NB", "TNB1", "TNB2", "BC", "OV"]
    assert tags == [tag for tag in RULE_SCHEMES if tag not in ("KA", "BB", "FC", "EA")]
    want = [(v.premises, v.conclusion) for tag in tags for v in RULE_SCHEMES[tag]]
    assert checked[:len(want)] == want


def test_an_unsound_scheme_in_the_checker_table_fails_its_row(monkeypatch):
    from mlml.proofs import RULE_SCHEMES, Scheme

    phi, psi = Var("phi"), Var("psi")
    monkeypatch.setitem(RULE_SCHEMES, "AwB", (Scheme((phi,), Ball(Or(phi, psi))),))
    rows = rule_soundness_report()
    assert [row.rule for row in rows if not row.passed] == ["AwB"]
    awb = next(row for row in rows if row.rule == "AwB")
    assert awb.witness


def test_corrupted_scheme_fails_with_witness():
    # dropping AwB's ball premise breaks it
    refuted = consequence4([parse("x")], parse("@(x | y)"))
    assert not refuted.holds
    assert refuted.witness is not None
    # the witness really refutes it
    assert eval4(parse("x"), refuted.witness) in (E1, TOP)
    assert eval4(parse("@(x | y)"), refuted.witness) not in (E1, TOP)


def test_tautology4():
    assert tautology4(parse("@p | ~@p")).holds
    assert not tautology4(parse("@p")).holds


def _brute_consequence4(premises, goal):
    """Reference verdict and first witness: every assignment in
    all_valuations4 order, each formula evaluated by kripke.eval_formula on
    a one-world model labelled A under e1."""
    from mlml.kripke import Frame, Model, eval_formula

    frame = Frame(("w",), frozenset(), {"w": "A"})
    names = set()
    for f in list(premises) + [goal]:
        names.update(variables(f))
    for assignment in all_valuations4(names):
        model = Model(frame, {("w", k): v for k, v in assignment.items()})
        if all(eval_formula(model, "w", p) in (E1, TOP) for p in premises):
            if eval_formula(model, "w", goal) not in (E1, TOP):
                return False, assignment
    return True, None


def test_consequence4_matches_brute_force_on_the_corpus():
    import random

    from mlml.syntax import generate_corpus, is_modal_free

    pool = [f for f in generate_corpus(["p", "q"], 3) if is_modal_free(f)]
    rng = random.Random(20260218)
    for _ in range(400):
        premises = rng.sample(pool, rng.randrange(3))
        goal = rng.choice(pool)
        result = consequence4(premises, goal)
        holds, witness = _brute_consequence4(premises, goal)
        assert (result.holds, result.witness) == (holds, witness), (premises, goal)


def test_ib_row_reports_the_first_assignment_off_top(monkeypatch):
    import mlml.prop4 as prop4

    monkeypatch.setattr(prop4, "THEOREM_BUNDLE", ("p | ~p", "p | @q"))
    ib = rule_soundness_report()[-1]
    assert ib.rule == "IB" and not ib.passed
    assert ib.witness == "p | @q is not exactly 1 at p=0, q=a"
