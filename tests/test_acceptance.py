"""Acceptance battery: one test per exit criterion, each printing a
pass/fail line (visible with `pytest -s` or on failure).

Three criteria are expected to fail and are left failing on purpose: the
transitivity, out-of-the-bubble and transitive-through-difference
characterizations are false in the semantics this package implements (the
defining clauses pin down-interpretation order-theoretically, under which a
foreign coatom middle does not collapse to 0).  README's "Failing
characterizations" section records the verified countermodels; companion
tests in test_frames.py pin them green.
"""

import time
from itertools import product

import pytest

from mlml._sweep import FrameSweep, compile_formula
from mlml.algebra import (
    BOT,
    ELEMENTS,
    LATTICE_LABELS,
    TOP,
    ULTRAFILTERS,
    ball,
    carrier,
    complement,
    down_interp,
    is_designated,
    join,
    meet,
    z_of,
)
from mlml.frames import (
    correspondence_check,
    fixtures,
    indiscernibility_check,
    is_euclidean,
    is_out_of_bubble,
    is_super_out_of_bubble,
)
from mlml.kripke import (
    Frame,
    Model,
    classical_reference_eval,
    countermodel_search,
    model_valid,
    satisfies,
)
from mlml.proofs import check, load_bundled_corpus, semantic_crosscheck
from mlml.prop4 import all_valuations4, consequence4, eval4, rule_soundness_report
from mlml.syntax import (
    ball_substitution,
    format_formula,
    generate_corpus,
    is_modal_free,
    parse,
    variables,
)
from packed_layout import group, mask_of

CRITERIA_FORMULAS = [
    "[]p -> p",
    "[]p -> [][]p",
    "<>p -> []<>p",
    "<>@p -> []<>@p",
    "[]p -> <>p",
    "p -> []<>p",
    "<>T -> ([]~@p -> ~[]p)",
    "[]p -> [=][=]p",
    "[]p -> [-][=](@p & p)",
]


def _report(number, label, ok, detail, started):
    elapsed = time.monotonic() - started
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({label}): {status} [{detail}, {elapsed:.1f}s]")


def test_criterion_01_algebra_laws():
    started = time.monotonic()
    for x, y in product(ELEMENTS, repeat=2):
        assert complement(meet(x, y)) == join(complement(x), complement(y))
        assert complement(join(x, y)) == meet(complement(x), complement(y))
        assert meet(x, join(x, y)) == x and join(x, meet(x, y)) == x
        for z in ELEMENTS:
            assert meet(x, join(y, z)) == join(meet(x, y), meet(x, z))
    for x in ELEMENTS:
        assert complement(complement(x)) == x
        assert ball(x) in (BOT, TOP)
        assert ball(ball(x)) == TOP
        assert ball(complement(x)) == ball(x)
    for label in LATTICE_LABELS:
        elems = set(carrier(label))
        for x in elems:
            assert complement(x) in elems and ball(x) in elems
            for y in elems:
                assert meet(x, y) in elems and join(x, y) in elems
        for x, y in product(ELEMENTS, repeat=2):
            assert down_interp(meet(x, y), label) == meet(
                down_interp(x, label), down_interp(y, label)
            )
        for u in ULTRAFILTERS:
            designated = {x for x in carrier(label) if is_designated(x, u)}
            assert designated == {TOP, z_of(label, u)}
    _report(1, "algebra laws", True, "64 pairs x 3 lattices x 3 ultrafilters", started)


def _correspondence_criterion(number, label, prop, formula_text):
    started = time.monotonic()
    report = correspondence_check(prop, formula_text, 3)
    assert report.frames_checked == 6 + 144 + 13824
    detail = f"{report.frames_checked} frames x 3 ultrafilters, {len(report.mismatches)} mismatches"
    _report(number, label, report.clean, detail, started)
    return report


def test_criterion_02_axiom_t_reflexive():
    report = _correspondence_criterion(2, "axiom T / reflexive", "reflexive", "[]p -> p")
    assert not report.mismatches


def test_criterion_03_axiom_4_transitive():
    """EXPECTED FAIL: transitivity is not characterized by []p -> [][]p in
    this semantics (foreign coatoms survive down-interpretation, e.g. the
    total 2-world A/B frame refutes it; see README)."""
    started = time.monotonic()
    report = correspondence_check("transitive", "[]p -> [][]p", 3)
    assert report.frames_checked == 13974
    detail = f"{len(report.mismatches)} mismatches, directions {sorted(report.directions())}"
    _report(3, "axiom 4 / transitive", report.clean, detail, started)
    if report.mismatches:
        pytest.fail(
            f"transitive <=> []p -> [][]p fails: {len(report.mismatches)} mismatched "
            f"frame/ultrafilter pairs, all in the property-without-validity direction; "
            f"the characterization is false in this semantics (see README)"
        )


def test_criterion_04_euclidean_failure():
    started = time.monotonic()
    counter = countermodel_search([], parse("<>p -> []<>p"), 3, frame_filter=is_euclidean)
    assert counter is not None
    assert is_euclidean(counter.frame)
    assert not model_valid(counter, parse("<>p -> []<>p"))
    report = correspondence_check("euclidean", "<>p -> []<>p", 3)
    assert report.mismatches
    assert report.directions() == {"property_without_valid"}
    _report(4, "Euclidean failure of axiom 5", True,
            f"Euclidean countermodel on {len(counter.frame.worlds)} worlds; "
            f"{len(report.mismatches)} one-sided mismatches", started)


def test_criterion_05_axiom_5_ball():
    report = _correspondence_criterion(5, "axiom 5-ball / euclidean", "euclidean",
                                       "<>@p -> []<>@p")
    assert not report.mismatches


def test_criterion_06_ball_substitution_transfer():
    started = time.monotonic()
    pairs = [
        ("serial", "[]p -> <>p"),
        ("symmetric", "p -> []<>p"),
        ("reflexive", "[]p -> p"),
        ("transitive", "[]p -> [][]p"),
    ]
    total = 0
    for prop, text in pairs:
        substituted = ball_substitution(parse(text))
        report = correspondence_check(prop, substituted, 3)
        assert not report.mismatches, (prop, format_formula(substituted))
        total += report.frames_checked
    _report(6, "ball-substitution transfer", True,
            f"4 properties x {total // 4} frames, 0 mismatches", started)


def test_criterion_07_out_of_bubble():
    """EXPECTED FAIL: the out-of-the-bubble characterization is false in this
    semantics (2-world countermodel; see README)."""
    started = time.monotonic()
    report = correspondence_check("out_of_bubble", "<>T -> ([]~@p -> ~[]p)", 3)
    detail = f"{len(report.mismatches)} mismatches, directions {sorted(report.directions())}"
    _report(7, "out of the bubble", report.clean, detail, started)
    if report.mismatches:
        pytest.fail(
            f"out_of_bubble <=> <>T -> ([]~@p -> ~[]p) fails: {len(report.mismatches)} "
            f"mismatches, all property-without-validity (see README)"
        )


def test_criterion_08a_transitive_through_equality():
    started = time.monotonic()
    report = correspondence_check("transitive_through_equality", "[]p -> [=][=]p", 3)
    _report("8a", "transitive through equality", report.clean,
            f"{len(report.mismatches)} mismatches", started)
    assert not report.mismatches


def test_criterion_08b_transitive_through_difference():
    """EXPECTED FAIL: the transitive-through-difference characterization is
    false in this semantics (2-world countermodel; see README)."""
    started = time.monotonic()
    report = correspondence_check(
        "transitive_through_difference", "[]p -> [-][=](@p & p)", 3
    )
    detail = f"{len(report.mismatches)} mismatches, directions {sorted(report.directions())}"
    _report("8b", "transitive through difference", report.clean, detail, started)
    if report.mismatches:
        pytest.fail(
            f"ttd <=> []p -> [-][=](@p & p) fails: {len(report.mismatches)} mismatches, "
            f"all property-without-validity (see README)"
        )


def test_criterion_09_soob_indiscernibility():
    started = time.monotonic()
    named = fixtures()
    assert is_super_out_of_bubble(named["soob_F"])
    assert is_out_of_bubble(named["soob_Fprime"])
    assert not is_super_out_of_bubble(named["soob_Fprime"])
    report = indiscernibility_check(3, max_valuations=None)
    assert report.formulas_checked == 141
    assert report.agree, report.disagreements[:3]
    _report(9, "super-out-of-bubble indiscernibility", True,
            f"{report.formulas_checked} formulas x 3 ultrafilters agree", started)


def test_criterion_10_non_normal_global_consequence():
    started = time.monotonic()
    counter = countermodel_search([parse("p")], parse("[]p"), 2)
    assert counter is not None
    assert model_valid(counter, parse("p"))
    assert not model_valid(counter, parse("[]p"))

    # classically, p true everywhere forces []p true everywhere: exhaust all
    # single-lattice two-valued models on <= 3 worlds
    box_p = parse("[]p")
    p = parse("p")
    for n in (1, 2, 3):
        worlds = tuple(f"w{i + 1}" for i in range(n))
        for bits in range(1 << (n * n)):
            relation = frozenset(
                (worlds[i], worlds[j])
                for i in range(n)
                for j in range(n)
                if bits >> (i * n + j) & 1
            )
            frame = Frame(worlds, relation, {w: "A" for w in worlds})
            for pattern in range(1 << n):
                valuation = {
                    (worlds[i], "p"): bool(pattern >> i & 1) for i in range(n)
                }
                if all(valuation[(w, "p")] for w in worlds):
                    assert all(
                        classical_reference_eval(frame, valuation, w, box_p)
                        for w in worlds
                    )
    _report(10, "non-normal global consequence", True,
            "2-world countermodel to p |= []p; no classical analogue <= 3 worlds",
            started)


def test_criterion_11_local_k_agreement():
    started = time.monotonic()
    corpus = [
        f for f in generate_corpus(["p"], 3) if "@" not in format_formula(f)
    ]
    assert len(corpus) == 73
    programs = [compile_formula(f) for f in corpus]
    checked = 0
    spot_checks = 0
    for n in (1, 2, 3):
        worlds = tuple(f"w{i + 1}" for i in range(n))
        for bits in range(1 << (n * n)):
            relation = frozenset(
                (worlds[i], worlds[j])
                for i in range(n)
                for j in range(n)
                if bits >> (i * n + j) & 1
            )
            reference = Frame(worlds, relation, {w: "A" for w in worlds})
            # classical truth per (formula, world): the indices, in the
            # sweep's slot order, of the valuations where the formula holds;
            # world w_i holds bit (n-1-i) of the index
            holding = [[[] for _ in range(n)] for _ in corpus]
            for index in range(1 << n):
                valuation = {
                    (worlds[i], "p"): bool(index >> (n - 1 - i) & 1)
                    for i in range(n)
                }
                for fi, f in enumerate(corpus):
                    for wi, w in enumerate(worlds):
                        if classical_reference_eval(reference, valuation, w, f):
                            holding[fi][wi].append(index)
            # The binary sweep's groups do not depend on the labels, so the
            # expected masks are built from the first labelling's sweep.
            expected = None
            for labels in product("ABC", repeat=n):
                frame = Frame(worlds, relation, dict(zip(worlds, labels)))
                sweep = FrameSweep(frame, ("p",), binary=True)
                if expected is None:
                    expected = [[mask_of(group(sweep, index) for index in indices)
                                 for indices in per_world] for per_world in holding]
                for f, program, masks in zip(corpus, programs, expected):
                    designated = sweep.designated_mask(program, ULTRAFILTERS[0])
                    for wi in range(n):
                        assert designated[wi] == masks[wi], (
                            format_formula(f), frame.lattice_of, bits)
                checked += 1
                # occasionally re-verify through the scalar evaluator
                if checked % 1500 == 0:
                    spot_checks += 1
                    index = checked % (1 << n)
                    booleans = {
                        (worlds[i], "p"): bool(index >> (n - 1 - i) & 1)
                        for i in range(n)
                    }
                    model = Model(
                        frame, {k: TOP if v else BOT for k, v in booleans.items()}
                    )
                    for f in corpus[:: max(1, len(corpus) // 7)]:
                        for w in worlds:
                            assert satisfies(model, w, f) == classical_reference_eval(
                                frame, booleans, w, f
                            )
    assert checked == 13974
    _report(11, "local agreement with classical Kripke", True,
            f"{checked} frames x {len(corpus)} formulas, {spot_checks} scalar spot checks",
            started)


def test_criterion_12_rule_soundness():
    started = time.monotonic()
    rows = rule_soundness_report()
    assert len(rows) == 12  # 11 value-functional schemes + the IB row
    for row in rows:
        assert row.passed, f"{row.rule}: {row.witness}"
    # negative control: AwB without its ball premise is refuted with a witness
    corrupted = consequence4([parse("x")], parse("@(x | y)"))
    assert not corrupted.holds and corrupted.witness is not None
    # the bundled modal-free theorem conclusions evaluate to exactly 1
    for name, derivation in load_bundled_corpus():
        final = derivation.final_judgment()
        if final.premises or not is_modal_free(final.conclusion):
            continue
        for assignment in all_valuations4(variables(final.conclusion)):
            assert eval4(final.conclusion, assignment) == TOP, name
    _report(12, "propositional rule soundness", True,
            "11 schemes + IB bundle by exhaustive enumeration", started)


def test_criterion_13_proof_checker():
    started = time.monotonic()
    from proof_corruptions import corruption_battery

    corpus = load_bundled_corpus()
    assert len(corpus) >= 10
    by_name = dict(corpus)
    used = {s.rule for _, d in corpus for s in d.steps}
    for tag in ("DB", "BR", "BF", "AwB", "NwB", "BC", "OV", "IB",
                "KA", "BB", "FC", "EA", "IN"):
        assert tag in used, tag
    # the IN application reproduces necessitation
    assert str(by_name["necessitation"].final_judgment()) == "|- [](p | ~p)"
    for name, derivation in corpus:
        result = check(derivation)
        assert result.accepted, (name, result.violation)
    cases = corruption_battery()
    assert len(cases) >= 10
    for name, corrupt, expected_step in cases:
        result = check(corrupt(by_name[name]))
        assert not result.accepted, name
        assert result.failed_step == expected_step, (name, result)
    for name, derivation in corpus:
        report = semantic_crosscheck(derivation, 2)
        assert report.sound, (name, report.countermodel)
    _report(13, "proof checker", True,
            f"{len(corpus)} derivations accepted, {len(cases)} corruptions rejected, "
            f"crosscheck clean at 2 worlds", started)


def test_criterion_14_parser_round_trip():
    started = time.monotonic()
    corpus = generate_corpus(["p", "q"], 4)
    assert len(corpus) == 6202
    for f in corpus:
        assert parse(format_formula(f)) == f
    for text in CRITERIA_FORMULAS:
        f = parse(text)
        assert parse(format_formula(f)) == f
        substituted = ball_substitution(f)
        assert parse(format_formula(substituted)) == substituted
    _report(14, "parser round trip", True,
            f"{len(corpus)} corpus formulas + criteria formulas", started)
