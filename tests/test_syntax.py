"""Parser, printer, corpus generator and the substitution transform."""

import pickle

import pytest
from hypothesis import given, strategies as st

from mlml.cli import main
from mlml.kripke import Frame, Model, eval_formula
from mlml.syntax import (
    MAX_NESTING,
    And,
    Ball,
    Bot,
    Box,
    BoxDiff,
    BoxSame,
    Diamond,
    Iff,
    Imp,
    Not,
    Or,
    ParseError,
    Top,
    Var,
    Xor,
    ball_substitution,
    connective_count,
    corpus_size,
    format_formula,
    generate_corpus,
    parse,
    variables,
)

P, Q = Var("p"), Var("q")


def test_sugar_normalizes_at_construction():
    assert Imp(P, Q) == Or(Not(P), Q)
    assert Iff(P, Q) == And(Or(Not(P), Q), Or(Not(Q), P))
    assert Xor(P, Q) == Or(And(P, Not(Q)), And(Not(P), Q))


def test_parse_axiom_t_shape():
    assert parse("[]p -> p") == Or(Not(Box(P)), P)


def test_parse_five_ball_shape():
    five = parse("<>@p -> []<>@p")
    assert five == Or(Not(Diamond(Ball(P))), Box(Diamond(Ball(P))))


def test_parse_error_carries_offset_and_expectations():
    formula_start = ("identifier", "T", "F", "(", "~", "@", "[]", "<>", "[=]", "[-]")
    with pytest.raises(ParseError) as info:
        parse("p & (")
    assert info.value.position == 5
    assert info.value.expected == formula_start
    with pytest.raises(ParseError) as info:
        parse("?")
    assert str(info.value).startswith("unexpected character '?' at offset 0")
    assert info.value.expected == formula_start


def test_parse_error_cases():
    for text, offset in [("", 0), ("p |", 3), ("(p", 2), ("p q", 2), ("?", 0)]:
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.position == offset, text


@pytest.mark.parametrize("text,offset", [("é", 0), ("p²", 1), ("pÉ", 1), ("a٣", 1)])
def test_identifiers_are_ascii_as_the_grammar_says(text, offset, capsys):
    """An identifier is /[a-z][a-zA-Z0-9_]*/: a non-ASCII letter or digit
    neither starts one nor continues it."""
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.position == offset
    assert str(info.value).startswith(f"unexpected character {text[offset]!r}")
    assert main(["valid", "--frame", "fixture:euc3", "--formula", text]) == 2
    assert "unexpected character" in capsys.readouterr().err


def test_precedence_and_associativity():
    assert parse("p & q & r") == And(And(P, Q), Var("r"))
    assert parse("p | q & r") == Or(P, And(Q, Var("r")))
    assert parse("p -> q -> r") == Imp(P, Imp(Q, Var("r")))
    assert parse("~p & q") == And(Not(P), Q)
    assert parse("[][]p") == Box(Box(P))
    assert parse("[=][-]p") == BoxSame(BoxDiff(P))
    assert parse("p ^ q | r") == Or(Xor(P, Q), Var("r"))
    assert parse("T & ~F") == And(Top(), Not(Bot()))


def test_print_examples():
    assert format_formula(Box(P)) == "[]p"
    assert format_formula(Or(Not(P), Q)) == "~p | q"
    assert format_formula(BoxDiff(BoxSame(And(Ball(P), P)))) == "[-][=](@p & p)"
    assert format_formula(And(Or(P, Q), Var("r"))) == "(p | q) & r"
    assert format_formula(Or(P, Or(Q, Var("r")))) == "p | (q | r)"
    assert format_formula(Not(And(P, Q))) == "~(p & q)"


_leaves = st.sampled_from([Var("p"), Var("q"), Var("r_1"), Top(), Bot()])


def _extend(children):
    unary = st.sampled_from([Not, Ball, Box, Diamond, BoxSame, BoxDiff])
    binary = st.sampled_from([And, Or, Imp, Iff, Xor])
    return st.one_of(
        st.builds(lambda op, f: op(f), unary, children),
        st.builds(lambda op, f, g: op(f, g), binary, children, children),
    )


formula_trees = st.recursive(_leaves, _extend, max_leaves=25)


@given(formula_trees)
def test_round_trip(f):
    g = parse(format_formula(f))
    assert g == f and hash(g) == hash(f) and Not(g) != f
    copied = pickle.loads(pickle.dumps(f))  # without the hash, which is per process
    assert copied == f and "_hash" not in vars(copied)


@given(formula_trees)
def test_ball_substitution_grows_by_variable_occurrences(f):
    def leaf_count(g):
        if isinstance(g, Var):
            return 1
        if isinstance(g, (Top, Bot)):
            return 0
        if isinstance(g, (And, Or)):
            return leaf_count(g.left) + leaf_count(g.right)
        return leaf_count(g.sub)

    substituted = ball_substitution(f)
    assert connective_count(substituted) == connective_count(f) + leaf_count(f)


def test_ball_substitution_examples():
    assert ball_substitution(parse("[]p -> p")) == parse("[]@p -> @p")
    assert ball_substitution(Top()) == Top()
    assert ball_substitution(parse("p & @q")) == parse("@p & @@q")
    # idempotent on variable-free formulas
    closed = parse("@(T & ~F)")
    assert ball_substitution(closed) == closed


def test_variables_and_connective_count():
    f = parse("[](p -> q) & @p")
    assert variables(f) == ("p", "q")
    assert variables(Top()) == ()
    assert variables(f, parse("r | F"), Top()) == ("p", "q", "r")
    assert variables() == ()
    assert connective_count(P) == 0
    assert connective_count(parse("~p")) == 1
    assert connective_count(parse("p -> q")) == 2  # stored as ~p | q
    assert connective_count(parse("p <-> q")) == 5  # two implications conjoined


def test_generate_corpus_base_cases():
    assert generate_corpus(["p"], 0) == [P]
    one = generate_corpus(["p"], 1)
    assert len(one) == 5
    assert set(one) == {P, Not(P), And(P, P), Ball(P), Box(P)}


def test_generate_corpus_counts_match_recurrence():
    for var_names, depth in [(["p"], 2), (["p"], 3), (["p", "q"], 2), (["p", "q"], 3)]:
        corpus = generate_corpus(var_names, depth)
        assert len(corpus) == corpus_size(len(var_names), depth)


def test_generate_corpus_ordered_and_duplicate_free():
    corpus = generate_corpus(["p", "q"], 2)
    assert len(set(corpus)) == len(corpus)
    keys = [(connective_count(f), format_formula(f)) for f in corpus]
    assert keys == sorted(keys)


def test_generate_corpus_closed_under_subformulas():
    corpus = set(generate_corpus(["p"], 3))
    from mlml.syntax import _post_order

    for f in corpus:
        for g in _post_order(f):
            assert g in corpus


def test_generate_corpus_rejects_negative_bound():
    with pytest.raises(ValueError):
        generate_corpus(["p"], -1)


@given(st.text(alphabet="pq_01~@[]<>&|^->TF() \t", max_size=40))
def test_parser_total_on_arbitrary_text(text):
    # arbitrary input either parses or raises ParseError with a position
    # inside the text; nothing else escapes
    try:
        parse(text)
    except ParseError as exc:
        assert 0 <= exc.position <= len(text)


_NESTED = {
    "negation": lambda k: "~" * k + "p",
    "box": lambda k: "[]" * k + "p",
    "parentheses": lambda k: "(" * k + "p" + ")" * k,
}


@pytest.mark.parametrize("shape", sorted(_NESTED))
def test_formulas_at_the_nesting_limit_work_end_to_end(shape, capsys):
    text = _NESTED[shape](MAX_NESTING)
    f = parse(text)
    printed = format_formula(f)
    assert printed == ("p" if shape == "parentheses" else text)
    assert parse(printed) == f
    looped = Frame(("w",), frozenset({("w", "w")}), {"w": "A"})
    assert eval_formula(Model(looped, {("w", "p"): 1}), "w", f) == 1
    code = main(["taut4", "--formula", text])
    out, err = capsys.readouterr()
    if shape == "box":
        assert code == 2 and "modal operator" in err
    else:
        assert code == 1 and out == "not valid; witness p=0\n"


@pytest.mark.parametrize("shape", sorted(_NESTED))
def test_formulas_over_the_nesting_limit_exit_2(shape, capsys):
    text = _NESTED[shape](MAX_NESTING + 1)
    with pytest.raises(ParseError, match="nested deeper than"):
        parse(text)
    assert main(["taut4", "--formula", text]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "Traceback" not in err


def test_nesting_counts_every_operator_and_parenthesis():
    chain = " & ".join(["p"] * (MAX_NESTING + 1))
    assert connective_count(parse(chain)) == MAX_NESTING
    with pytest.raises(ParseError, match="nested deeper than"):
        parse(chain + " & p")
    with pytest.raises(ParseError, match="nested deeper than"):
        parse("~" * (MAX_NESTING - 1) + "(p | q)")


def _tree_connectives(f):
    if isinstance(f, (Var, Top, Bot)):
        return 0
    if isinstance(f, (And, Or)):
        return 1 + _tree_connectives(f.left) + _tree_connectives(f.right)
    return 1 + _tree_connectives(f.sub)


def _tree_modal_free(f):
    if isinstance(f, (Box, Diamond, BoxSame, BoxDiff)):
        return False
    if isinstance(f, (And, Or)):
        return _tree_modal_free(f.left) and _tree_modal_free(f.right)
    if isinstance(f, (Var, Top, Bot)):
        return True
    return _tree_modal_free(f.sub)


def _tree_variables(f):
    if isinstance(f, Var):
        return {f.name}
    if isinstance(f, (And, Or)):
        return _tree_variables(f.left) | _tree_variables(f.right)
    if isinstance(f, (Top, Bot)):
        return set()
    return _tree_variables(f.sub)


def _tree_code(f):
    """compile_formula's code, hash-consed over the written-out tree."""
    from mlml import _sweep

    code = []
    unary = {Not: _sweep.NOT, Ball: _sweep.BALL, Box: _sweep.BOX,
             BoxSame: _sweep.BOX_SAME, BoxDiff: _sweep.BOX_DIFF}

    def emit(op, a=-1, b=-1):
        if (op, a, b) not in code:
            code.append((op, a, b))
        return code.index((op, a, b))

    def walk(g):
        if isinstance(g, Var):
            return emit(_sweep.VAR, g.name)
        if isinstance(g, (Top, Bot)):
            return emit(_sweep.TOP_OP if isinstance(g, Top) else _sweep.BOT_OP)
        if isinstance(g, (And, Or)):
            left, right = walk(g.left), walk(g.right)
            return emit(_sweep.AND if isinstance(g, And) else _sweep.OR, left, right)
        sub = walk(g.sub)
        if isinstance(g, Diamond):
            return emit(_sweep.NOT, emit(_sweep.BOX, emit(_sweep.NOT, sub)))
        return emit(unary[type(g)], sub)

    walk(f)
    return tuple(code)


def _tree_ball_substitution(f):
    if isinstance(f, Var):
        return Ball(f)
    if isinstance(f, (And, Or)):
        return type(f)(_tree_ball_substitution(f.left), _tree_ball_substitution(f.right))
    if isinstance(f, (Top, Bot)):
        return f
    return type(f)(_tree_ball_substitution(f.sub))


def _tree_subformulas(f):
    if isinstance(f, (And, Or)):
        yield from _tree_subformulas(f.left)
        yield from _tree_subformulas(f.right)
    elif not isinstance(f, (Var, Top, Bot)):
        yield from _tree_subformulas(f.sub)
    yield f


def _iff_chains(operators):
    """`p <-> p <-> ...` and a modal variant, with the given count of `<->`."""
    yield parse(" <-> ".join(["p"] * (operators + 1)))
    yield parse(" <-> ".join((["[]p", "q", "@p"] * (operators + 1))[: operators + 1]))


def test_syntax_walks_match_the_tree_walk_on_shared_chains():
    from mlml._sweep import compile_formula
    from mlml.syntax import _post_order, is_modal_free

    for operators in range(13):
        for f in _iff_chains(operators):
            assert connective_count(f) == _tree_connectives(f)
            assert is_modal_free(f) == _tree_modal_free(f)
            assert variables(f) == tuple(sorted(_tree_variables(f)))
            assert compile_formula(f).code == _tree_code(f)
            assert ball_substitution(f) == _tree_ball_substitution(f)
            firsts = []
            for g in _tree_subformulas(f):
                if g not in firsts:
                    firsts.append(g)
            assert list(dict.fromkeys(_post_order(f))) == firsts


def test_syntax_walks_visit_each_shared_node_once():
    import time

    from mlml._sweep import compile_formula
    from mlml.syntax import _post_order, fold_constants, is_modal_free

    def node_count(f):
        return len(list(_post_order(f)))

    # Ball substitution keeps shared nodes shared, adding one @x per
    # variable node; substituting the written-out tree of 16 operators
    # builds about 524,000 nodes.
    for f in _iff_chains(16):
        assert node_count(ball_substitution(f)) <= 2 * node_count(f)
    started = time.perf_counter()
    for f in _iff_chains(30):
        connective_count(f)
        is_modal_free(f)
        assert fold_constants(f) is f
        found = list(dict.fromkeys(_post_order(f)))
        assert len(found) == len(set(found))
        assert variables(f) == tuple(sorted({g.name for g in found if isinstance(g, Var)}))
        assert len(compile_formula(f).code) == len(found)
        assert node_count(ball_substitution(f)) <= 2 * node_count(f)
    # Folds that rebuild the shared nodes keep them shared.
    folded = fold_constants(parse(" <-> ".join(["[]p & @@q"] * 31)))
    assert connective_count(folded) == connective_count(parse(" <-> ".join(["[]p"] * 31)))
    assert time.perf_counter() - started < 1.0
    assert connective_count(parse(" <-> ".join(["p"] * 31))) == 5 * (2 ** 30 - 1)
