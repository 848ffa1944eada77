"""Fuzz test of the exit-status contract: whatever the arguments, formulas
and documents, `mlml` exits 0, 1, 2 or 3 and never with a traceback.

Every run is kept small: at most two worlds, one worker and the default
valuation cap or less, and no `indiscern`.
"""

import contextlib
import copy
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from mlml.cli import main

MODEL = {
    "worlds": ["w", "u"],
    "lattices": {"w": "B", "u": "A"},
    "edges": [["w", "u"], ["u", "u"]],
    "ultrafilter": "e1",
    "valuation": {"w": {"p": "1", "q": "0"}, "u": {"p": "e1", "q": "e23"}},
}
FRAME = {key: MODEL[key] for key in ("worlds", "lattices", "edges")}
PROOF = {"steps": [
    {"premises": ["@p"], "conclusion": "@p", "rule": "Premise", "cites": []},
    {"premises": ["@p"], "conclusion": "@~p", "rule": "BR", "cites": [0]},
]}

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
    | st.text(alphabet="wupq01e23ABC[]~", max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(alphabet="wupq", max_size=2), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _mostly(draw, valid, invalid):
    """A valid value, or an invalid one about one time in four."""
    garbled = draw(st.sampled_from([False, False, False, True]))
    return draw(invalid if garbled else valid)


FORMULAS = _mostly(
    st.sampled_from(["p", "q", "T", "F", "[]p -> p", "<>@p -> []<>@p", "p <-> q",
                     "[=]p & [-]q", "@(p ^ q)", "~[]~(p | q)"]),
    st.sampled_from(["~(p", "p q", "", "@@@", "[]", "p ->"])
    | st.text(alphabet="pq~@[]<>&|^->TF() =", max_size=16),
)
pick = st.sampled_from
WORLDS = _mostly(pick(["1", "2"]), pick(["-1", "0", "x"]))
FRAME_CAPS = _mostly(pick(["1", "5", "100", "1000"]), pick(["-2", "0", "x", "1.5"]))
VALUATION_CAPS = _mostly(pick(["16", "256", str(4 ** 10)]), pick(["-1", "0", "1"]))
PROPERTIES = _mostly(pick(["reflexive", "euclidean", "super_out_of_bubble"]), pick(["nope", ""]))


def _mutated(draw, value):
    """The value with one part replaced by random JSON or dropped."""
    if isinstance(value, dict) and value and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(value)))
        if draw(st.integers(0, 4)) == 0:
            del value[key]
        else:
            value[key] = _mutated(draw, value[key])
        return value
    if isinstance(value, list) and value and draw(st.booleans()):
        i = draw(st.integers(0, len(value) - 1))
        value[i] = _mutated(draw, value[i])
        return value
    return draw(JSON)


@st.composite
def documents(draw, template):
    doc = copy.deepcopy(template)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        doc = _mutated(draw, doc)
    return doc


def _options(draw, flags):
    """Each optional flag, with its value, or left out."""
    argv = []
    for flag, values in flags:
        if draw(st.booleans()):
            argv.append(flag)
            if values is not None:
                argv.append(draw(values))
    return argv


@st.composite
def command_lines(draw):
    """(argv, documents to write first), one subcommand at random."""
    command = draw(st.sampled_from(
        ["eval", "valid", "taut4", "cons4", "search", "correspond", "enumerate", "checkproof"]))
    ultrafilters = [("--ultrafilter", st.sampled_from(["e1", "e2", "e3", "e4"])),
                    ("--all-ultrafilters", None)]
    files = {}
    if command == "eval":
        files["model.json"] = draw(documents(MODEL))
        argv = ["--model", "model.json", "--world", draw(st.sampled_from(["w", "u", "v"])),
                "--formula", draw(FORMULAS)]
        argv += _options(draw, [("--ultrafilter", st.sampled_from(["e1", "e3", "x"])),
                                ("--missing-as-zero", None)])
    elif command == "valid":
        files["frame.json"] = draw(documents(FRAME))
        frame = draw(st.sampled_from(["frame.json", "fixture:euc3", "fixture:soob_F",
                                      "fixture:nope", "missing.json"]))
        argv = ["--frame", frame, "--formula", draw(FORMULAS)]
        argv += _options(draw, ultrafilters + [("--max-valuations", VALUATION_CAPS)])
    elif command == "taut4":
        argv = ["--formula", draw(FORMULAS)]
    elif command == "cons4":
        argv = ["--goal", draw(FORMULAS)]
        for premise in draw(st.lists(FORMULAS, max_size=2)):
            argv += ["--premises", premise]
    elif command == "search":
        argv = ["--goal", draw(FORMULAS), "--max-worlds", draw(WORLDS)]
        for premise in draw(st.lists(FORMULAS, max_size=2)):
            argv += ["--premises", premise]
        argv += _options(draw, ultrafilters + [
            ("--require-property", PROPERTIES),
            ("--max-frames", FRAME_CAPS),
            ("--max-valuations", VALUATION_CAPS),
        ])
    elif command == "correspond":
        argv = ["--property", draw(PROPERTIES), "--formula", draw(FORMULAS),
                "--max-worlds", draw(WORLDS)]
        argv += _options(draw, ultrafilters + [
            ("--csv", None),
            ("--workers", _mostly(pick(["1"]), pick(["-1", "0"]))),
            ("--time-budget", _mostly(pick(["0.000001", "5"]), pick(["-1", "0"]))),
            ("--max-frames", FRAME_CAPS),
            ("--max-valuations", VALUATION_CAPS),
        ])
    elif command == "enumerate":
        argv = ["--worlds", draw(WORLDS)] + _options(draw, [("--count", None),
                                                            ("--reduce", None)])
    else:
        files["proof.json"] = draw(documents(PROOF))
        argv = ["--proof", draw(st.sampled_from(["proof.json", "missing.json"]))]
        argv += _options(draw, [("--crosscheck", None),
                                ("--crosscheck-worlds", WORLDS)])
    stray = draw(st.sampled_from([None] * 18 + ["--bogus", "-h"]))
    if stray is not None:
        argv.insert(draw(st.integers(0, len(argv))), stray)
    return [command] + argv, files


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(command_lines())
def test_every_command_line_exits_with_a_contract_status(tmp_path_factory, case):
    argv, files = case
    where = tmp_path_factory.mktemp("fuzz")
    for name, doc in files.items():
        (where / name).write_text(json.dumps(doc))
    argv = [str(where / a) if a.endswith(".json") else a for a in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
