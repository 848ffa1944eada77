"""End-to-end checks of the command-line surface and its exit statuses."""

import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest

from mlml import frames
from mlml.cli import main


@pytest.fixture
def non_normality_model_file(tmp_path):
    doc = {
        "worlds": ["w", "u"],
        "lattices": {"w": "B", "u": "A"},
        "edges": [["w", "u"]],
        "ultrafilter": "e1",
        "valuation": {"w": {"p": "1"}, "u": {"p": "e1"}},
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _bundled_document(name):
    """The entry of the bundled derivation file for one derivation."""
    text = resources.files("mlml").joinpath("corpus/derivations.json").read_text("utf-8")
    return next(doc for doc in json.loads(text)["derivations"] if doc["name"] == name)


def test_eval_box_not_designated(capsys, non_normality_model_file):
    code, out, _ = run(capsys, "eval", "--model", non_normality_model_file,
                       "--world", "w", "--formula", "[]p")
    assert code == 0
    assert out.strip() == "0, not designated"


def test_eval_top(capsys, non_normality_model_file):
    code, out, _ = run(capsys, "eval", "--model", non_normality_model_file,
                       "--world", "u", "--formula", "T")
    assert code == 0
    assert out.strip() == "1, designated"


def test_eval_unknown_world(capsys, non_normality_model_file):
    code, _, err = run(capsys, "eval", "--model", non_normality_model_file,
                       "--world", "nowhere", "--formula", "p")
    assert code == 2
    assert "nowhere" in err


def test_eval_missing_variable_flag(capsys, non_normality_model_file):
    code, _, err = run(capsys, "eval", "--model", non_normality_model_file,
                       "--world", "w", "--formula", "q")
    assert code == 2
    code, out, _ = run(capsys, "eval", "--model", non_normality_model_file,
                       "--world", "w", "--formula", "q", "--missing-as-zero")
    assert code == 0
    assert out.strip() == "0, not designated"


def test_valid_reflexive_t(capsys, tmp_path):
    doc = {"worlds": ["w"], "lattices": {"w": "A"}, "edges": [["w", "w"]]}
    path = tmp_path / "frame.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "valid", "--frame", str(path), "--formula", "[]p -> p")
    assert code == 0
    assert out.strip() == "valid"


def test_valid_euc3_five_axiom_invalid_with_countermodel(capsys):
    code, out, _ = run(capsys, "valid", "--frame", "fixture:euc3",
                       "--formula", "<>p -> []<>p")
    assert code == 1
    body = out.split("\n", 1)[1]
    counter = json.loads(body)
    assert set(counter["worlds"]) == {"w", "u", "v"}
    assert counter["valuation"]


def test_valid_euc3_five_ball_all_ultrafilters(capsys):
    code, out, _ = run(capsys, "valid", "--frame", "fixture:euc3",
                       "--formula", "<>@p -> []<>@p", "--all-ultrafilters")
    assert code == 0
    assert out.strip() == "valid"


def test_taut4(capsys):
    code, out, _ = run(capsys, "taut4", "--formula", "@@p")
    assert code == 0 and out.strip() == "valid"
    code, out, _ = run(capsys, "taut4", "--formula", "@p")
    assert code == 1 and out.startswith("not valid")


def test_cons4_witness_line(capsys):
    code, out, _ = run(capsys, "cons4", "--premises", "p", "--goal", "@p")
    assert code == 1
    assert out.strip() == "not a consequence; witness p=a"
    code, out, _ = run(capsys, "cons4", "--premises", "@p; @q",
                       "--goal", "@(p & q)")
    assert code == 0


def test_taut4_cons4_reject_modal_input(capsys):
    code, out, err = run(capsys, "taut4", "--formula", "[]p")
    assert code == 2 and out == ""
    assert "modal operator in propositional evaluation: []p" in err
    # the goal is modal although the premise F designates nothing
    code, out, err = run(capsys, "cons4", "--premises", "F", "--goal", "[]p")
    assert code == 2 and out == ""
    assert "modal operator" in err
    # `<->` writes its operands out twice, so the text of 22 copies is past
    # MAX_FORMAT_LENGTH; the message names the operator alone.
    chain = "[](" + " <-> ".join(["p"] * 22) + ")"
    message = ("error: modal operator in propositional evaluation: "
               "[] over a formula longer than 1048576 characters\n")
    assert run(capsys, "taut4", "--formula", chain) == (2, "", message)
    assert run(capsys, "cons4", "--premises", "p", "--goal", chain) == (2, "", message)


def test_cons4_over_eleven_variables_hits_the_valuation_cap(capsys):
    names = [f"x{i}" for i in range(11)]
    code, out, err = run(capsys, "cons4", "--premises", "; ".join(names),
                         "--goal", " & ".join(names))
    assert code == 3 and out == ""
    assert "resource cap exceeded" in err


def test_search_finds_non_normality(capsys):
    code, out, _ = run(capsys, "search", "--premises", "p", "--goal", "[]p",
                       "--max-worlds", "2")
    assert code == 1
    counter = json.loads(out.split("\n", 1)[1])
    assert len(counter["worlds"]) == 2


def test_search_clean_k_axiom(capsys):
    code, out, _ = run(capsys, "search", "--goal", "[](p -> q) -> ([]p -> []q)",
                       "--max-worlds", "2")
    assert code == 0
    assert "no countermodel up to 2 worlds" in out


def test_search_with_required_property(capsys):
    code, out, _ = run(capsys, "search", "--goal", "<>p -> []<>p",
                       "--max-worlds", "3", "--require-property", "euclidean")
    assert code == 1


def test_correspond_summary_and_exit(capsys):
    code, out, _ = run(capsys, "correspond", "--property", "reflexive",
                       "--formula", "[]p -> p", "--max-worlds", "2",
                       "--all-ultrafilters")
    assert code == 0
    assert out.strip() == "6+144 frames x 3 ultrafilters, 0 mismatches"
    # The battery prints no formula, so a text past MAX_FORMAT_LENGTH is no cap.
    chain = " <-> ".join(["[]p"] * 22)
    code, out, err = run(capsys, "correspond", "--property", "reflexive",
                         "--formula", chain, "--max-worlds", "2")
    assert (code, out, err) == (1, "6+144 frames x 1 ultrafilters, 111 mismatches\n", "")


def test_correspond_csv_mismatches(capsys):
    code, out, _ = run(capsys, "correspond", "--property", "euclidean",
                       "--formula", "<>p -> []<>p", "--max-worlds", "2", "--csv")
    assert code == 1
    lines = out.strip().splitlines()
    assert lines[0] == "frame_encoding,property_holds,formula_valid,witness"
    assert any(line.startswith("2:") for line in lines[1:])


def test_correspond_workers_flag(capsys):
    code, out, _ = run(capsys, "correspond", "--property", "reflexive",
                       "--formula", "[]p -> p", "--max-worlds", "2",
                       "--workers", "2")
    assert code == 0
    assert out.strip().endswith("0 mismatches")


@pytest.mark.parametrize("budget", [("--time-budget", "0.01"), ("--max-frames", "100")])
def test_correspond_workers_honour_budgets(capsys, monkeypatch, budget):
    if budget[0] == "--time-budget":
        # Each read of the clock is a second after the last, so the deadline
        # has passed at the first check however fast the host is.
        ticks = itertools.count()
        monkeypatch.setattr(frames.time, "monotonic", lambda: float(next(ticks)))
    # Two variables, so that the pool starts: one sweep holds 16 relations.
    code, out, err = run(capsys, "correspond", "--property", "reflexive",
                         "--formula", "[]p -> q", "--max-worlds", "3",
                         "--workers", "2", *budget)
    assert code == 3 and out == ""
    assert "resource cap exceeded" in err


def test_correspond_deterministic(capsys):
    args = ("correspond", "--property", "euclidean", "--formula", "<>p -> []<>p",
            "--max-worlds", "2", "--csv")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--worlds", "1", "--count")
    assert code == 0 and out.strip() == "6"
    code, out, _ = run(capsys, "enumerate", "--worlds", "1")
    assert out.splitlines()[0] == "1:0:A"
    assert len(out.splitlines()) == 6


@pytest.mark.parametrize("worlds,digits", [(4, 7), (118, 4248), (119, None)])
def test_enumerate_count_is_arithmetic(capsys, monkeypatch, worlds, digits):
    """`--count` builds no frame.  From 119 worlds the count has more than
    the 4,300 digits that Python 3.11 converts to text by default: exit 3."""
    def enumerate_frames(*args, **kwargs):
        raise AssertionError("enumerated")

    monkeypatch.setattr(frames, "enumerate_frames", enumerate_frames)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(capsys, "enumerate", "--worlds", str(worlds), "--count")
    finally:
        sys.set_int_max_str_digits(limit)
    if digits is None:
        assert code == 3 and out == "" and err.startswith("resource cap exceeded: ")
    else:
        assert code == 0 and out == f"{frames.count_frames(worlds)}\n"
        assert len(out) == digits + 1


@pytest.mark.parametrize("worlds,count", [(1, 6), (2, 78), (3, 2456)])
def test_enumerate_reduce_count_builds_no_frame(capsys, monkeypatch, worlds, count):
    def enumerate_frames(*args, **kwargs):
        raise AssertionError("enumerated")

    monkeypatch.setattr(frames, "enumerate_frames", enumerate_frames)
    code, out, _ = run(capsys, "enumerate", "--worlds", str(worlds), "--reduce", "--count")
    assert code == 0 and out == f"{count}\n"


def test_indiscern(capsys):
    code, out, _ = run(capsys, "indiscern", "--corpus-depth", "1")
    assert code == 0
    assert out.strip() == "soob_F and soob_Fprime agree on all 5 corpus formulas"


def test_out_of_range_sizes_are_usage_errors(capsys):
    code, _, err = run(capsys, "enumerate", "--worlds", "0", "--count")
    assert code == 2 and "--worlds must be positive" in err
    code, _, err = run(capsys, "indiscern", "--corpus-depth", "-1")
    assert code == 2 and "--corpus-depth must be >= 0" in err
    code, out, err = run(capsys, "correspond", "--property", "reflexive",
                         "--formula", "[]p -> p", "--max-worlds", "1", "--time-budget", "nan")
    assert code == 2 and out == "" and "--time-budget must be positive" in err


def test_checkproof_accept_and_reject(capsys, tmp_path):
    doc = _bundled_document("necessitation")
    path = tmp_path / "proof.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "checkproof", "--proof", str(path), "--crosscheck")
    assert code == 0
    assert out.splitlines()[0] == "accepted: |- [](p | ~p)"
    assert "crosscheck clean" in out

    doc["steps"][3]["cites"] = [0, 0]
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "checkproof", "--proof", str(path))
    assert code == 1
    assert out.startswith("rejected at step 3")


def test_parse_error_exit(capsys):
    code, _, err = run(capsys, "taut4", "--formula", "p &")
    assert code == 2
    assert "offset" in err


def test_resource_cap_exit(capsys):
    code, _, err = run(capsys, "valid", "--frame", "fixture:soob_F",
                       "--formula", "[]p -> p", "--max-valuations", "16")
    assert code == 3
    assert "cap" in err


def test_running_out_of_memory_is_a_resource_exit(capsys, monkeypatch):
    def least_frames(n):
        raise MemoryError

    monkeypatch.setattr(frames, "least_frames", least_frames)
    assert run(capsys, "enumerate", "--worlds", "9", "--count", "--reduce") == (
        3, "", "resource cap exceeded: out of memory\n")


def test_unknown_property_names_the_known_ones(capsys):
    message = ("error: unknown property 'nope'; have euclidean, out_of_bubble, reflexive, "
               "serial, super_out_of_bubble, symmetric, transitive, "
               "transitive_through_difference, transitive_through_equality\n")
    assert run(capsys, "search", "--goal", "p", "--require-property", "nope") == (
        2, "", message)
    assert run(capsys, "correspond", "--property", "nope", "--formula", "p") == (
        2, "", message)


def test_bad_usage_exit(capsys):
    assert main(["correspond", "--property", "reflexive"]) == 2
    capsys.readouterr()


def test_unknown_fixture(capsys):
    code, _, err = run(capsys, "valid", "--frame", "fixture:nope",
                       "--formula", "p")
    assert code == 2
    assert "unknown fixture" in err


def test_correspond_workers_print_the_same_csv(capsys):
    args = ("correspond", "--property", "transitive", "--formula", "[]p -> [][]p",
            "--max-worlds", "3", "--all-ultrafilters", "--csv")
    code_one, one, _ = run(capsys, *args, "--workers", "1")
    code_two, two, _ = run(capsys, *args, "--workers", "2")
    assert code_one == code_two == 1
    assert two == one
    lines = one.splitlines()
    assert len(lines) == 2214 + 2
    assert lines[-1] == "6+144+13824 frames x 3 ultrafilters, 2214 mismatches"


def _document(tmp_path, doc) -> str:
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_model_valuation_entry_must_be_an_element_name(capsys, tmp_path):
    path = _document(tmp_path, {"worlds": ["w"], "lattices": {"w": "A"}, "edges": [],
                                "valuation": {"w": {"p": [1]}}})
    code, out, err = run(capsys, "eval", "--model", path, "--world", "w", "--formula", "p")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "unknown element name: [1]" in err


def test_lattice_key_must_be_a_world(capsys, tmp_path):
    path = _document(tmp_path, {"worlds": ["w"], "lattices": {"w": "A", "zz": "B"},
                                "edges": []})
    code, out, err = run(capsys, "valid", "--frame", path, "--formula", "p")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "unknown world 'zz'" in err


def test_proof_cites_must_be_a_list_of_integers(capsys, tmp_path):
    path = _document(tmp_path, {"steps": [{"premises": ["p"], "conclusion": "p",
                                           "rule": "Premise", "cites": "0"}]})
    code, out, err = run(capsys, "checkproof", "--proof", path)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "cites must be a list of integers" in err


@pytest.mark.parametrize("step, message", [
    ({"premises": "pq", "conclusion": "p", "rule": "Premise"}, "step 0: premises must be a list"),
    ({"premises": ["p"], "conclusion": "p", "rule": "Premise",
      "params": {"lambda": "pq", "gamma": [], "phi": "p"}}, "step 0: lambda must be a list"),
    ({"premises": ["p"], "conclusion": "p", "rule": "Premise",
      "params": {"lambda": [], "gamma": "pq", "phi": "p"}}, "step 0: gamma must be a list"),
])
def test_proof_formula_lists_must_be_arrays(capsys, tmp_path, step, message):
    """A string is not read as the list of its characters: premises "pq"
    would make `p, q |- p` an accepted premise step."""
    code, out, err = run(capsys, "checkproof", "--proof", _document(tmp_path, {"steps": [step]}))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


def _premise_step(**fields):
    return {"steps": [{"premises": ["p"], "conclusion": "p", "rule": "Premise", **fields}]}


@pytest.mark.parametrize("doc, message", [
    ({"steps": {}}, "bad proof document: steps must be a list"),
    ({"steps": ""}, "bad proof document: steps must be a list"),
    (_premise_step(conclusion=5), "step 0: conclusion must be a formula string"),
    (_premise_step(premises=[["p"]]), "step 0: premises entry must be a formula string"),
    (_premise_step(params={"lambda": [5], "gamma": [], "phi": "p"}),
     "step 0: lambda entry must be a formula string"),
    (_premise_step(params={"lambda": [], "gamma": [None], "phi": "p"}),
     "step 0: gamma entry must be a formula string"),
    (_premise_step(params={"lambda": [], "gamma": [], "phi": ["p"]}),
     "step 0: phi must be a formula string"),
])
def test_proof_documents_name_the_field_of_a_wrong_type(capsys, tmp_path, doc, message):
    """Steps that are not a list are a bad document, not an empty
    derivation, and a formula that is not a string names its field."""
    code, out, err = run(capsys, "checkproof", "--proof", _document(tmp_path, doc))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("doc, message", [
    ({"worlds": "wu", "lattices": {"w": "A", "u": "B"}, "edges": []}, "worlds must be a list"),
    ({"worlds": ["w", "u"], "lattices": {"w": "A", "u": "B"}, "edges": "wu"},
     "edges must be a list"),
    ({"worlds": ["w", "u"], "lattices": {"w": "A", "u": "B"}, "edges": ["wu"]},
     "each edge must be a list"),
    ({"worlds": ["w"], "lattices": ["wA"], "edges": []}, "lattices must map worlds to labels"),
])
def test_frame_lists_must_be_arrays(capsys, tmp_path, doc, message):
    """A string is not read as the list of its characters: edges ["wu"]
    would be the edge w -> u, and worlds "wu" two worlds."""
    path = _document(tmp_path, doc)
    for argv in (("valid", "--frame", path, "--formula", "p"),
                 ("eval", "--model", path, "--world", "w", "--formula", "T")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err


def test_proof_params_must_be_an_object(capsys, tmp_path):
    path = _document(tmp_path, {"steps": [{"premises": ["p"], "conclusion": "p",
                                           "rule": "Premise", "params": "x"}]})
    code, out, err = run(capsys, "checkproof", "--proof", path)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "step 0: params must be an object" in err


@pytest.mark.parametrize("argv", [
    ("eval", "--model", "{path}", "--world", "w", "--formula", "p"),
    ("valid", "--frame", "{path}", "--formula", "p"),
    ("checkproof", "--proof", "{path}"),
])
def test_deeply_nested_json_is_a_usage_error(capsys, tmp_path, argv):
    """A nesting deeper than the decoder recurses is a bad document, exit
    2, not a RecursionError traceback."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code, out, err = run(capsys, *(arg.format(path=path) for arg in argv))
    assert code == 2 and out == ""
    assert err == f"error: {path}: JSON nested too deeply\n"


def _cli(*argv, env=None, timeout=60):
    """Run the command line in a fresh interpreter."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src, **(env or {})}
    return subprocess.run([sys.executable, "-m", "mlml.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=timeout)


def test_worker_environment_variable_is_ignored():
    done = _cli("taut4", "--formula", "p | ~p", env={"MLML_WORKERS": "x"})
    assert (done.returncode, done.stdout, done.stderr) == (0, "valid\n", "")


def test_shared_subformulas_are_evaluated_once(tmp_path):
    """`<->` shares both operands, so a chain of 30 would cost 2**30 tree
    walks; evaluating and checking it visits each distinct node once."""
    chain = " <-> ".join(["p"] * 31)
    model = _document(tmp_path, {"worlds": ["w"], "lattices": {"w": "A"}, "edges": [],
                                 "valuation": {"w": {"p": "1"}}})
    started = time.monotonic()
    done = _cli("eval", "--model", model, "--world", "w", "--formula", chain)
    assert (done.returncode, done.stdout) == (0, "1, designated\n")
    done = _cli("valid", "--frame", "fixture:euc3", "--formula", chain)
    assert done.returncode == 1  # the countermodel is re-checked with eval_formula
    assert done.stdout.startswith("invalid under ultrafilter e1; countermodel:\n")
    assert time.monotonic() - started < 10


def _iff_chain_proof(tmp_path, operators):
    """A Premise step whose premise and conclusion are the same chain, the
    conclusion parenthesized so that it is parsed apart and compared by
    structure."""
    chain = " <-> ".join(["p"] * (operators + 1))
    return _document(tmp_path, {"steps": [{"premises": [chain], "conclusion": f"({chain})",
                                           "rule": "Premise", "cites": []}]})


def test_printing_stops_at_the_format_length_cap(capsys, tmp_path):
    """`<->` prints as its two implications, each holding both operands, so
    the text doubles with each operator: a 30-operator chain would need tens
    of GB and exits 3 instead, after hashing and comparing its shared nodes
    once each, while a 12-operator one prints as it always has (155,625
    bytes, digest taken before the cap existed)."""
    started = time.monotonic()
    code, out, err = run(capsys, "checkproof", "--proof", _iff_chain_proof(tmp_path, 30))
    assert time.monotonic() - started < 1
    assert (code, out) == (3, "")
    assert err.startswith("resource cap exceeded: formula text longer than")
    code, out, _ = run(capsys, "checkproof", "--proof", _iff_chain_proof(tmp_path, 12))
    assert code == 0 and len(out) == 155625
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "38f5980a0abffa929df41f70d0d5137520d98ba098b21520d88add821303d80b"
    )


def test_valid_under_every_ultrafilter_sweeps_the_frame_once(capsys, monkeypatch):
    from mlml import kripke

    built = []
    sweep = kripke.FrameSweep
    monkeypatch.setattr(kripke, "FrameSweep",
                        lambda *args, **kwargs: built.append(args) or sweep(*args, **kwargs))
    code, out, _ = run(capsys, "valid", "--frame", "fixture:euc3",
                       "--formula", "<>@p -> []<>@p", "--all-ultrafilters")
    assert (code, out, len(built)) == (0, "valid\n", 1)
    code, out, _ = run(capsys, "valid", "--frame", "fixture:euc3",
                       "--formula", "<>p -> []<>p", "--all-ultrafilters")
    assert code == 1 and out.startswith("invalid under ultrafilter e1; countermodel:\n")
    assert len(built) == 2


def test_crosscheck_past_the_frame_cap_exits_3(capsys, tmp_path):
    doc = _bundled_document("affirming_with_ball")
    path = _document(tmp_path, doc)
    start = time.perf_counter()
    code, out, err = run(capsys, "checkproof", "--proof", path, "--crosscheck",
                         "--crosscheck-worlds", "4", "--max-frames", "1000")
    assert time.perf_counter() - start < 10
    assert code == 3 and out == "accepted: @p, p |- @(p | q)\n"
    assert "frame budget of 1000 exhausted" in err
    code, _, err = run(capsys, "checkproof", "--proof", path, "--crosscheck",
                       "--max-valuations", "16")
    assert code == 3 and "exceed the cap of 16" in err


def test_model_valuation_of_a_world_outside_the_frame(capsys, tmp_path):
    path = _document(tmp_path, {"worlds": ["w"], "lattices": {"w": "A"}, "edges": [],
                                "valuation": {"w": {"p": "1"}, "z": {"p": "1"}}})
    code, out, err = run(capsys, "eval", "--model", path, "--world", "w", "--formula", "p")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "valuation of 'z': the world is not in the frame" in err


@pytest.mark.parametrize("ultrafilter", [5, ["e1"], "a"])
def test_model_ultrafilter_must_name_an_atom(capsys, tmp_path, ultrafilter):
    path = _document(tmp_path, {"worlds": ["w"], "lattices": {"w": "A"}, "edges": [],
                                "ultrafilter": ultrafilter, "valuation": {"w": {"p": "1"}}})
    code, out, err = run(capsys, "eval", "--model", path, "--world", "w", "--formula", "p")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "ultrafilter must be one of e1/e2/e3" in err


def test_one_process_answers_as_fresh_processes(capsys, monkeypatch, non_normality_model_file):
    """The parser is built on the first call and reused, also after a usage
    error; it is not built at import."""
    monkeypatch.setenv("COLUMNS", "80")
    calls = [
        ("search", "--premises", "p", "--goal", "[]p", "--max-worlds", "2"),
        ("search", "--premises", "p", "--max-worlds", "2"),
        ("correspond", "--property", "reflexive", "--formula", "[]p -> p", "--max-worlds", "2"),
        ("eval", "--model", non_normality_model_file, "--world", "w", "--formula", "[]p"),
        ("search", "--premises", "p", "--goal", "[]p", "--max-worlds", "2"),
    ]
    in_process = [run(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        done = _cli(*argv, env={"COLUMNS": "80"})
        fresh.append((done.returncode, done.stdout, done.stderr))
    assert in_process == fresh
    assert [code for code, _, _ in fresh] == [1, 2, 0, 0, 1]
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run([sys.executable, "-c", "import mlml.cli; print(mlml.cli._parser)"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.stdout == "None\n"
