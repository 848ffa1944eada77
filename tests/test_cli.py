"""End-to-end checks of the command-line surface and its exit statuses."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from mlml.cli import main
from mlml.proofs import derivation_to_dict, load_bundled_corpus


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
def test_correspond_workers_honour_budgets(capsys, budget):
    code, out, err = run(capsys, "correspond", "--property", "reflexive",
                         "--formula", "[]p -> p", "--max-worlds", "3",
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


def test_indiscern(capsys):
    code, out, _ = run(capsys, "indiscern", "--corpus-depth", "1")
    assert code == 0
    assert out.strip() == "soob_F and soob_Fprime agree on all 5 corpus formulas"


def test_out_of_range_sizes_are_usage_errors(capsys):
    code, _, err = run(capsys, "enumerate", "--worlds", "0", "--count")
    assert code == 2 and "--worlds must be positive" in err
    code, _, err = run(capsys, "indiscern", "--corpus-depth", "-1")
    assert code == 2 and "--corpus-depth must be >= 0" in err


def test_checkproof_accept_and_reject(capsys, tmp_path):
    corpus = dict(load_bundled_corpus())
    doc = derivation_to_dict(corpus["necessitation"])
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


def test_proof_params_must_be_an_object(capsys, tmp_path):
    path = _document(tmp_path, {"steps": [{"premises": ["p"], "conclusion": "p",
                                           "rule": "Premise", "params": "x"}]})
    code, out, err = run(capsys, "checkproof", "--proof", path)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "step 0: params must be an object" in err


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
