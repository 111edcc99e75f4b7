import json
from fractions import Fraction

import pytest

from highprob.cli import main, model_from_dict, model_to_dict
from highprob.core import ProbabilityModel
from highprob.corpus import horses_cut, walley_fine_model


PROB_DOC = {"kind": "probability", "worlds": ["w1", "w2"],
            "partition": [["w1", "w2"]],
            "valuation": {"w1": ["p"], "w2": []},
            "weights": {"w1": "1/3", "w2": "2/3"}}
NBHD_DOC = {"kind": "neighborhood", "worlds": ["w1", "w2"],
            "partition": [["w1", "w2"]],
            "valuation": {"w1": ["p"], "w2": []},
            "generators": [[["w1"]]]}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestModelFiles:
    def test_probability_round_trip(self):
        m = horses_cut()
        again = model_from_dict(json.loads(json.dumps(model_to_dict(m))))
        assert isinstance(again, ProbabilityModel)
        assert again.frame.same_frame(m.frame)
        assert again.weights == m.weights

    def test_neighborhood_round_trip(self):
        m = walley_fine_model()
        again = model_from_dict(model_to_dict(m))
        assert again.generators == m.generators

    def test_rationals_as_strings(self):
        doc = model_to_dict(horses_cut())
        assert doc["weights"]["w1"] == "1/2"

    def test_integer_and_string_weights(self):
        one = model_from_dict(dict(PROB_DOC, worlds=["w1"],
                                   partition=[["w1"]], weights={"w1": 1}))
        assert one.weights == (Fraction(1),)
        assert model_from_dict(PROB_DOC).weights == (Fraction(1, 3),
                                                     Fraction(2, 3))

    def test_unknown_kind(self):
        from highprob.errors import HighProbError
        with pytest.raises(HighProbError):
            model_from_dict({"kind": "mystery", "worlds": [],
                             "partition": [], "valuation": {}})


class TestEval:
    def test_true_and_false_verdicts(self, capsys):
        code, out, _ = run(capsys, "eval", "--model", "horses1",
                           "--world", "w1", "--formula", "B (h1 | h2)",
                           "--threshold", "1/2")
        assert code == 0 and out.strip() == "true"
        code, out, _ = run(capsys, "eval", "--model", "horses1",
                           "--world", "w1", "--formula", "K h1",
                           "--threshold", "1/2")
        assert code == 1 and out.strip() == "false"

    def test_probability_language(self, capsys):
        code, out, _ = run(capsys, "eval", "--model", "horses1",
                           "--world", "w1", "--formula", "P(h1|h3) = 2/3")
        assert code == 0

    def test_neighborhood_model_needs_no_threshold(self, capsys):
        code, _, _ = run(capsys, "eval", "--model", "walley-fine",
                         "--world", "a", "--formula", "B (e | f | g)")
        assert code == 0

    def test_missing_threshold_is_an_error(self, capsys):
        code, _, err = run(capsys, "eval", "--model", "horses1",
                           "--world", "w1", "--formula", "B h1")
        assert code == 2 and "threshold" in err

    def test_text_both_languages_read_is_modal(self, capsys):
        # "h1" parses in both languages; the modal reading needs a threshold
        code, _, err = run(capsys, "eval", "--model", "horses1",
                           "--world", "w1", "--formula", "h1")
        assert code == 2 and "threshold" in err

    def test_json_flag_both_positions(self, capsys):
        for argv in (["--json", "eval", "--model", "horses1", "--world",
                      "w1", "--formula", "B (h1|h2)", "--threshold", "1/2"],
                     ["eval", "--json", "--model", "horses1", "--world",
                      "w1", "--formula", "B (h1|h2)", "--threshold", "1/2"]):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert json.loads(out) == {"verdict": True}

    def test_bad_formula_is_an_error(self, capsys):
        code, _, err = run(capsys, "eval", "--model", "horses1",
                           "--world", "w1", "--formula", "B &&",
                           "--threshold", "1/2")
        assert code == 2


class TestPipelines:
    def test_derive_synthesize_agree(self, capsys, tmp_path):
        code, out, _ = run(capsys, "derive", "--model", "horses3",
                           "--threshold", "1/2", "--json")
        assert code == 0
        derived = tmp_path / "derived.json"
        derived.write_text(out)
        assert json.loads(out)["kind"] == "neighborhood"

        code, out, _ = run(capsys, "synthesize", "--model", str(derived),
                           "--threshold", "1/2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["feasible"]
        measure = tmp_path / "measure.json"
        measure.write_text(json.dumps(doc["model"]))

        code, out, _ = run(capsys, "agree", "--nbhd", str(derived),
                           "--prob", str(measure), "--threshold", "1/2")
        assert code == 0 and out.strip() == "Holds"

    def test_agree_failure_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "kind": "neighborhood",
            "worlds": ["w1", "w2", "w3"],
            "partition": [["w1", "w2", "w3"]],
            "valuation": {"w1": ["h1"], "w2": ["h2"], "w3": ["h3"]},
            "generators": [[["w1"]]]}))
        code, out, _ = run(capsys, "agree", "--nbhd", str(bad),
                           "--prob", "horses3", "--threshold", "1/2")
        assert code == 1 and "Fails" in out

    def test_synthesize_infeasible(self, capsys):
        code, out, _ = run(capsys, "synthesize", "--model", "walley-fine",
                           "--threshold", "1/2")
        assert code == 1 and "INFEASIBLE" in out


class TestCheckModel:
    def test_walley_fine_base_pass_scott_fail(self, capsys):
        code, out, _ = run(capsys, "check-model", "--model", "walley-fine")
        assert code == 0
        code, _, err = run(capsys, "check-model", "--model", "walley-fine",
                           "--mid-threshold")
        assert code == 2 and "budget" in err  # 7-world cell, default 6
        code, out, _ = run(capsys, "check-model", "--model", "walley-fine",
                           "--mid-threshold", "--cell-budget", "7", "--json")
        assert code == 1
        doc = json.loads(out)
        assert doc["base"]["kbc"]["holds"]
        assert not doc["mid-threshold"]["scott"]["holds"]

    def test_conjectured(self, capsys, tmp_path):
        code, out, _ = run(capsys, "derive", "--model", "horses3",
                           "--threshold", "2/3", "--json")
        derived = tmp_path / "d.json"
        derived.write_text(out)
        code, out, _ = run(capsys, "check-model", "--model", str(derived),
                           "--conjectured", "2/3", "--json")
        assert code == 0
        assert "sc0^2" in json.loads(out)["conjectured"]


class TestCountermodel:
    def test_found_and_none(self, capsys):
        code, out, _ = run(capsys, "countermodel", "--formula",
                           "B (p -> q) -> (B p -> B q)", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["found"] and doc["model"]["kind"] == "neighborhood"
        code, out, _ = run(capsys, "countermodel", "--formula", "K p -> B p")
        assert code == 1 and out.strip().startswith("NONE")

    def test_probabilistic_mode(self, capsys):
        code, out, _ = run(capsys, "countermodel", "--formula", "B p -> p",
                           "--prob", "--trials", "500", "--max-worlds", "4",
                           "--json")
        assert code == 0
        assert json.loads(out)["model"]["kind"] == "probability"


class TestProve:
    def test_accept_and_reject(self, capsys, tmp_path):
        good = tmp_path / "good.proof"
        good.write_text("1. B true ; AX N\n2. K B true ; MN 1\n")
        code, out, _ = run(capsys, "prove", "--theory", "kb",
                           "--proof", str(good))
        assert code == 0 and out.strip() == "Accepted"

        bad = tmp_path / "bad.proof"
        bad.write_text("1. B true ; AX N\n2. K B p ; MN 1\n")
        code, out, _ = run(capsys, "prove", "--theory", "kb",
                           "--proof", str(bad), "--json")
        assert code == 1
        assert json.loads(out)["line"] == 2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "prove", "--theory", "kb",
                           "--proof", "/nonexistent.proof")
        assert code == 2


class TestComparative:
    def test_feasible_with_definetti(self, capsys, tmp_path):
        stmts = tmp_path / "stmts.txt"
        stmts.write_text("# strictly increasing singletons\na < b\nb < c\n")
        code, out, _ = run(capsys, "comparative", "--universe", "a b c",
                           "--statements", str(stmts), "--definetti",
                           "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["feasible"]
        assert all(doc["definetti"].values())

    def test_infeasible(self, capsys, tmp_path):
        stmts = tmp_path / "stmts.txt"
        stmts.write_text("a < b\nb < a\n")
        code, out, _ = run(capsys, "comparative", "--universe", "a b",
                           "--statements", str(stmts))
        assert code == 1 and "INFEASIBLE" in out

    def test_empty_event_token(self, capsys, tmp_path):
        stmts = tmp_path / "stmts.txt"
        stmts.write_text("- < a,b\n")
        code, _, _ = run(capsys, "comparative", "--universe", "a b",
                         "--statements", str(stmts))
        assert code == 0


class TestErrorContract:
    """Bad input exits 2 with one line on stderr, never a traceback."""

    def assert_error(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    def test_unknown_world(self, capsys):
        err = self.assert_error(capsys, "eval", "--model", "horses3",
                                "--world", "nope", "--formula", "h1",
                                "--threshold", "1/2")
        assert "'nope'" in err

    def test_model_missing_key(self, capsys, tmp_path):
        doc = tmp_path / "no-valuation.json"
        doc.write_text(json.dumps({"kind": "probability", "worlds": ["w1"],
                                   "partition": [["w1"]],
                                   "weights": {"w1": "1"}}))
        err = self.assert_error(capsys, "eval", "--model", str(doc),
                                "--world", "w1", "--formula", "p",
                                "--threshold", "1/2")
        assert "'valuation'" in err

    def test_unreadable_statements(self, capsys, tmp_path):
        missing = tmp_path / "no-such-statements.txt"
        err = self.assert_error(capsys, "comparative", "--universe", "a b",
                                "--statements", str(missing))
        assert "statements" in err

    def test_duplicate_worlds(self, capsys):
        err = self.assert_error(capsys, "comparative", "--universe", "a a")
        assert "duplicate" in err

    def assert_bad_model(self, capsys, tmp_path, doc):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        return self.assert_error(capsys, "eval", "--model", str(path),
                                 "--world", "w1", "--formula", "p",
                                 "--threshold", "1/2")

    def test_generator_names_unknown_world(self, capsys, tmp_path):
        err = self.assert_bad_model(capsys, tmp_path, dict(
            NBHD_DOC, generators=[[["w1", "w9"]]]))
        assert "'w9'" in err

    def test_valuation_not_an_object(self, capsys, tmp_path):
        err = self.assert_bad_model(capsys, tmp_path, dict(
            PROB_DOC, valuation=["p"]))
        assert "'valuation'" in err

    def test_null_weight(self, capsys, tmp_path):
        err = self.assert_bad_model(capsys, tmp_path, dict(
            PROB_DOC, weights={"w1": None, "w2": "1"}))
        assert "'w1'" in err

    def test_float_weight(self, capsys, tmp_path):
        err = self.assert_bad_model(capsys, tmp_path, dict(
            PROB_DOC, weights={"w1": 0.5, "w2": 0.5}))
        assert "'w1'" in err

    def test_bool_weight(self, capsys, tmp_path):
        err = self.assert_bad_model(capsys, tmp_path, dict(
            PROB_DOC, worlds=["w1"], partition=[["w1"]],
            weights={"w1": True}))
        assert "'w1'" in err

    def test_partition_names_unknown_world(self, capsys, tmp_path):
        err = self.assert_bad_model(capsys, tmp_path, dict(
            PROB_DOC, partition=[["w1", "w9"]]))
        assert "'w9'" in err

    def test_formula_nested_too_deep(self, capsys):
        err = self.assert_error(capsys, "eval", "--model", "horses3",
                                "--world", "w1",
                                "--formula", "~" * 5000 + "h1",
                                "--threshold", "1/2")
        assert err == "error: formula nested too deep\n"


class TestDemos:
    def test_all_demos_exit_zero(self, capsys):
        for scenario in ("walley-fine", "kps", "horses"):
            code, out, _ = run(capsys, "demo", scenario)
            assert code == 0, (scenario, out)

    def test_walley_fine_payload(self, capsys):
        code, out, _ = run(capsys, "demo", "walley-fine", "--json")
        doc = json.loads(out)
        assert doc["base_properties_hold"]
        assert doc["counting_violation"]["verified"]
        assert len(doc["counting_violation"]["xs"]) == 7
        assert doc["x_occurrences"] == [3] * 7
        assert doc["y_occurrences"] == [4] * 7
        assert set(doc["synthesis_feasible"].values()) == {False}

    def test_json_output_deterministic(self, capsys):
        a = run(capsys, "demo", "kps", "--json")
        b = run(capsys, "demo", "kps", "--json")
        assert a == b
