import json
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
        assert again.frame == m.frame
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
        # the 7-world cell is decided by the stored m = 2 violation
        assert out == ("INFEASIBLE\n"
                       "witness: scott fails in cell 0, m = 2: "
                       "X {a,c,e} {b,d,e}; Y {a,b,e,f} {c,d,e,f}\n")

    def test_synthesize_reports_the_witness(self, capsys, tmp_path):
        # a 5-world cell: strong commitment fails at 1/2, and a counting
        # witness with m = 2 shows it has no measure at 2/3
        path = tmp_path / "five.json"
        path.write_text(json.dumps(dict(
            NBHD_DOC, worlds=list("abcde"), partition=[list("abcde")],
            valuation={}, generators=[[list("acd"), list("bcd"),
                                       list("bde"), list("abce")]])))
        code, out, _ = run(capsys, "synthesize", "--model", str(path),
                           "--threshold", "1/2")
        assert code == 1
        assert out == ("INFEASIBLE\n"
                       "witness: sc fails in cell 0: {b,c} {a,b,c}\n")
        code, out, _ = run(capsys, "synthesize", "--model", str(path),
                           "--threshold", "2/3")
        assert code == 1
        assert out.splitlines() == [
            "INFEASIBLE",
            "witness: ws fails in cell 0, m = 2: "
            "X {a,c,d} {b,d,e}; Y {a,b,d} {c,d,e}"]
        code, out, _ = run(capsys, "--json", "synthesize", "--model",
                           str(path), "--threshold", "2/3")
        assert code == 1
        assert json.loads(out) == {
            "feasible": False, "cell": 0,
            "witness": {"condition": "ws", "cell": 0, "m": 2,
                        "xs": [["a", "c", "d"], ["b", "d", "e"]],
                        "ys": [["a", "b", "d"], ["c", "d", "e"]]}}

    def test_synthesize_reports_a_load_witness(self, capsys, tmp_path):
        # three believed sets with no world in all three: at 2/3 their
        # masses would sum past 2, yet each world counts at most twice
        path = tmp_path / "four.json"
        path.write_text(json.dumps(dict(
            NBHD_DOC, worlds=list("abcd"), partition=[list("abcd")],
            valuation={}, generators=[[list("ad"), list("abc"),
                                       list("bcd")]])))
        code, out, _ = run(capsys, "synthesize", "--model", str(path),
                           "--threshold", "2/3")
        assert code == 1
        assert out == ("INFEASIBLE\n"
                       "witness: load fails in cell 0: "
                       "{a,d} {a,b,c} {b,c,d}\n")
        code, out, _ = run(capsys, "--json", "synthesize", "--model",
                           str(path), "--threshold", "2/3")
        assert code == 1
        assert json.loads(out) == {
            "feasible": False, "cell": 0,
            "witness": {"condition": "load", "cell": 0,
                        "sets": [["a", "d"], ["a", "b", "c"],
                                 ["b", "c", "d"]]}}


class TestCheckModel:
    def test_walley_fine_base_pass_scott_fail(self, capsys):
        code, out, _ = run(capsys, "check-model", "--model", "walley-fine")
        assert code == 0
        code, out, _ = run(capsys, "check-model", "--model", "walley-fine",
                           "--mid-threshold", "--json")
        assert code == 1  # 7 worlds are within the default budget
        assert json.loads(out)["mid-threshold"]["scott"]["witness"] == {
            "cell": 0, "xs": [["a", "c", "e"], ["b", "d", "e"]],
            "ys": [["a", "b", "e", "f"], ["c", "d", "e", "f"]]}
        code, _, err = run(capsys, "check-model", "--model", "walley-fine",
                           "--mid-threshold", "--cell-budget", "6")
        assert code == 2 and "budget" in err
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

    def test_definetti_above_five_worlds(self, capsys, tmp_path):
        stmts = tmp_path / "stmts.txt"
        stmts.write_text("a < b\n")
        err = self.assert_error(capsys, "comparative", "--universe",
                                "a b c d e f", "--statements", str(stmts),
                                "--definetti")
        assert err == "error: condition table limited to 5 worlds\n"

    def test_duplicate_worlds(self, capsys):
        err = self.assert_error(capsys, "comparative", "--universe", "a a")
        assert "duplicate" in err

    def test_universe_names_statements_cannot_name(self, capsys, tmp_path):
        # statements read - as the empty set, split events at commas and
        # skip lines that start with #, so a world named - would read as {},
        # one with a comma as two, and a statement starting #a as a comment
        stmts = tmp_path / "stmts.txt"
        stmts.write_text("a < -\n")
        for universe, name in (("- a", "-"), ("a b,c", "b,c"), ("#a b", "#a")):
            err = self.assert_error(capsys, "comparative", "--universe",
                                    universe, "--statements", str(stmts))
            assert err.startswith(f"error: universe name {name!r} ")

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

    def test_valuation_names_unknown_world(self, capsys, tmp_path):
        # its atoms were once dropped and eval answered without an error
        err = self.assert_bad_model(capsys, tmp_path, dict(
            PROB_DOC, valuation={"w1": ["p"], "w3": ["p"]}))
        assert err == "error: the valuation names unknown world 'w3'\n"

    def test_partition_names_unknown_world(self, capsys, tmp_path):
        err = self.assert_bad_model(capsys, tmp_path, dict(
            PROB_DOC, partition=[["w1", "w9"]]))
        assert "'w9'" in err

    def test_threshold_in_exponent_notation(self, capsys):
        # read as p/q or a plain decimal, never expanded by Fraction
        for flags in (["eval", "--model", "horses3", "--world", "w1",
                       "--formula", "h1", "--threshold"],
                      ["check-model", "--model", "walley-fine",
                       "--conjectured"]):
            err = self.assert_error(capsys, *flags, "1e1000000")
            assert "'1e1000000'" in err

    def test_m_max_below_one(self, capsys):
        # Walley-Fine fails scott at m = 2 and ws at 2/3: a bound that
        # searches no list must not report that they hold
        for flags in (["--mid-threshold"], ["--conjectured", "2/3"]):
            for m_max in ("0", "-1"):
                err = self.assert_error(capsys, "check-model", "--model",
                                        "walley-fine", *flags,
                                        "--m-max", m_max)
                assert err == f"error: m_max must be at least 1, " \
                              f"not {m_max}\n"

    def test_countermodel_bounds_below_one(self, capsys):
        # p fails at one world: a bound that searches no model must not
        # report that there is none
        for flags, name, bound in (
                (["--max-worlds", "0"], "max_worlds", "0"),
                (["--mid-threshold", "--max-worlds", "-2"], "max_worlds",
                 "-2"),
                (["--prob", "--trials", "0"], "trials", "0"),
                (["--prob", "--trials", "-3"], "trials", "-3"),
                (["--prob", "--max-worlds", "0"], "max_worlds", "0")):
            err = self.assert_error(capsys, "countermodel", "--formula",
                                    "p", *flags)
            assert err == f"error: {name} must be at least 1, not {bound}\n"
        code, out, _ = run(capsys, "countermodel", "--formula", "p",
                           "--max-worlds", "1")
        assert code == 0 and out.startswith("false at w1")

    def test_countermodel_past_the_enumeration_bound(self, capsys):
        err = self.assert_error(capsys, "countermodel", "--formula", "p",
                                "--max-worlds", "6")
        assert err == "error: enumeration supports at most 5 worlds\n"

    def test_prob_countermodel_past_the_sampling_bound(self, capsys):
        err = self.assert_error(capsys, "countermodel", "--prob",
                                "--formula", "K p -> p", "--max-worlds",
                                "65", "--trials", "1")
        assert err == "error: sampling supports at most 64 worlds\n"

    def test_prob_countermodel_past_the_trials_bound(self, capsys):
        # refused before any model is sampled, however many trials
        for trials in ("100001", "1000000000"):
            err = self.assert_error(capsys, "countermodel", "--prob",
                                    "--formula", "K p -> p", "--trials",
                                    trials)
            assert err == "error: sampling supports at most 100000 trials\n"

    def test_substitution_leaving_a_metavariable_unbound(self, capsys,
                                                        tmp_path):
        # a negative verdict, not an error: Ap's phi stays unbound
        proof = tmp_path / "proof.txt"
        proof.write_text("1. B p -> K B p ; AX Ap {chi := p}\n")
        code, out, err = run(capsys, "prove", "--theory", "kb",
                             "--proof", str(proof))
        assert code == 1 and err == ""
        assert out == "RejectedAt line 1: substitution does not produce " \
                      "line\n"

    def test_formula_error_from_the_parser_that_read_further(self, capsys):
        # both parsers refuse each formula: the modal one reads 'B (h1 &'
        # to its end, the probability one reads its formula up to 'B'
        def error(formula):
            return self.assert_error(capsys, "eval", "--model", "horses3",
                                     "--world", "w1", "--formula", formula,
                                     "--threshold", "1/2")
        assert error("B (h1 &") == \
            "error: unexpected end of input at offset 7\n"
        assert error("P(h1) >= 1/2 & B h1") == \
            "error: unexpected B at offset 15\n"

    def test_scott_scheme_past_the_expansion_guard(self, capsys, tmp_path):
        # kb-half has every Scott_m, but m = 17 would expand past the
        # guard: an error; kb has none of them: a rejected line
        proof = tmp_path / "proof.txt"
        proof.write_text("1. p -> p ; AX Scott17\n")
        err = self.assert_error(capsys, "prove", "--theory", "kb-half",
                                "--proof", str(proof))
        assert err == "error: m=17 exceeds expansion guard 4\n"
        code, out, err = run(capsys, "prove", "--theory", "kb",
                             "--proof", str(proof))
        assert code == 1 and err == ""
        assert out == "RejectedAt line 1: scheme Scott17 not in kb\n"

    def test_threshold_with_a_zero_denominator(self, capsys):
        # refused as text before Fraction sees it, which named neither
        # the field nor the input: 'error: Fraction(1, 0)'
        for flags in (["eval", "--model", "horses3", "--world", "w1",
                       "--formula", "h1", "--threshold"],
                      ["check-model", "--model", "walley-fine",
                       "--conjectured"],
                      ["countermodel", "--formula", "p", "--prob",
                       "--threshold"]):
            for bad in ("1/0", "2/0", "0/00"):
                err = self.assert_error(capsys, *flags, bad)
                assert err == f"error: threshold must be p/q or a plain " \
                              f"decimal, not '{bad}'\n"
        # a leading zero in the denominator is still fine
        argv = ("eval", "--model", "horses3", "--world", "w1", "--formula",
                "B h1", "--threshold")
        assert run(capsys, *argv, "1/05") == run(capsys, *argv, "1/5")

    def test_weight_with_a_zero_denominator(self, capsys, tmp_path):
        err = self.assert_bad_model(capsys, tmp_path, dict(
            PROB_DOC, weights={"w1": "1/0", "w2": "1"}))
        assert err == "error: weight of 'w1' must be p/q or a plain " \
                      "decimal, not '1/0'\n"

    def test_formula_with_a_zero_denominator(self, capsys):
        def error(formula):
            return self.assert_error(capsys, "eval", "--model", "horses3",
                                     "--world", "w1", "--formula", formula,
                                     "--threshold", "1/2")
        assert error("P(h1) >= 0/0") == \
            "error: unexpected character '/' at offset 10\n"
        assert error("P(h1) >= 1/0") == \
            "error: unexpected character '/' at offset 10\n"
        code, out, _ = run(capsys, "eval", "--model", "horses3", "--world",
                           "w1", "--formula", "P(h1) >= 1/05",
                           "--threshold", "1/2")
        assert (code, out) == (0, "true\n")

    def test_weight_in_exponent_notation(self, capsys, tmp_path):
        err = self.assert_bad_model(capsys, tmp_path, dict(
            PROB_DOC, weights={"w1": "1e2000000", "w2": "1"}))
        assert "'w1'" in err and "'1e2000000'" in err

    def test_weight_with_a_million_decimals(self, capsys, tmp_path):
        # refused before Fraction scales by ten to the millionth
        err = self.assert_bad_model(capsys, tmp_path, dict(
            PROB_DOC, weights={"w1": "0." + "1" * 1_000_000, "w2": "1"}))
        assert "'w1'" in err and len(err) < 100

    def test_weight_with_a_long_numerator(self, capsys, tmp_path):
        # past the interpreter's int conversion limit
        err = self.assert_bad_model(capsys, tmp_path, dict(
            PROB_DOC, weights={"w1": "1" * 5000 + "/3", "w2": "1"}))
        assert "'w1'" in err and len(err) < 100

    def test_proof_line_number_in_other_digits(self, capsys, tmp_path):
        # Arabic-Indic one: \d read it as 1, and the proof was accepted
        proof = tmp_path / "proof.txt"
        proof.write_text("\u0661. p -> (q -> p) ; AX CL\n")
        err = self.assert_error(capsys, "prove", "--theory", "kb",
                                "--proof", str(proof))
        assert err == "error: malformed proof line: " \
                      "'\u0661. p -> (q -> p) ; AX CL'\n"

    def test_proof_premise_in_other_digits(self, capsys, tmp_path):
        # int() read it as 1, and the proof was accepted
        proof = tmp_path / "proof.txt"
        proof.write_text("1. p -> (q -> p) ; AX CL\n"
                         "2. K (p -> (q -> p)) ; MN \u0661\n")
        err = self.assert_error(capsys, "prove", "--theory", "kb",
                                "--proof", str(proof))
        assert err == "error: MN needs one index: " \
                      "'2. K (p -> (q -> p)) ; MN \u0661'\n"

    def test_formula_numeral_in_other_digits(self, capsys):
        # \d read it as 1, and the formula was evaluated
        err = self.assert_error(capsys, "eval", "--model", "horses3",
                                "--world", "w1", "--formula",
                                "P(h1) >= \u0661", "--threshold", "1/2")
        assert err == "error: unexpected character '\u0661' at offset 9\n"

    def test_threshold_in_other_digits(self, capsys):
        # \d let the decimal through, and Fraction read it as 1/2
        err = self.assert_error(capsys, "eval", "--model", "horses3",
                                "--world", "w1", "--formula", "h1",
                                "--threshold", "\u0660.\u0665")
        assert err == "error: threshold must be p/q or a plain decimal, " \
                      "not '\u0660.\u0665'\n"

    @pytest.mark.parametrize("digit", ["\u0662", "\uff12"])
    @pytest.mark.parametrize("argv", [
        ["countermodel", "--formula", "K p -> p", "--max-worlds"],
        ["countermodel", "--prob", "--formula", "K p -> p", "--trials"],
        ["countermodel", "--prob", "--formula", "K p -> p", "--seed"],
        ["check-model", "--model", "walley-fine", "--mid-threshold",
         "--m-max"],
        ["check-model", "--model", "walley-fine", "--mid-threshold",
         "--cell-budget"]], ids=lambda argv: argv[-1])
    def test_integer_option_in_other_digits(self, capsys, argv, digit):
        # Arabic-Indic and fullwidth two: int() read them, and the
        # command ran with 2
        with pytest.raises(SystemExit) as exc:
            main([*argv, digit])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument {argv[-1]}: invalid int value: '{digit}'\n")

    def test_integer_option_past_the_int_digit_limit(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["countermodel", "--formula", "p", "--max-worlds",
                  "9" * 5000])
        assert exc.value.code == 2
        limit = sys.get_int_max_str_digits()
        assert capsys.readouterr().err.endswith(
            f"error: argument --max-worlds: has a run of more than {limit} "
            f"digits\n")

    def test_scott_index_past_the_int_digit_limit(self, capsys, tmp_path):
        # the guard's message, not the interpreter's int conversion limit
        proof = tmp_path / "proof.txt"
        proof.write_text("1. p ; AX Scott" + "9" * 5000 + "\n")
        err = self.assert_error(capsys, "prove", "--theory", "kb-half",
                                "--proof", str(proof))
        assert err == f"error: m={'9' * 5000} exceeds expansion guard 4\n"

    def test_numeral_past_the_int_digit_limit(self, capsys):
        err = self.assert_error(capsys, "eval", "--model", "horses3",
                                "--world", "w1", "--formula",
                                "P(h1) >= " + "1" * 5000)
        limit = sys.get_int_max_str_digits()
        assert err == f"error: numeral has a run of more than {limit} " \
                      f"digits at offset 9\n"

    def test_formula_nested_too_deep(self, capsys):
        err = self.assert_error(capsys, "eval", "--model", "horses3",
                                "--world", "w1",
                                "--formula", "~" * 5000 + "h1",
                                "--threshold", "1/2")
        assert err == "error: formula nested too deep\n"

    def test_model_file_nested_too_deep(self, capsys, tmp_path):
        # the model file, not the formula, is what is nested too deep
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        err = self.assert_error(capsys, "eval", "--model", str(deep),
                                "--world", "w1", "--formula", "p")
        assert err.startswith(f"error: bad JSON in {deep}: ")


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
        assert doc["smallest_counting_violation"] == {
            "m": 2, "verified": True, "xs": [["a", "c", "e"], ["b", "d", "e"]],
            "ys": [["a", "b", "e", "f"], ["c", "d", "e", "f"]]}
        assert doc["synthesis_condition"] == {
            "1/3": None, "1/2": "scott", "3/5": "ws", "2/3": "ws",
            "3/4": "ws"}

    def test_walley_fine_text(self, capsys):
        code, out, _ = run(capsys, "demo", "walley-fine")
        assert code == 0
        assert out.splitlines()[5:] == [
            "smallest counting violation (m = 2): verified",
            "  X: ace bde",
            "  Y: abef cdef",
            "synthesize at c = 1/3: INFEASIBLE, by the LP",
            "synthesize at c = 1/2: INFEASIBLE, scott fails",
            "synthesize at c = 3/5: INFEASIBLE, ws fails",
            "synthesize at c = 2/3: INFEASIBLE, ws fails",
            "synthesize at c = 3/4: INFEASIBLE, ws fails"]

    def test_json_output_deterministic(self, capsys):
        a = run(capsys, "demo", "kps", "--json")
        b = run(capsys, "demo", "kps", "--json")
        assert a == b

    def test_kps_needs_statements_oriented(self, capsys, monkeypatch):
        # the uniform measure's order meets all five conditions but ties
        # {b,d} with {a,c} and puts {d,e} below {a,b,c}
        from highprob import corpus
        from highprob.synthesis import measure_order
        monkeypatch.setattr(corpus, "kps_definetti_extension",
                            lambda: measure_order([Fraction(1, 5)] * 5, 5))
        code, out, _ = run(capsys, "demo", "kps")
        assert code == 1
        assert "five classical conditions: all hold" in out


# ---------------------------------------------------------------------------
# Fuzzing the exit-code contract

WORLDS = ("w1", "w2", "w3", "nope", "")
DOC_KEYS = ("kind", "worlds", "partition", "valuation", "weights",
            "generators")
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-1, 2)
    | st.sampled_from(WORLDS + ("probability", "neighborhood", "1/2",
                                "1/0", "x", "p")),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(WORLDS + DOC_KEYS), inner,
                      max_size=3),
    max_leaves=10)
world_lists = st.lists(st.sampled_from(WORLDS), max_size=3)
structured = {
    "kind": st.sampled_from(("probability", "neighborhood")),
    "worlds": world_lists,
    "partition": st.lists(world_lists, max_size=3),
    "valuation": st.dictionaries(st.sampled_from(WORLDS),
                                 st.lists(st.sampled_from("pq"), max_size=2),
                                 max_size=3),
    "weights": st.dictionaries(
        st.sampled_from(WORLDS),
        st.sampled_from(("1/2", "1/3", "2/3", "0", "-1", "1/0", "x", 1, 0,
                         0.5, True, None)), max_size=3),
    "generators": st.lists(st.lists(world_lists, max_size=3), max_size=3),
}


@st.composite
def model_docs(draw):
    """A small valid model document with some keys dropped or replaced
    by well-typed or arbitrary JSON, or arbitrary JSON altogether."""
    if draw(st.integers(0, 9)) == 0:
        return draw(json_values)
    doc = dict(draw(st.sampled_from((PROB_DOC, NBHD_DOC))))
    for key in draw(st.lists(st.sampled_from(DOC_KEYS), max_size=3)):
        choice = draw(st.integers(0, 3))
        if choice == 0:
            doc.pop(key, None)
        elif choice == 1:
            doc[key] = draw(json_values)
        else:
            doc[key] = draw(structured[key])
    return doc


THRESHOLDS = ("1/2", "2/3", "3/5", "0", "1", "-1/2", "x", "1/0", "0.5", "")
SMALL_INTS = ("-1", "0", "1", "2", "x")
FORMULAS = ("p", "B p", "K p -> p", "~B ~p", "P(p) > 1/2", "B (p", "",
            "p & q", "K")


PROOF_SCHEMES = ("CL", "KS5_K", "KS5_T", "Ap", "An", "KBM", "D", "SC",
                 "N", "Scott1", "x")
PROOF_FORMULAS = ("B p -> K B p", "K p -> p", "p -> (q -> p)",
                  "B p -> ~B ~p", "B true", "p")


@st.composite
def proof_texts(draw):
    """A proof of one to three axiom lines, each naming a scheme and
    binding a random subset of phi, psi and chi, or nothing."""
    lines = []
    for no in range(1, draw(st.integers(1, 3)) + 1):
        line = (f"{no}. {draw(st.sampled_from(PROOF_FORMULAS))} ; "
                f"AX {draw(st.sampled_from(PROOF_SCHEMES))}")
        if draw(st.booleans()):
            names = draw(st.lists(st.sampled_from(("phi", "psi", "chi")),
                                  unique=True, max_size=3))
            line += " {" + ", ".join(
                f"{name} := {draw(st.sampled_from(('p', 'q', 'B p')))}"
                for name in names) + "}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def command_argv(draw, model_path: str, text_path: str) -> list[str]:
    """One subcommand with a random subset of its options, some values
    broken; countermodel searches stay within two worlds."""
    models = st.sampled_from((model_path, model_path, "horses1",
                              "walley-fine", "no-such-model.json"))
    formulas = st.sampled_from(FORMULAS) | st.text("pqKB~&|()<>-=P1/ ",
                                                   max_size=10)
    thresholds = st.sampled_from(THRESHOLDS)
    options = {
        "eval": [("--model", models), ("--world", st.sampled_from(WORLDS)),
                 ("--formula", formulas), ("--threshold", thresholds)],
        "check-model": [("--model", models), ("--mid-threshold", None),
                        ("--conjectured", thresholds),
                        ("--m-max", st.sampled_from(SMALL_INTS)),
                        ("--cell-budget", st.sampled_from(SMALL_INTS))],
        "derive": [("--model", models), ("--threshold", thresholds)],
        "synthesize": [("--model", models), ("--threshold", thresholds)],
        "agree": [("--nbhd", models), ("--prob", models),
                  ("--threshold", thresholds)],
        "countermodel": [("--formula", st.sampled_from(FORMULAS)),
                         ("--max-worlds", st.sampled_from(SMALL_INTS)),
                         ("--mid-threshold", None), ("--prob", None),
                         ("--threshold", thresholds),
                         ("--trials", st.sampled_from(SMALL_INTS)),
                         ("--seed", st.sampled_from(SMALL_INTS))],
        "prove": [("--theory", st.sampled_from(("kb", "kb-half", "x"))),
                  ("--proof", st.sampled_from((text_path, "missing.txt")))],
        "comparative": [("--universe", st.sampled_from(
                            ("a b", "a a", "", "a b c"))),
                        ("--statements", st.sampled_from(
                            (text_path, "missing.txt"))),
                        ("--definetti", None)],
        "demo": [],
    }
    command = draw(st.sampled_from(sorted(options)))
    argv = ["--json"] if draw(st.booleans()) else []
    argv.append(command)
    if command == "demo":
        argv.append(draw(st.sampled_from(("horses", "nope"))))
    for flag, values in options[command]:
        if command == "countermodel" and flag == "--max-worlds":
            argv += [flag, draw(st.sampled_from(("-1", "0", "1", "2")))]
        elif draw(st.integers(0, 4)):
            argv.append(flag)
            if values is not None:
                argv.append(draw(values))
    return argv


class TestFuzzContract:
    """Any argv and any model document: exit 0, 1 or 2, never a
    traceback, and an exit of 2 says why on exactly one error line."""

    def check(self, capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
        out = capsys.readouterr()
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in out.err
        if code == 2:
            errors = [ln for ln in out.err.splitlines() if "error:" in ln]
            assert len(errors) == 1, (argv, out.err)
            assert out.out == "", (argv, out.out)
        elif argv[:1] == ["--json"]:
            assert out.out.endswith("\n") and out.out.count("\n") == 1, \
                (argv, out.out)
            assert isinstance(json.loads(out.out), dict), (argv, out.out)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_argv(self, capsys, tmp_path, data):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(data.draw(model_docs())))
        text = tmp_path / "text.txt"
        text.write_text(data.draw(st.sampled_from((
            "1. p -> p ; taut\n", "c < a,b\n", "a <= \n", "garbage", ""))))
        self.check(capsys, command_argv(data.draw, str(model), str(text)))

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(model_docs(), st.sampled_from(("synthesize", "derive", "eval",
                                          "check-model")))
    def test_model_documents(self, capsys, tmp_path, doc, command):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        argv = {"synthesize": ["synthesize", "--threshold", "1/2"],
                "derive": ["derive", "--threshold", "1/2"],
                "eval": ["eval", "--world", "w1", "--formula", "B p",
                         "--threshold", "1/2"],
                "check-model": ["check-model", "--mid-threshold",
                                "--conjectured", "2/3"]}[command]
        self.check(capsys, argv + ["--model", str(path)])

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(proof_texts(), st.sampled_from(("kb", "kb-half",
                                           "kb-half-minus")))
    def test_proof_files(self, capsys, tmp_path, text, theory):
        path = tmp_path / "proof.txt"
        path.write_text(text)
        self.check(capsys, ["prove", "--theory", theory, "--proof",
                            str(path)])
