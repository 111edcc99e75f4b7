import pytest

from highprob.calculus import (
    CL_BASIS,
    CheckResult,
    Meta,
    THEORIES,
    check_derivation,
    is_tautology,
    match_axiom,
    match_template,
    modal_leaves,
    parse_proof,
    scheme_template,
)
from highprob.corpus import PROOF_CORPUS
from highprob.errors import ProofFormatError
from highprob.formula import (
    And,
    Atom,
    B,
    K,
    implies,
    parse_kb,
    scott_instance,
)

p, q = Atom("p"), Atom("q")


class TestMatching:
    def test_basic(self):
        subst = match_template(implies(Meta("x"), Meta("x")), implies(p, p))
        assert subst == {"x": p}
        assert match_template(implies(Meta("x"), Meta("x")),
                              implies(p, q)) is None

    def test_match_axiom(self):
        assert match_axiom(parse_kb("B p -> K B p"), "Ap") == {"phi": p}
        assert match_axiom(parse_kb("~B p -> K ~B p"), "An") == {"phi": p}
        assert match_axiom(parse_kb("K (p -> q) -> (B p -> B q)"),
                           "KBM") == {"phi": p, "psi": q}
        assert match_axiom(parse_kb("B p -> B B p"), "KBM") is None
        assert match_axiom(parse_kb("B p -> <B> p"), "D") == {"phi": p}

    def test_scott_schemes_by_index(self):
        inst = scott_instance([p, q], [q, p])
        assert match_axiom(inst, "Scott2") is not None
        assert match_axiom(inst, "Scott1") is None
        assert scheme_template("Scott0") is None
        assert scheme_template("NoSuch") is None
        from highprob.errors import ExpansionTooLarge
        with pytest.raises(ExpansionTooLarge):
            scheme_template("Scott17")  # template itself would explode

    def test_scott_index_refused_before_any_metavariable(self, monkeypatch):
        # the template of Scott_m holds 2m metavariables: past the guard
        # none is made, however large m is
        from highprob import calculus
        from highprob.errors import ExpansionTooLarge
        made = []
        monkeypatch.setattr(calculus, "Meta",
                            lambda name: made.append(name) or Meta(name))
        with pytest.raises(ExpansionTooLarge,
                           match=r"^m=200000 exceeds expansion guard 4$"):
            scheme_template("Scott200000")
        assert made == []
        scheme_template("Scott2")
        assert made == ["phi1", "phi2", "psi1", "psi2"]

    def test_scott_index_past_the_int_digit_limit(self):
        # int() refuses 5,000 digits with a message that names an
        # interpreter setting; leading zeros are not part of the index
        from highprob.errors import ExpansionTooLarge
        with pytest.raises(ExpansionTooLarge,
                           match=r"^m=9{5000} exceeds expansion guard 4$"):
            scheme_template("Scott" + "9" * 5000)
        assert scheme_template("Scott" + "0" * 5000 + "1") \
            == scheme_template("Scott1")

    def test_cl_basis_instances(self):
        got = match_axiom(parse_kb("p -> (q -> p)"), "CL")
        assert got == {"phi": p, "psi": q}
        assert match_axiom(parse_kb("p & q -> p"), "CL") is not None
        assert match_axiom(parse_kb("p -> q"), "CL") is None
        assert len(CL_BASIS) == 7


class TestTautology:
    def test_propositional(self):
        assert is_tautology(parse_kb("p | ~p"))
        assert not is_tautology(parse_kb("p | q"))

    def test_modal_opacity(self):
        assert is_tautology(parse_kb("B p | ~B p"))
        # true scheme, but not by truth tables
        assert not is_tautology(parse_kb("K p -> p"))

    def test_leaves_and_budget(self):
        f = parse_kb("K p & B (p & q) & q")
        assert set(modal_leaves(f)) == {K(p), B(And(p, q)), q}
        # over budget the check conservatively refuses rather than spending
        # 2^13 rows, so even a genuine tautology reports False
        wide = parse_kb(" | ".join(f"x{i}" for i in range(13)))
        assert not is_tautology(implies(wide, wide))


SIMPLE = """
1. K p -> B p ; AX Ap {phi := p}
2. K p ; AX KS5_T
"""


class TestProofParsing:
    def test_parses_structure(self):
        d = parse_proof("""
# belief from knowledge of p, given K p as an axiom line
1. K (p -> q) -> (K p -> K q) ; AX KS5_K
2. B true ; AX N
3. K (B true) ; MN 2
""")
        assert len(d.lines) == 3
        assert d.lines[-1][0] == K(B(parse_kb("true")))
        just = d.lines[0][1]
        assert just.rule == "AX" and just.scheme == "KS5_K"

    def test_explicit_substitution(self):
        d = parse_proof("1. K p -> B p ; AX Ap {phi := p}\n")
        assert d.lines[0][1].subst == (("phi", p),)

    def test_format_errors(self):
        for bad in ("1 K p ; AX Ap",
                    "2. K p ; AX Ap",        # must start at 1
                    "1. K p ; ZZ",
                    "1. K p ; MP one two",
                    "1. K p ; AX Ap {phi = p}"):
            with pytest.raises(ProofFormatError):
                parse_proof(bad)

    def test_numbers_are_ascii_digits(self):
        # \d and int() also read the digits of other scripts, here the
        # Arabic-Indic one
        first = "1. p -> (q -> p) ; AX CL\n"
        with pytest.raises(ProofFormatError, match="^malformed proof line"):
            parse_proof("\u0661" + first[1:])
        with pytest.raises(ProofFormatError, match="^MN needs one index"):
            parse_proof(first + "2. K (p -> (q -> p)) ; MN \u0661\n")
        with pytest.raises(ProofFormatError, match="^MP needs two indices"):
            parse_proof(first + "2. q -> p ; MP 1 \u0661\n")

    def test_line_number_past_the_int_digit_limit(self):
        with pytest.raises(ProofFormatError,
                           match="^expected line number 1, found 1{5000}$"):
            parse_proof("1" * 5000 + ". p ; AX CL\n")


class TestChecking:
    def test_corpus_is_accepted(self):
        for name, theory, text in PROOF_CORPUS:
            res = check_derivation(parse_proof(text), theory, cl_oracle=True)
            assert res.accepted, (name, res.line, res.reason)

    def test_rejects_forward_reference(self):
        d = parse_proof("""
1. B p ; MP 1 2
2. p -> B p ; AX Ap
""")
        res = check_derivation(d, "kb")
        assert not res.accepted and res.line == 1

    def test_rejects_wrong_mp(self):
        d = parse_proof("""
1. B p -> K B p ; AX Ap
2. K B q ; MP 1 1
""")
        res = check_derivation(d, "kb")
        assert not res.accepted and res.line == 2

    def test_rejects_bad_substitution(self):
        d = parse_proof("1. K p -> B q ; AX Ap {phi := p}\n")
        assert not check_derivation(d, "kb").accepted

    def test_substitution_checked_against_the_match(self):
        # extra bindings are ignored, a different binding is refused, and
        # a metavariable occurring twice needs its binding only once
        extra = parse_proof("1. B p -> K B p ; AX Ap {phi := p, psi := q}\n")
        assert check_derivation(extra, "kb-half").accepted
        wrong = parse_proof("1. B p -> K B p ; AX Ap {phi := q}\n")
        assert check_derivation(wrong, "kb-half") == CheckResult(
            False, 1, "substitution does not produce line")
        twice = parse_proof("1. B p -> <B> p ; AX D {phi := p}\n")
        assert check_derivation(twice, "kb-half").accepted

    def test_theory_gating(self):
        bf = parse_proof("1. ~B ~true ; AX BF\n")
        assert check_derivation(bf, "kb").accepted
        assert check_derivation(bf, "kb-half").accepted
        res = check_derivation(bf, "kb-half-minus")
        assert not res.accepted and "BF" in res.reason
        scott = parse_proof(
            "1. " + "K ((~p & ~q) | (~p & q) | (p & q)) & B p -> B q"
            " ; AX Scott1 {phi1 := p, psi1 := q}\n")
        assert check_derivation(scott, "kb-half").accepted
        assert not check_derivation(scott, "kb").accepted

    def test_necessitation(self):
        d = parse_proof("""
1. p -> (q -> p) ; AX CL
2. K (p -> (q -> p)) ; MN 1
""")
        assert check_derivation(d, "kb").accepted
        bad = parse_proof("""
1. p -> (q -> p) ; AX CL
2. K (q -> p) ; MN 1
""")
        assert not check_derivation(bad, "kb").accepted

    def test_cl_oracle_flag(self):
        d = parse_proof("1. p | ~p ; AX CL\n")
        assert not check_derivation(d, "kb").accepted
        assert check_derivation(d, "kb", cl_oracle=True).accepted

    def test_theory_names(self):
        assert set(THEORIES) == {"kb", "kb-half", "kb-half-minus"}

    def test_theories_are_the_papers_sets(self):
        # S5 knowledge with the bridge schemes; KB-half adds D, SC and
        # Scott's family; its reduced form drops BF and KBM
        assert THEORIES["kb"] == {"CL", "KS5_K", "KS5_T", "KS5_4", "KS5_5",
                                  "BF", "N", "Ap", "An", "KBM"}
        assert THEORIES["kb-half"] == {
            "CL", "KS5_K", "KS5_T", "KS5_4", "KS5_5",
            "BF", "N", "Ap", "An", "KBM", "D", "SC", "Scott"}
        assert THEORIES["kb-half-minus"] == {
            "CL", "KS5_K", "KS5_T", "KS5_4", "KS5_5",
            "N", "Ap", "An", "D", "SC", "Scott"}

    def test_scott_index_in_ascii_digits_only(self):
        # an Arabic-Indic three is not the index 3
        line = "K ((~p & ~q) | (~p & q) | (p & q)) & B p -> B q"
        assert check_derivation(parse_proof(f"1. {line} ; AX Scott1\n"),
                                "kb-half").accepted
        res = check_derivation(
            parse_proof(f"1. {line} ; AX Scott\u0663\n"), "kb-half")
        assert res == CheckResult(False, 1,
                                  "scheme Scott\u0663 not in kb-half")
