"""End-to-end acceptance checks.

Each test pins down one externally stated guarantee of the toolkit:
exact conditional probability values, the non-normality judgments, the
seven-world counting counterexample, comparative-probability
(un)realizability, the agreement theorem at sampling scale, round-trip
measure synthesis, the enumeration-scale two-sided characterization,
soundness of the axiom tables, the proof corpus with mutants, and the
dual-belief equivalence.  Oracles are independent of the code paths they
judge wherever the expected value is not a stored constant.
"""

import random
import time
from fractions import Fraction

from highprob.calculus import check_derivation, parse_proof
from highprob.cli import main as cli_main
from highprob.core import conditional_probability, make_neighborhood_model
from highprob.corpus import (
    PROOF_CORPUS,
    horses_common_prior,
    horses_cut,
    horses_uniform,
    kps_relation,
    non_consequence_model,
    walley_fine_model,
    walley_fine_witness,
)
from highprob.formula import (
    Atom,
    B,
    K,
    Threshold,
    b_dual,
    implies,
    parse_kb,
    scott_instance,
)
from highprob.neighborhood import (
    check_mid_threshold,
    derive_neighborhoods,
    verify_scott_witness,
)
from highprob.semantics import (
    enumerate_neighborhood_models,
    eval_kb_nbhd,
    eval_kb_prob,
    extension_kb_prob,
    random_formula,
    sample_probability_model,
    valid_in_model,
)
from highprob.synthesis import (
    check_definetti,
    measure_order,
    realize_comparative,
    synthesize_measure,
)

HALF = Threshold(Fraction(1, 2))
THRESHOLDS = (HALF, Threshold(Fraction(3, 5)), Threshold(Fraction(2, 3)))
p, q, r = Atom("p"), Atom("q"), Atom("r")


def test_criterion_1_conditional_probability_exact():
    m = horses_common_prior()
    got = conditional_probability(m, "w1", m.frame.event(["w1", "w3"]))
    assert got == Fraction(2, 3) and isinstance(got, Fraction)
    m2 = horses_cut()
    got = conditional_probability(m2, "w1", m2.frame.event(["w3"]))
    assert got == 0


def test_criterion_2_non_normality_judgments():
    m = horses_uniform()
    judgments = [
        "B (h1 | h2 | h3)",
        "B (h1 | h2) & B (h1 | h3) & B (h2 | h3)",
        "B ~h1 & B ~h2 & B ~h3",
        "~ B (~h1 & ~h2)",
    ]
    for text in judgments:
        assert valid_in_model(m, parse_kb(text), HALF), text

    target = parse_kb("B (~h1 -> h2) -> (B ~h1 -> B h2)")
    for c in (Fraction(1, 2), Fraction(2, 3)):
        cm = non_consequence_model(c)
        assert not eval_kb_prob(cm, "w1", target, Threshold(c))


def test_criterion_3_walley_fine(capsys):
    start = time.monotonic()
    assert cli_main(["demo", "walley-fine"]) == 0
    capsys.readouterr()

    model = walley_fine_model()
    xs, ys = walley_fine_witness()
    assert len(xs) == len(ys) == 7
    assert verify_scott_witness(model, 0, xs, ys)
    for i in range(7):
        assert sum(1 for x in xs if i in x) == 3
        assert sum(1 for y in ys if i in y) == 4
    for c in (Fraction(1, 3), Fraction(1, 2), Fraction(3, 5),
              Fraction(2, 3), Fraction(3, 4)):
        assert not synthesize_measure(model, Threshold(c)).feasible
    assert time.monotonic() - start < 5


def test_criterion_4_kps():
    start = time.monotonic()
    assert not realize_comparative(kps_relation()).feasible
    rng = random.Random(404)
    m = sample_probability_model(rng, 5, ())
    # pad to exactly five worlds if the sampler drew fewer
    while m.frame.size != 5:
        m = sample_probability_model(rng, 5, ())
    weights = [m.weights[i] for i in range(5)]
    assert check_definetti(measure_order(weights, 5), 5).all_hold
    assert time.monotonic() - start < 1


def _agreement_samples():
    rng = random.Random(20240817)
    for _ in range(500):
        yield sample_probability_model(rng, 6, ("p", "q"))


def test_criteria_5_and_10_agreement_and_dual_lemma():
    start = time.monotonic()
    frng = random.Random(9001)
    mismatches = 0
    for model in _agreement_samples():
        formulas = [random_formula(frng, ("p", "q"), 4) for _ in range(50)]
        for c in THRESHOLDS:
            derived = derive_neighborhoods(model, c)
            # built without make_neighborhood_model's checks, yet passes them
            assert derived == make_neighborhood_model(model.frame,
                                                      derived.generators)
            for f in formulas:
                prob_ext = extension_kb_prob(model, f, c)
                for w in model.frame.worlds:
                    if eval_kb_nbhd(derived, w, f) \
                            != (model.frame.windex(w) in prob_ext):
                        mismatches += 1
                # dual lemma: believing-possibly phi is mass at least 1 - c
                dual_ext = extension_kb_prob(model, b_dual(f), c)
                for w in model.frame.worlds:
                    mass = conditional_probability(model, w, prob_ext)
                    if (model.frame.windex(w) in dual_ext) \
                            != (mass >= 1 - c.value):
                        mismatches += 1
    assert mismatches == 0
    assert time.monotonic() - start < 60


def test_criterion_6_round_trip_synthesis():
    start = time.monotonic()
    rng = random.Random(606)
    for _ in range(200):
        m = sample_probability_model(rng, 6, ())
        target = derive_neighborhoods(m, HALF)
        res = synthesize_measure(target, HALF)
        assert res.feasible
        assert derive_neighborhoods(res.model, HALF).generators \
            == target.generators
    assert time.monotonic() - start < 120


def test_criterion_7_two_sided_characterization():
    start = time.monotonic()
    # the LP verdict and the property verdicts ignore the valuation, so
    # the atom-free enumeration visits each distinct skeleton exactly once
    skeletons = 0
    for model in enumerate_neighborhood_models(4, ()):
        skeletons += 1
        feasible = synthesize_measure(model, HALF).feasible
        passes = check_mid_threshold(model, m_max=3).all_hold
        assert feasible == passes, model
    assert skeletons == 348  # 1 + 5 + 31 + 311 skeletons for 1..4 worlds

    # valuation-independence of both verdicts, spot-checked at 3 worlds
    by_skeleton = {}
    for model in enumerate_neighborhood_models(3, ("p", "q")):
        key = (model.frame.partition, model.generators)
        verdict = (synthesize_measure(model, HALF).feasible,
                   check_mid_threshold(model, m_max=3).all_hold)
        assert by_skeleton.setdefault(key, verdict) == verdict
    assert time.monotonic() - start < 600


TABLE1 = [parse_kb(text) for text in (
    "p -> (q -> p)",
    "(p -> (q -> r)) -> ((p -> q) -> (p -> r))",
    "(~p -> ~q) -> (q -> p)",
    "K (p -> q) -> (K p -> K q)",
    "K p -> p",
    "K p -> K K p",
    "~K p -> K ~K p",
    "~ B false",
    "B true",
    "B p -> K B p",
    "~B p -> K ~B p",
    "K (p -> q) -> (B p -> B q)",
)]

TABLE2 = [
    implies(B(p), b_dual(p)),
    parse_kb("(<B> p & <K> (~p & q)) -> B (p | q)"),
    scott_instance([p], [q]),
    scott_instance([p, q], [q, r]),
]


def test_criterion_8_soundness_suites():
    start = time.monotonic()
    mid_cache: dict = {}
    for model in enumerate_neighborhood_models(4, ("p", "q")):
        for axiom in TABLE1:
            assert valid_in_model(model, axiom), axiom
        key = (model.frame.partition, model.generators)
        if key not in mid_cache:
            mid_cache[key] = check_mid_threshold(model, m_max=3).all_hold
        if mid_cache[key]:
            for axiom in TABLE2:
                assert valid_in_model(model, axiom), axiom

    items_any_c = TABLE1[3:]  # the modal block of the first table
    items_half_only = TABLE2[1:]  # strong commitment and counting transfer
    rng = random.Random(808)
    for _ in range(500):
        model = sample_probability_model(rng, 4, ("p", "q", "r"))
        for c in THRESHOLDS:
            for f in items_any_c:
                assert valid_in_model(model, f, c), (f, c)
            # belief implies compatible belief whenever c >= 1/2
            assert valid_in_model(model, implies(B(p), b_dual(p)), c)
        for f in items_half_only:
            assert valid_in_model(model, f, HALF), f
    assert time.monotonic() - start < 600


def _negate_line(text: str, k: int) -> str:
    """Corrupt line k (1-based) of a proof by negating its formula."""
    out = []
    seen = 0
    for raw in text.splitlines():
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            out.append(raw)
            continue
        seen += 1
        if seen == k:
            num, rest = raw.split(".", 1)
            formula, just = rest.rsplit(";", 1)
            out.append(f"{num}. ~({formula.strip()}) ;{just}")
        else:
            out.append(raw)
    return "\n".join(out) + "\n"


def test_criterion_9_proof_corpus_and_mutants():
    start = time.monotonic()
    assert len(PROOF_CORPUS) == 9
    for name, theory, text in PROOF_CORPUS:
        res = check_derivation(parse_proof(text), theory, cl_oracle=True)
        assert res.accepted, (name, res.line, res.reason)
        n_lines = len(parse_proof(text).lines)
        for k in range(1, n_lines + 1):
            mutant = _negate_line(text, k)
            res = check_derivation(parse_proof(mutant), theory,
                                   cl_oracle=True)
            assert not res.accepted, (name, k)
            assert res.line == k, (name, k, res.line)
    assert time.monotonic() - start < 5
