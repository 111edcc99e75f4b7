import random
from fractions import Fraction
from highprob.corpus import (
    horses_common_prior,
    horses_cut,
    horses_uniform,
    walley_fine_model,
)
from highprob.formula import (
    Atom,
    B,
    K,
    Threshold,
    b_dual,
    implies,
    or_,
    parse_kb,
    parse_l,
    translate,
)
from highprob.neighborhood import derive_neighborhoods
from highprob.semantics import (
    enumerate_neighborhood_models,
    eval_kb_nbhd,
    eval_kb_prob,
    eval_l,
    eval_segerberg_direct,
    extension_kb_prob,
    extension_l,
    find_nbhd_countermodel,
    random_formula,
    sample_prob_countermodel,
    sample_probability_model,
    set_partitions,
    valid_in_model,
)

HALF = Threshold(Fraction(1, 2))
p, q = Atom("p"), Atom("q")


class TestEvalL:
    def test_probability_comparisons(self):
        m = horses_common_prior()
        assert eval_l(m, "w1", parse_l("P(h1) >= 1/2"))
        assert not eval_l(m, "w1", parse_l("P(h1) > 1/2"))
        assert eval_l(m, "w2", parse_l("P(h1 | h2) = 5/6"))
        assert eval_l(m, "w1", parse_l("P(h1) + P(h2) + P(h3) = 1"))

    def test_certainty_only_inside_cell(self):
        m = horses_cut()
        assert eval_l(m, "w3", parse_l("P(h3) = 1"))
        assert eval_l(m, "w1", parse_l("P(h3) = 0"))

    def test_nested_probability_operator(self):
        m = horses_cut()
        # P(h1) is 3/5 on one cell, 0 on the other
        assert eval_l(m, "w1", parse_l("P(P(h1) > 1/2) = 1"))
        assert eval_l(m, "w3", parse_l("P(P(h1) > 1/2) = 0"))


class TestEvalKbProb:
    def test_belief_without_knowledge(self):
        m = horses_common_prior()
        assert eval_kb_prob(m, "w1", parse_kb("B (h1 | h2)"), HALF)
        assert not eval_kb_prob(m, "w1", parse_kb("K (h1 | h2)"), HALF)
        assert eval_kb_prob(m, "w1", parse_kb("K (h1 | h2 | h3)"), HALF)

    def test_threshold_is_strict(self):
        m = horses_common_prior()
        assert not eval_kb_prob(m, "w1", B(Atom("h1")),
                                Threshold(Fraction(1, 2)))
        assert eval_kb_prob(m, "w1", B(Atom("h1")),
                            Threshold(Fraction(49, 100)))

    def test_knowledge_moves_with_the_cell(self):
        m = horses_cut()
        assert eval_kb_prob(m, "w3", parse_kb("K h3"), HALF)
        assert eval_kb_prob(m, "w1", parse_kb("K ~h3"), HALF)

    def test_introspection(self):
        for m in (horses_common_prior(), horses_cut(), horses_uniform()):
            for w in m.frame.worlds:
                assert eval_kb_prob(
                    m, w, implies(B(Atom("h1")), K(B(Atom("h1")))), HALF)


class TestEvalKbNbhd:
    def test_walley_fine_beliefs(self):
        m = walley_fine_model()
        assert eval_kb_nbhd(m, "a", parse_kb("B (e | f | g)"))
        assert not eval_kb_nbhd(m, "a", parse_kb("B (e | f)"))
        assert eval_kb_nbhd(m, "a", parse_kb("K (a|b|c|d|e|f|g)"))
        assert not eval_kb_nbhd(m, "a", parse_kb("B false"))

    def test_agrees_with_derived_system(self):
        m = horses_common_prior()
        derived = derive_neighborhoods(m, HALF)
        for text in ("B h1", "B (h1 | h2)", "~B h2", "K ~h1", "B ~h3"):
            f = parse_kb(text)
            for w in m.frame.worlds:
                assert eval_kb_nbhd(derived, w, f) \
                    == eval_kb_prob(m, w, f, HALF)


class TestCountingDirect:
    def test_matches_expansion_on_enumerated_models(self):
        pairs = [([p], [q]), ([p, q], [q, p]),
                 ([p, q], [or_(p, q), Atom("r")])]
        from highprob.formula import segerberg_expand
        seen = 0
        for m in enumerate_neighborhood_models(3, ("p", "q", "r")):
            if seen >= 400:
                break
            seen += 1
            for phis, psis in pairs:
                for mode in ("I", "E"):
                    expanded = segerberg_expand(phis, psis, mode)
                    for w in m.frame.worlds:
                        assert eval_segerberg_direct(
                            m, w, phis, psis, mode) \
                            == eval_kb_nbhd(m, w, expanded)

    def test_matches_expansion_on_probability_models(self):
        rng = random.Random(77)
        from highprob.formula import segerberg_expand
        for _ in range(60):
            m = sample_probability_model(rng, 4, ("p", "q"))
            for phis, psis in ([p], [q]), ([p, q], [q, p]):
                expanded = segerberg_expand(phis, psis, "I")
                for w in m.frame.worlds:
                    assert eval_segerberg_direct(m, w, phis, psis, "I",
                                                 HALF) \
                        == eval_kb_prob(m, w, expanded, HALF)


class TestEnumeration:
    def test_set_partition_counts(self):
        # Bell numbers
        for n, bell in ((1, 1), (2, 2), (3, 5), (4, 15)):
            assert len(list(set_partitions(n))) == bell

    def test_model_counts_small(self):
        # single world: one frame, one antichain, 2 valuations for 1 atom
        assert len(list(enumerate_neighborhood_models(1, ("p",)))) == 2
        # n=2: partitions {12}:A(2)=4, {1}{2}:A(1)^2=1; times 4 valuations
        got = [m for m in enumerate_neighborhood_models(2, ("p",), 2)]
        assert len(got) == (4 + 1) * 4

    def test_deterministic(self):
        a = list(enumerate_neighborhood_models(3, ("p",)))
        b = list(enumerate_neighborhood_models(3, ("p",)))
        assert len(a) == len(b)
        assert all(x.frame.same_frame(y.frame) and x.generators == y.generators
                   for x, y in zip(a, b))


class TestCountermodelSearch:
    def test_finds_belief_closure_failure(self):
        res = find_nbhd_countermodel(
            implies(B(implies(Atom("h1"), Atom("h2"))),
                    implies(B(Atom("h1")), B(Atom("h2")))), 3)
        assert res.found
        m, w = res.model, res.world
        assert not eval_kb_nbhd(m, w, implies(
            B(implies(Atom("h1"), Atom("h2"))),
            implies(B(Atom("h1")), B(Atom("h2")))))

    def test_valid_scheme_survives(self):
        res = find_nbhd_countermodel(implies(K(p), B(p)), 3)
        assert not res.found
        assert "3" in res.bound

    def test_mid_threshold_filter(self):
        # belief consistency fails on raw systems but holds mid-threshold
        target = implies(B(p), b_dual(p))
        assert find_nbhd_countermodel(target, 3).found
        assert not find_nbhd_countermodel(
            target, 3, require_mid_threshold=True).found

    def test_probabilistic_sampling(self):
        res = sample_prob_countermodel(implies(B(p), p), HALF,
                                       trials=400, max_worlds=4, seed=5)
        assert res.found
        assert not eval_kb_prob(res.model, res.world, implies(B(p), p), HALF)
        res2 = sample_prob_countermodel(implies(K(p), B(p)), HALF,
                                        trials=200, max_worlds=4, seed=5)
        assert not res2.found


class TestSampling:
    def test_seed_reproducibility(self):
        a = sample_probability_model(random.Random(9), 6, ("p", "q"))
        b = sample_probability_model(random.Random(9), 6, ("p", "q"))
        assert a.frame.same_frame(b.frame) and a.weights == b.weights

    def test_full_support_and_normalized(self):
        rng = random.Random(3)
        for _ in range(100):
            m = sample_probability_model(rng, 6, ("p",))
            assert sum(m.weights) == 1
            assert all(w > 0 for w in m.weights)
            assert all(w.denominator <= 64 for w in m.weights)

    def test_random_formula_depth_and_atoms(self):
        rng = random.Random(1)
        for _ in range(50):
            f = random_formula(rng, ("p", "q"), 4)
            from highprob.formula import atoms_of
            assert atoms_of(f) <= {"p", "q"}


class TestValidity:
    def test_valid_in_model(self):
        m = horses_uniform()
        assert valid_in_model(m, parse_kb("B (h1 | h2)"), HALF)
        assert not valid_in_model(horses_cut(), parse_kb("B h1"), HALF)
        assert valid_in_model(walley_fine_model(),
                              parse_kb("B (e | f | g) -> ~B (a | b | c | d)"))


class TestTranslationAgreement:
    def test_threshold_semantics_matches_translation(self):
        # K and B evaluated directly agree with P(.) = 1 and P(.) > c
        rng = random.Random(31)
        for c in (Fraction(1, 2), Fraction(3, 5), Fraction(2, 3)):
            c = Threshold(c)
            for _ in range(40):
                m = sample_probability_model(rng, 5, ("p", "q"))
                for _ in range(5):
                    f = random_formula(rng, ("p", "q"), 4)
                    assert extension_kb_prob(m, f, c) \
                        == extension_l(m, translate(f, c))
