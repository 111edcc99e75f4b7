import hashlib
import itertools
import random
from fractions import Fraction
from math import floor

import pytest

from highprob import neighborhood, synthesis
from highprob.core import (
    EventSet,
    Frame,
    NeighborhoodModel,
    make_neighborhood_model,
    make_probability_model,
)
from highprob.corpus import (
    horses_common_prior,
    horses_cut,
    horses_uniform,
    walley_fine_model,
    walley_fine_scott2_witness,
    walley_fine_witness,
)
from highprob.errors import CellTooLargeForBruteForce, FrameMismatch
from highprob.formula import Threshold
from highprob.neighborhood import (
    LOAD_K_MAX,
    CellSetWitness,
    ScottWitness,
    _certifies,
    check_agreement,
    check_base_properties,
    check_conjectured,
    check_mid_threshold,
    derive_neighborhoods,
    infeasibility_witness,
    maximal_nonneighborhoods,
    minimal_dual_believed,
    threshold_step,
    verify_scott_witness,
)
from highprob.semantics import (
    enumerate_neighborhood_models,
    sample_probability_model,
)
from highprob.synthesis import lp_feasible, synthesize_measure

HALF = Threshold(Fraction(1, 2))


def one_cell(n, gen_lists):
    worlds = tuple(f"w{i}" for i in range(n))
    frame = Frame(worlds, (worlds,), {})
    gens = [EventSet.of(ix, n) for ix in gen_lists]
    return make_neighborhood_model(frame, [gens])


class TestBaseProperties:
    def test_hold_on_derived_systems(self):
        for m in (horses_common_prior(), horses_cut(), horses_uniform()):
            derived = derive_neighborhoods(m, HALF)
            assert check_base_properties(derived).all_hold

    def test_hold_on_stored_counterexample_model(self):
        assert check_base_properties(walley_fine_model()).all_hold

    def test_empty_belief_violation(self):
        # raw storage admits systems the checker must reject: the layer
        # that invalidates (n) is a generator strictly below the cell with
        # no whole-cell generator... that one actually satisfies (n).
        # A genuine (n) violation needs an empty generator set per cell,
        # which construction forbids, so (n) holds by construction.
        report = check_base_properties(one_cell(3, [[0]]))
        assert report["n"].holds

    def test_report_structure(self):
        report = check_base_properties(walley_fine_model())
        assert set(report.names()) == {"kbc", "kbf", "n", "a", "kbm"}
        assert report.failures() == ()


class TestMaximalNonneighborhoods:
    def test_against_brute_force(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(1, 5)
            cell = EventSet.full(n)
            subs = [s for s in cell.subsets() if not s.is_empty()]
            gens = [rng.choice(subs) for _ in range(rng.randint(1, 3))]
            model = one_cell(n, [g.indices() for g in gens])
            gens = model.cell_generators(0)
            got = maximal_nonneighborhoods(cell, gens)
            non = [x for x in cell.subsets()
                   if not any(g.issubset(x) for g in gens)]
            want = [x for x in non
                    if not any(x.ispropersubset(y) for y in non)]
            assert sorted(got, key=lambda e: e.bits) \
                == sorted(want, key=lambda e: e.bits)
            # duals
            duals = minimal_dual_believed(cell, gens)
            assert sorted(d.bits for d in duals) \
                == sorted(cell.difference(x).bits for x in got)


def nested_first_witness(model, m_max, weak):
    """The first counting witness of the plain nested search, in the
    order the property checks promise: m, then the X-list, then the
    Y-list.  X_1 is a generator, later X's are minimal dual-believed
    sets (generators too when weak), the Y's maximal non-neighborhoods."""
    for ci, cell in enumerate(model.frame.partition):
        gens = model.cell_generators(ci)
        max_non = maximal_nonneighborhoods(cell, gens)
        later = gens if weak else minimal_dual_believed(cell, gens)
        for m in range(1, m_max + 1 if max_non else 1):
            xss = (itertools.combinations_with_replacement(gens, m) if weak
                   else ((x1,) + rest for x1 in gens for rest in
                         itertools.combinations_with_replacement(later,
                                                                 m - 1)))
            for xs in xss:
                for ys in itertools.combinations_with_replacement(max_non,
                                                                  m):
                    if all(sum(v in y for y in ys) >= sum(v in x for x in xs)
                           for v in cell.indices()):
                        return ScottWitness(ci, xs, ys)
    return None


def nested_first_load(model, ci, c, k_max):
    """The first load witness of the plain nested search: k generators,
    repeats allowed, with no world of the cell in more than floor(k*c)."""
    cell, gens = model.frame.partition[ci], model.cell_generators(ci)
    for k in range(1, k_max + 1):
        for xs in itertools.combinations_with_replacement(gens, k):
            if all(sum(v in x for x in xs) <= floor(k * c.value)
                   for v in cell.indices()):
                return CellSetWitness(ci, xs)
    return None


class TestMidThreshold:
    def test_d_fails_on_disjoint_generators(self):
        report = check_mid_threshold(one_cell(4, [[0, 1], [2, 3]]))
        assert not report["d"].holds
        w = report["d"].witness
        assert w.cell_index == 0 and len(w.sets) == 2

    def test_sc_failure(self):
        # {w0,w1} believed, so X={w0} has unbelieved complement, yet the
        # strict superset {w0,w2} is unbelieved
        report = check_mid_threshold(one_cell(3, [[0, 1]]))
        assert report["d"].holds
        assert not report["sc"].holds

    def test_walley_fine_scott_failure(self):
        report = check_mid_threshold(walley_fine_model(), m_max=7,
                                     cell_budget=7)
        assert report["d"].holds and report["sc"].holds
        assert not report["scott"].holds
        w = report["scott"].witness
        # whatever length the search returns, it must replay as a genuine
        # counting violation
        assert verify_scott_witness(walley_fine_model(), w.cell_index,
                                    w.xs, w.ys)

    def test_derived_systems_pass(self):
        rng = random.Random(23)
        for _ in range(60):
            m = sample_probability_model(rng, 5, ("p",))
            derived = derive_neighborhoods(m, HALF)
            assert check_mid_threshold(derived).all_hold

    def test_naive_oracle_agreement(self):
        # independent exhaustive search over list-valued X/Y choices,
        # feasible only for tiny cells
        def naive_scott_fails(model, m_max):
            for ci, cell in enumerate(model.frame.partition):
                gens = model.cell_generators(ci)
                in_n = lambda x: any(g.issubset(x) for g in gens)
                subs = list(cell.subsets())
                for m in range(1, m_max + 1):
                    for xs in itertools.product(subs, repeat=m):
                        if not in_n(xs[0]):
                            continue
                        if any(in_n(cell.difference(x)) for x in xs[1:]):
                            continue
                        for ys in itertools.product(subs, repeat=m):
                            ok = all(
                                sum(v in y for y in ys)
                                >= sum(v in x for x in xs)
                                for v in cell.indices())
                            if ok and not any(in_n(y) for y in ys):
                                return True
            return False

        checked = 0
        for model in enumerate_neighborhood_models(3, ()):
            report = check_mid_threshold(model, m_max=2)
            assert report["scott"].holds == (not naive_scott_fails(model, 2))
            assert report["scott"].witness == nested_first_witness(
                model, 2, False)
            checked += 1
        assert checked > 10

    def test_packed_search_finds_the_nested_searchs_first_witness(self):
        models = list(enumerate_neighborhood_models(4, ()))
        rng = random.Random(31)
        for _ in range(30):
            subs = range(1, 1 << 5)
            models.append(one_cell(5, [EventSet(b, 5).indices() for b in
                                       rng.sample(subs, rng.randint(2, 5))]))
        two_thirds = Threshold(Fraction(2, 3))
        lengths = set()
        for model in models:
            assert check_mid_threshold(model)["scott"].witness \
                == nested_first_witness(model, 3, False)
            assert check_conjectured(model, two_thirds)["ws"].witness \
                == nested_first_witness(model, 3, True)
            # load is searched last, so it shows only where the others
            # find nothing; there its witness is the nested search's
            for ci in range(len(model.frame.partition)):
                for c in (two_thirds, Threshold(Fraction(3, 4)),
                          Threshold(Fraction(3, 5)),
                          Threshold(Fraction(5, 7)),
                          Threshold(Fraction(11, 20))):
                    found = infeasibility_witness(model, ci, c)
                    if found is None or found[0] == "load":
                        assert (found and found[1]) == nested_first_load(
                            model, ci, c,
                            min(c.value.denominator, LOAD_K_MAX))
                        lengths.add(found and len(found[1].sets))
        # load's k runs past m_max, up to the denominator of c
        assert {4, 5} <= lengths
        wf = walley_fine_model()
        got = check_mid_threshold(wf, m_max=7, cell_budget=7)["scott"]
        assert got.witness == nested_first_witness(wf, 7, False)
        got = check_conjectured(wf, two_thirds, m_max=7, cell_budget=7)
        assert got["ws"].witness == nested_first_witness(wf, 7, True)


class TestScottWitnessReplay:
    def test_stored_witness_verifies(self):
        xs, ys = walley_fine_witness()
        assert verify_scott_witness(walley_fine_model(), 0, xs, ys)

    def test_tampered_witness_rejected(self):
        xs, ys = walley_fine_witness()
        model = walley_fine_model()
        # ys in N: not a violation
        assert not verify_scott_witness(model, 0, xs, xs)
        # first X not believed
        assert not verify_scott_witness(model, 0, ys, xs)

    def test_cell_index_outside_the_partition_rejected(self):
        xs, ys = walley_fine_witness()
        model = walley_fine_model()
        # -1 must not wrap round to the one cell, nor 1 raise IndexError
        assert not verify_scott_witness(model, -1, xs, ys)
        assert not verify_scott_witness(model, 1, xs, ys)

    def test_stored_m2_witness_is_the_searchs_first(self):
        report = check_mid_threshold(walley_fine_model(), m_max=2,
                                     cell_budget=7)
        assert report["scott"].witness \
            == ScottWitness(0, *walley_fine_scott2_witness())


def masks(*sets):
    return tuple(sum(1 << v for v in s) for s in sets)


class TestCountingCertificate:
    """The checker every witness replays through, on certificates
    (alpha, beta, gamma, r) written out by hand."""

    def test_scott_and_sc_certificates_hold_up_to_one_half(self):
        wf = walley_fine_model()
        wf_cell = wf.frame.partition[0].bits
        # the m = 2 scott lists: alpha = X_1, beta = the Y's and cell - X_2
        (x1, x2), ys = ([e.bits for e in w]
                        for w in walley_fine_scott2_witness())
        scott = ((x1,), (*ys, wf_cell ^ x2), (), -1)
        # the 3-world sc witness X = {0} < Y = {0, 2} under the generator
        # {0, 1}: beta = cell - X and Y, gamma = the world 2 of Y - X
        sc = ((), masks((1, 2), (0, 2)), masks((2,)), -1)
        for cell, gens, cert, above in (
                (wf_cell, tuple(g.bits for g in wf.generators[0]), scott,
                 ("3/5", "2/3")),
                (0b111, masks((0, 1)), sc, ("3/5",))):
            assert _certifies(cell, gens, *cert, Fraction(1, 2))
            for text in above:
                assert not _certifies(cell, gens, *cert, Fraction(text))

    def test_bare_cells_at_three_fifths_have_certificates(self):
        # the two census cells that synthesis leaves bare at 3/5, with
        # certificates from the LP's dual: A*c = B*c + r and A > 0
        five = (0b11111, masks((0, 3, 4), (1, 3, 4), (2, 3, 4), (0, 1, 2, 3)),
                masks((0, 3, 4)),
                masks((3, 4), (3, 4), (0, 1, 3), (0, 2, 3), (0, 1, 2, 4),
                      (0, 1, 2, 4)), (), -3)
        six = (0b111111,
               masks((0, 1, 5), (0, 1, 2, 4), (1, 2, 3, 5), (1, 2, 4, 5),
                     (1, 3, 4, 5), (0, 2, 3, 4, 5)),
               masks((0, 1, 5), (1, 2, 3, 5)),
               masks(*[(1, 4, 5)] * 3, *[(0, 1, 2, 3)] * 2,
                     *[(0, 2, 3, 5)] * 2), (), -3)
        c = Fraction(3, 5)
        for cell, gens, alpha, beta, gamma, r in (five, six):
            assert _certifies(cell, gens, alpha, beta, gamma, r, c)
            assert not _certifies(cell, gens, alpha, beta, gamma, r + 1, c)
            # every world's count is tight, so no beta can be dropped
            for k in range(len(beta)):
                assert not _certifies(cell, gens, alpha,
                                      beta[:k] + beta[k + 1:], gamma, r, c)


class TestConjectured:
    def test_threshold_step(self):
        assert threshold_step(HALF) == (Fraction(1), 1)
        assert threshold_step(Threshold(Fraction(2, 3))) == (Fraction(2), 2)
        assert threshold_step(Threshold(Fraction(3, 5))) \
            == (Fraction(3, 2), 2)

    def test_key_depends_on_arithmetic(self):
        m = derive_neighborhoods(horses_uniform(), HALF)
        assert set(check_conjectured(m, HALF).names()) == {"sc0^1", "ws"}
        c = Threshold(Fraction(3, 5))
        m2 = derive_neighborhoods(horses_uniform(), c)
        assert set(check_conjectured(m2, c).names()) == {"sc1^2", "ws"}

    def test_below_half_rejected(self):
        m = derive_neighborhoods(horses_uniform(), HALF)
        with pytest.raises(ValueError):
            check_conjectured(m, Threshold(Fraction(1, 3)))

    def test_derived_systems_satisfy_conjectured(self):
        rng = random.Random(41)
        for c in (HALF, Threshold(Fraction(3, 5)),
                  Threshold(Fraction(2, 3))):
            for _ in range(40):
                m = sample_probability_model(rng, 5, ())
                derived = derive_neighborhoods(m, c)
                assert check_conjectured(derived, c).all_hold


def golden_models():
    """Every skeleton with at most 4 worlds, seeded one-cell systems on 5
    and 6 worlds (derived from measures, and random antichains), and
    Walley-Fine, whose cell has 7 worlds."""
    yield from enumerate_neighborhood_models(4, ())
    rng = random.Random(20261018)
    for k, count in ((5, 24), (6, 8)):
        worlds = tuple(f"w{i}" for i in range(k))
        frame = Frame(worlds, (worlds,), {})
        for _ in range(count):
            c = Threshold(Fraction(rng.choice(("1/2", "3/5", "2/3"))))
            d = rng.randint(2 * k, 64)
            cuts = sorted(rng.sample(range(1, d), k - 1))
            weights = {w: Fraction(b - a, d) for w, a, b
                       in zip(worlds, (0, *cuts), (*cuts, d))}
            yield derive_neighborhoods(
                make_probability_model(frame, weights), c)
            gens = [EventSet(rng.randrange(1, 1 << k), k)
                    for _ in range(rng.randint(2, 6))]
            yield make_neighborhood_model(frame, [gens])
    yield walley_fine_model()


def golden_reports():
    """Section name -> the reprs of every report, witness or exception
    the property checks give on golden_models()."""
    def run(check, *args, **kwargs):
        try:
            return repr(check(*args, **kwargs))
        except CellTooLargeForBruteForce as exc:
            return repr(exc)

    thresholds = {text: Threshold(Fraction(text))
                  for text in ("1/3", "1/2", "3/5", "2/3", "3/4")}
    out = {}
    for model in golden_models():
        rows = [("base", run(check_base_properties, model)),
                ("mid", run(check_mid_threshold, model)),
                ("mid m2 b5", run(check_mid_threshold, model, m_max=2,
                                  cell_budget=5))]
        for text, c in thresholds.items():
            if c.value >= Fraction(1, 2):
                rows.append((f"conj {text}", run(check_conjectured, model, c)))
            rows.extend((f"witness {text}", run(infeasibility_witness,
                                                model, ci, c))
                        for ci in range(len(model.frame.partition)))
        for section, text in rows:
            out.setdefault(section, []).append(text)
    # the raw model type does not validate: broken systems for the base
    # checks, each one cell's generators outside it, empty, or missing
    frame = Frame(("a", "b", "c"), (("a", "b"), ("c",)), {})
    a, ab, c = (frame.event(ws) for ws in (["a"], ["a", "b"], ["c"]))
    for gens in (((c,), (c,)), ((ab,), (EventSet.empty(3),)),
                 ((a, ab), ()), ((ab,),)):
        out["base"].append(run(check_base_properties,
                               NeighborhoodModel(frame, gens)))
    return out


# sha256 prefixes of golden_reports(), one per section
GOLDEN_REPORTS = {
    "base": "54482040bf001c7b",
    "mid": "36f67118dda609e3",
    "mid m2 b5": "6e441d46c125526d",
    "witness 1/3": "6061208e6c736d38",
    "conj 1/2": "99bf5e72b4674f39",
    "witness 1/2": "bad30ac0dbcc1e82",
    "conj 3/5": "669d863f941c46ef",
    "witness 3/5": "e693fa954a1ceb64",
    "conj 2/3": "e031aa3d8032d285",
    "witness 2/3": "5db22c9365620fda",
    "conj 3/4": "c6c50d212cc03813",
    "witness 3/4": "7caebbdd85640289",
}


class TestGoldenReports:
    def test_reports_and_witnesses_are_pinned(self):
        got = {section: hashlib.sha256("\n".join(texts).encode())
               .hexdigest()[:16]
               for section, texts in golden_reports().items()}
        assert got == GOLDEN_REPORTS


TWO_THIRDS = Threshold(Fraction(2, 3))
# the four questions a census item asks of one model
QUESTIONS = (
    lambda m: synthesize_measure(m, HALF),
    check_mid_threshold,
    lambda m: synthesize_measure(m, TWO_THIRDS),
    lambda m: check_conjectured(m, TWO_THIRDS),
)


def fresh(model):
    """The same system on a new object, whose search table is empty."""
    return NeighborhoodModel(model.frame, model.generators)


def counting_searches(monkeypatch):
    calls = []

    def search(*args):
        calls.append(args[0])
        return real(*args)

    real = neighborhood._search
    monkeypatch.setattr(neighborhood, "_search", search)
    return calls


class TestSearchTable:
    def test_answers_do_not_depend_on_what_was_asked_before(self,
                                                            monkeypatch):
        # each distinct cell LP is solved once; the searches are under test
        solved = {}

        def solve(constraints, positivity=()):
            key = (tuple(constraints), tuple(positivity))
            if key not in solved:
                solved[key] = lp_feasible(constraints, positivity)
            return solved[key]

        monkeypatch.setattr(synthesis, "lp_feasible", solve)
        calls = counting_searches(monkeypatch)
        for model in golden_models():
            alone = [repr(ask(fresh(model))) for ask in QUESTIONS]
            forward, backward = fresh(model), fresh(model)
            assert [repr(ask(forward)) for ask in QUESTIONS] == alone
            assert [repr(ask(backward))
                    for ask in reversed(QUESTIONS)] == alone[::-1]
            # asked again, every cell condition is already in the table
            calls.clear()
            assert [repr(ask(forward)) for ask in QUESTIONS] == alone
            assert calls == []

    def test_thresholds_and_bounds_never_share_an_entry(self,
                                                        monkeypatch):
        calls = counting_searches(monkeypatch)
        asks = [lambda m, b=b: check_mid_threshold(m, *b)
                for b in ((3, 7), (2, 7), (1, 5), (3, 5), (2, 5))]
        asks += [lambda m, c=Threshold(Fraction(c)): [
            infeasibility_witness(m, ci, c)
            for ci in range(len(m.frame.partition))]
            for c in ("3/5", "2/3", "3/4", "4/5")]
        for model in golden_models():
            if model.frame.size > 5:
                continue
            shared = fresh(model)
            for ask in asks:
                calls.clear()
                alone = ask(fresh(model))
                searched = list(calls)
                calls.clear()
                assert ask(shared) == alone
                assert calls == searched

    def test_a_cell_over_the_budget_raises_every_time(self):
        six = [m for m in golden_models() if m.frame.size == 6]
        assert six
        for model in six:
            for _ in range(3):
                with pytest.raises(CellTooLargeForBruteForce):
                    check_mid_threshold(model, cell_budget=5)


class TestDerivationAndAgreement:
    def test_generators_of_uniform_thirds(self):
        derived = derive_neighborhoods(horses_uniform(), HALF)
        gens = derived.cell_generators(0)
        # believed sets are exactly those of size >= 2
        assert sorted(g.cardinality() for g in gens) == [2, 2, 2]

    def test_generators_move_with_threshold(self):
        derived = derive_neighborhoods(horses_uniform(),
                                       Threshold(Fraction(2, 3)))
        assert derived.cell_generators(0) == (EventSet.full(3),)

    def test_certain_singleton_cell(self):
        derived = derive_neighborhoods(horses_cut(), HALF)
        assert derived.cell_generators(1) == (EventSet.of([2], 3),)

    def test_agreement_round_trip(self):
        rng = random.Random(7)
        for _ in range(50):
            m = sample_probability_model(rng, 6, ("p",))
            derived = derive_neighborhoods(m, HALF)
            assert check_agreement(derived, m, HALF).holds

    def test_agreement_failure_carries_witness(self):
        m = horses_uniform()
        wrong = one_cell(3, [[0]])
        # align world names with the probability model
        frame = Frame(m.frame.worlds, m.frame.partition, m.frame.valuation)
        wrong = make_neighborhood_model(frame, [[frame.event(["w1"])]])
        verdict = check_agreement(wrong, m, HALF)
        assert not verdict.holds
        world, x = verdict.witness
        assert world in m.frame.worlds

    def test_frame_mismatch(self):
        m = horses_uniform()
        with pytest.raises(FrameMismatch):
            check_agreement(one_cell(3, [[0, 1]]), m, HALF)

    def test_monotone_in_threshold(self):
        # raising c can only shrink the believed collection
        rng = random.Random(13)
        for _ in range(40):
            m = sample_probability_model(rng, 5, ())
            lo = derive_neighborhoods(m, HALF)
            hi = derive_neighborhoods(m, Threshold(Fraction(3, 4)))
            for ci, cell in enumerate(m.frame.partition):
                for x in cell.subsets():
                    if hi.cell_is_neighborhood(ci, x):
                        assert lo.cell_is_neighborhood(ci, x)
