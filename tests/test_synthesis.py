import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from highprob import synthesis
from highprob.core import (
    EventSet,
    Frame,
    NeighborhoodModel,
    make_neighborhood_model,
    make_probability_model,
)
from highprob.corpus import (
    kps_definetti_extension,
    kps_relation,
    walley_fine_model,
    walley_fine_witness,
)
from highprob.formula import Threshold
from highprob.neighborhood import (
    CellSetWitness,
    PropertyReport,
    ScottWitness,
    Verdict,
    check_agreement,
    derive_neighborhoods,
    maximal_nonneighborhoods,
    replay_witness,
)
from highprob.semantics import (
    enumerate_neighborhood_models,
    sample_probability_model,
)
from highprob.synthesis import (
    ComparativeRelation,
    LinearConstraint,
    check_definetti,
    lp_feasible,
    measure_order,
    realize_comparative,
    synthesize_measure,
)

HALF = Threshold(Fraction(1, 2))


def cell_model(rng, k):
    """A one-cell probability model on k worlds with seeded weights."""
    worlds = tuple(f"w{i}" for i in range(k))
    d = rng.randint(2 * k, 64)
    cuts = sorted(rng.sample(range(1, d), k - 1))
    parts = [b - a for a, b in zip((0, *cuts), (*cuts, d))]
    frame = Frame(worlds, (worlds,), {})
    return make_probability_model(
        frame, {w: Fraction(p, d) for w, p in zip(worlds, parts)})


# Systems derived from cell_model(random.Random(7), k) for these k, at 1/2
# and 2/3: (system, c, pivots, measure returned by synthesize_measure).
# Any solver that keeps Bland's rule on this tableau takes exactly these
# pivots and returns exactly these measures.
GOLDEN_SIZES = (3, 4, 5, 6, 3, 4, 5, 6, 3, 4, 5, 6, 3, 4, 5, 7, 4, 5, 6, 7)
GOLDEN = [
    (0, "1/2", 11, "1/4 1/4 1/2"),
    (0, "2/3", 10, "1/6 1/6 2/3"),
    (1, "1/2", 7, "1/8 1/8 5/8 1/8"),
    (1, "2/3", 11, "1/6 1/12 7/12 1/6"),
    (2, "1/2", 23, "1/12 1/4 1/4 1/12 1/3"),
    (2, "2/3", 17, "1/12 1/4 1/12 1/12 1/2"),
    (3, "1/2", 37, "2/17 1/17 3/17 4/17 2/17 5/17"),
    (3, "2/3", 35, "1/15 1/30 1/5 7/30 1/5 4/15"),
    (4, "1/2", 6, "1/6 1/6 2/3"),
    (4, "2/3", 6, "1/9 1/9 7/9"),
    (5, "1/2", 7, "1/8 5/8 1/8 1/8"),
    (5, "2/3", 7, "1/12 3/4 1/12 1/12"),
    (6, "1/2", 33, "1/7 3/14 3/14 2/7 1/7"),
    (6, "2/3", 27, "1/18 2/9 2/9 5/18 2/9"),
    (7, "1/2", 42, "3/14 1/7 1/7 1/7 3/14 1/7"),
    (7, "2/3", 39, "1/4 1/8 1/8 1/8 1/4 1/8"),
    (8, "1/2", 6, "1/6 2/3 1/6"),
    (8, "2/3", 6, "1/9 7/9 1/9"),
    (9, "1/2", 16, "1/5 2/5 1/5 1/5"),
    (9, "2/3", 16, "1/6 1/2 1/6 1/6"),
    (10, "1/2", 23, "1/4 1/3 1/12 1/4 1/12"),
    (10, "2/3", 29, "1/6 1/2 1/12 1/6 1/12"),
    (11, "1/2", 9, "1/12 1/12 1/12 1/12 7/12 1/12"),
    (11, "2/3", 20, "1/9 1/27 2/27 5/27 14/27 2/27"),
    (12, "1/2", 6, "2/3 1/6 1/6"),
    (12, "2/3", 10, "2/3 1/6 1/6"),
    (13, "1/2", 11, "2/5 1/5 1/5 1/5"),
    (13, "2/3", 10, "1/3 1/9 1/9 4/9"),
    (14, "1/2", 16, "2/7 1/7 1/7 1/7 2/7"),
    (14, "2/3", 17, "1/4 1/12 1/12 1/12 1/2"),
    (15, "1/2", 65, "5/46 4/23 3/46 11/46 3/46 5/23 3/23"),
    (15, "2/3", 63, "5/54 1/6 2/27 13/54 1/18 2/9 4/27"),
    (16, "1/2", 11, "2/5 1/5 1/5 1/5"),
    (16, "2/3", 13, "5/9 1/9 1/9 2/9"),
    (17, "1/2", 24, "1/7 1/14 5/14 3/14 3/14"),
    (17, "2/3", 22, "1/12 1/12 1/2 1/12 1/4"),
    (18, "1/2", 30, "1/14 1/7 2/7 1/7 1/14 2/7"),
    (18, "2/3", 46, "2/21 1/7 2/7 1/7 1/21 2/7"),
    (19, "1/2", 53, "1/14 2/7 1/4 1/28 3/14 1/14 1/14"),
    (19, "2/3", 58, "1/8 13/48 1/4 1/48 1/6 1/24 1/8"),
]


class TestLinearConstraint:
    def test_normalization(self):
        le = LinearConstraint({"x": 2, "y": -1}, "<=", 5)
        assert le.relation == ">="
        assert le.bound == -5
        assert dict(le.coefficients) == {"x": -2, "y": 1}
        assert LinearConstraint({"x": 1, "y": 0}, "=", 1).coefficients \
            == (("x", Fraction(1)),)

    def test_satisfied_by(self):
        con = LinearConstraint({"x": 1, "y": 1}, ">", 1)
        assert con.satisfied_by({"x": 1, "y": Fraction(1, 100)})
        assert not con.satisfied_by({"x": 1, "y": 0})


class TestLP:
    def test_simple_feasible(self):
        res = lp_feasible([
            LinearConstraint({"x": 1, "y": 1}, "=", 1),
            LinearConstraint({"x": 1}, ">", Fraction(1, 2)),
        ], positivity=["x", "y"])
        assert res.feasible
        a = res.as_dict()
        assert a["x"] + a["y"] == 1 and a["x"] > Fraction(1, 2) > 0 < a["y"]

    def test_strictness_detected(self):
        res = lp_feasible([
            LinearConstraint({"x": 1}, "<=", 1),
            LinearConstraint({"x": 1}, ">", 1),
        ])
        assert not res.feasible

    def test_boundary_vs_interior(self):
        # >= on the boundary is fine, > is not
        assert lp_feasible([LinearConstraint({"x": 1}, ">=", 1),
                            LinearConstraint({"x": 1}, "<=", 1)]).feasible
        assert not lp_feasible([LinearConstraint({"x": 1}, ">", 1),
                                LinearConstraint({"x": 1}, "<=", 1)]).feasible

    def test_free_variables(self):
        res = lp_feasible([LinearConstraint({"x": 1}, "<", -3)])
        assert res.feasible
        assert res.as_dict()["x"] < -3

    def test_equalities_only(self):
        res = lp_feasible([
            LinearConstraint({"x": 1, "y": 2}, "=", 4),
            LinearConstraint({"x": 1, "y": 1}, "=", 3),
        ])
        assert res.as_dict() == {"x": 2, "y": 1}

    def test_random_systems_self_verify(self):
        # every reported assignment satisfies every constraint; relies on
        # the internal re-verification not raising, plus an external check
        rng = random.Random(5)
        feasible_seen = infeasible_seen = 0
        for _ in range(120):
            cons = []
            nvars = rng.randint(1, 4)
            names = [f"v{i}" for i in range(nvars)]
            for _ in range(rng.randint(1, 5)):
                coeffs = {n: Fraction(rng.randint(-3, 3)) for n in names}
                rel = rng.choice([">=", ">", "=", "<=", "<"])
                cons.append(LinearConstraint(coeffs, rel,
                                             Fraction(rng.randint(-4, 4))))
            res = lp_feasible(cons)
            if res.feasible:
                feasible_seen += 1
                a = res.as_dict()
                assert all(c.satisfied_by(a) for c in cons)
            else:
                infeasible_seen += 1
        assert feasible_seen and infeasible_seen


def beale_system(relation):
    """Beale's cycling example as feasibility: its objective reaches 5/4
    only at a degenerate vertex, where careless pivoting cycles."""
    x = ("x4", "x5", "x6", "x7")
    return [
        LinearConstraint({"x4": Fraction(1, 4), "x5": -8, "x6": -1,
                          "x7": 9}, "<=", 0),
        LinearConstraint({"x4": Fraction(1, 2), "x5": -12,
                          "x6": Fraction(-1, 2), "x7": 3}, "<=", 0),
        LinearConstraint({"x6": 1}, "<=", 1),
        *(LinearConstraint({v: 1}, ">=", 0) for v in x),
        LinearConstraint({"x4": Fraction(3, 4), "x5": -20,
                          "x6": Fraction(1, 2), "x7": -6},
                         relation, Fraction(5, 4)),
    ]


class TestPivotPath:
    def test_golden_measures_and_pivots(self, monkeypatch):
        solved = []

        def recording(*args, **kwargs):
            solved.append(lp_feasible(*args, **kwargs))
            return solved[-1]

        monkeypatch.setattr(synthesis, "lp_feasible", recording)
        rng = random.Random(7)
        got = []
        for i, k in enumerate(GOLDEN_SIZES):
            model = cell_model(rng, k)
            for c in ("1/2", "2/3"):
                th = Threshold(Fraction(c))
                res = synthesize_measure(derive_neighborhoods(model, th), th)
                got.append((i, c, solved[-1].pivots,
                            " ".join(str(q) for q in res.model.weights)))
        assert got == GOLDEN

    def test_infeasible_results_count_pivots(self):
        m = walley_fine_model()
        pivots = []
        for c in ("1/3", "1/2", "3/5", "2/3", "3/4"):
            cons, names = synthesis.agreement_constraints(
                m, 0, Threshold(Fraction(c)))
            res = lp_feasible(cons, positivity=names)
            assert not res.feasible and res.assignment is None
            pivots.append(res.pivots)
        assert pivots == [27, 22, 22, 22, 22]

    def test_beale_terminates_under_blands_rule(self):
        res = lp_feasible(beale_system(">="))
        assert res.feasible and res.pivots == 13
        assert res.as_dict() == {"x4": 1, "x5": 0, "x6": 1, "x7": 0}
        res = lp_feasible(beale_system(">"))
        assert not res.feasible and res.pivots == 14


class TestSynthesis:
    def test_round_trip_small(self):
        rng = random.Random(17)
        for _ in range(30):
            m = sample_probability_model(rng, 5, ())
            target = derive_neighborhoods(m, HALF)
            res = synthesize_measure(target, HALF)
            assert res.feasible
            again = derive_neighborhoods(res.model, HALF)
            assert again.generators == target.generators
            assert check_agreement(target, res.model, HALF).holds

    def test_infeasible_system(self):
        frame = Frame(("a", "b"), (("a", "b"),), {})
        # both singletons believed needs both weights above c
        m = make_neighborhood_model(
            frame, [[frame.event(["a"]), frame.event(["b"])]])
        res = synthesize_measure(m, HALF)
        assert not res.feasible
        assert res.failed_cell == 0

    def test_walley_fine_infeasible_at_many_thresholds(self):
        m = walley_fine_model()
        for c in (Fraction(1, 3), Fraction(1, 2), Fraction(3, 5),
                  Fraction(2, 3), Fraction(3, 4)):
            assert not synthesize_measure(m, Threshold(c)).feasible

    def test_multi_cell(self):
        frame = Frame(("a", "b", "c"), (("a", "b"), ("c",)), {})
        m = make_neighborhood_model(
            frame, [[frame.event(["a"])], [frame.event(["c"])]])
        res = synthesize_measure(m, HALF)
        assert res.feasible
        assert derive_neighborhoods(res.model, HALF).generators \
            == m.generators


def lp_only(model, c, solve=lp_feasible):
    """The verdict of the per-cell LPs alone: (feasible, failed cell)."""
    for ci in range(len(model.frame.partition)):
        if not solve(*synthesis.agreement_constraints(model, ci, c)).feasible:
            return False, ci
    return True, None


def census_systems():
    """Every skeleton with at most 4 worlds, then seeded one-cell systems
    on 5 and 6 worlds: derived from measures, and random antichains."""
    yield from enumerate_neighborhood_models(4, ())
    rng = random.Random(20261017)
    for k, count in ((5, 24), (6, 8)):
        worlds = tuple(f"w{i}" for i in range(k))
        frame = Frame(worlds, (worlds,), {})
        for _ in range(count):
            c = Threshold(Fraction(rng.choice(("1/2", "3/5", "2/3"))))
            yield derive_neighborhoods(cell_model(rng, k), c)
            gens = [EventSet(rng.randrange(1, 1 << k), k)
                    for _ in range(rng.randint(2, 6))]
            yield make_neighborhood_model(frame, [gens])


# (count, sha256 prefix) of the distinct census systems that
# TestWitnessFirst.test_same_verdicts_as_the_lp_alone solves
SOLVED_DIGEST = (1316, "3463cccf62e9e90a")


class TestWitnessFirst:
    def test_same_verdicts_as_the_lp_alone(self, monkeypatch):
        # the skeletons repeat cells, and a feasible cell's system is
        # solved by both sides: solve each distinct system once
        solved = {}

        def solve(constraints, positivity=()):
            key = (tuple(constraints), tuple(positivity))
            if key not in solved:
                solved[key] = lp_feasible(constraints, positivity)
            return solved[key]

        monkeypatch.setattr(synthesis, "lp_feasible", solve)
        decided = {}
        for model in census_systems():
            for text in ("1/2", "3/5", "2/3", "3/4"):
                c = Threshold(Fraction(text))
                res = synthesize_measure(model, c)
                assert (res.feasible, res.failed_cell) \
                    == lp_only(model, c, solve)
                if res.feasible:
                    assert check_agreement(model, res.model, c).holds
                elif res.witness is not None:
                    assert res.witness.cell_index == res.failed_cell
                    assert replay_witness(model, c, res.condition,
                                          res.witness)
                    decided[res.condition] = decided.get(res.condition,
                                                         0) + 1
        # every kind of witness the searches can give shows up
        assert set(decided) >= {"d", "sc", "sc1^2", "sc0^2", "sc0^3", "ws",
                                "load"}
        # the simplex's path on these mostly 1-5 world cells is pinned:
        # every result, pivot count and measure included, in solve order
        text = "\n".join(
            f"{r.feasible} {r.slack} {r.pivots} "
            + " ".join(f"{v}={q}" for v, q in r.assignment or ())
            for r in solved.values())
        assert (len(solved),
                hashlib.sha256(text.encode()).hexdigest()[:16]) \
            == SOLVED_DIGEST

    def test_no_bare_infeasible_verdict_at_two_thirds(self, monkeypatch):
        # every cell without a measure at 2/3 fails a searched condition,
        # so the LP only ever sees feasible cells there
        def feasible_only(constraints, positivity=()):
            result = lp_feasible(constraints, positivity)
            assert result.feasible
            return result

        monkeypatch.setattr(synthesis, "lp_feasible", feasible_only)
        two_thirds = Threshold(Fraction(2, 3))
        infeasible = 0
        for model in census_systems():
            res = synthesize_measure(model, two_thirds)
            if not res.feasible:
                assert replay_witness(model, two_thirds, res.condition,
                                      res.witness)
                infeasible += 1
        assert infeasible > 200

    def test_tampered_witnesses_do_not_replay(self):
        m = make_neighborhood_model(
            Frame(("a", "b", "c"), (("a", "b", "c"),), {}),
            [[EventSet.of([0], 3), EventSet.of([1, 2], 3)]])
        res = synthesize_measure(m, HALF)
        assert res.condition == "d" and res.witness.cell_index == 0
        assert replay_witness(m, HALF, "d", res.witness)
        # the wrong threshold, condition or sets
        assert not replay_witness(m, Threshold(Fraction(1, 3)), "d",
                                  res.witness)
        assert not replay_witness(m, HALF, "sc", res.witness)
        assert not replay_witness(m, HALF, "scott", res.witness)
        g = res.witness.sets[0]
        assert not replay_witness(
            m, HALF, "d", type(res.witness)(0, (g, g)))
        # every other kind: a real witness replays, but not with a set
        # dropped, with a Y swapped for the believed whole cell, or under
        # a disjoint-union scheme name with the wrong s
        cases = [(walley_fine_model(), "1/2", "scott",
                  ScottWitness(0, *walley_fine_witness()))]
        for n, gens, text, condition in (
                (3, [[0, 1]], "1/2", "sc"),
                (4, [[0, 1, 2]], "3/5", "sc1^2"),
                (4, [[0, 1, 2]], "2/3", "sc0^2"),
                (4, [[0, 1, 2, 3]], "5/7", "sc1^3"),
                (5, [[0, 1, 2, 3]], "3/4", "sc0^3"),
                (5, [[0, 2, 3], [1, 2, 3], [1, 3, 4], [0, 1, 2, 4]], "2/3",
                 "ws")):
            worlds = tuple("abcde"[:n])
            model = make_neighborhood_model(
                Frame(worlds, (worlds,), {}),
                [[EventSet.of(g, n) for g in gens]])
            res = synthesize_measure(model, Threshold(Fraction(text)))
            assert res.condition == condition
            cases.append((model, text, condition, res.witness))
        # three believed sets with no world in all three: at 2/3 they
        # would weigh more than 2 but each world counts at most twice
        frame = Frame(tuple("abcde"), (tuple("abcd"), ("e",)), {})
        ad, abc, bcd = (frame.event(s) for s in ("ad", "abc", "bcd"))
        two_cells = make_neighborhood_model(
            frame, [[ad, abc, bcd], [frame.event("e")]])
        two_thirds = Threshold(Fraction(2, 3))
        res = synthesize_measure(two_cells, two_thirds)
        assert res.condition == "load"
        assert res.witness == CellSetWitness(0, (ad, abc, bcd))
        cases.append((two_cells, "2/3", "load", res.witness))
        # the bound is floor(k*c): at 3/5 three sets may share a world
        # once (floor(1.8) = 1), and load is not searched at 1/2
        for text in ("3/5", "1/2"):
            assert not replay_witness(two_cells, Threshold(Fraction(text)),
                                      "load", res.witness)
        # an unbelieved set, or one leaving the cell, passes the count
        for bad in (frame.event("d"), frame.event("ade")):
            assert not replay_witness(two_cells, two_thirds, "load",
                                      CellSetWitness(0, (bad, abc, bcd)))
        schemes = {"3/5": "sc1^2", "2/3": "sc0^2", "5/7": "sc1^3",
                   "3/4": "sc0^3"}
        for model, text, condition, w in cases:
            c = Threshold(Fraction(text))
            assert replay_witness(model, c, condition, w)
            cell = model.frame.partition[0]
            if isinstance(w, ScottWitness):
                tampered = [ScottWitness(0, w.xs[1:], w.ys),
                            ScottWitness(0, w.xs, w.ys[1:]),
                            ScottWitness(0, w.xs, (cell,) + w.ys[1:])]
            else:
                tampered = [CellSetWitness(0, w.sets[:k] + w.sets[k + 1:])
                            for k in range(len(w.sets))]
                if not condition.startswith("sc1"):
                    tampered.append(CellSetWitness(0, w.sets[:-1] + (cell,)))
            for bad in tampered:
                assert not replay_witness(model, c, condition, bad)
            for other_text, other in schemes.items():
                if other != condition:
                    assert not replay_witness(model, c, other, w)
                    assert not replay_witness(
                        model, Threshold(Fraction(other_text)), other, w)

    def test_no_bare_infeasible_verdict_above_two_thirds(self,
                                                         monkeypatch):
        # load's k runs up to the denominator of c: 7 at 5/7, 4 at 3/4
        # and 5 at 4/5 decide the cells the other conditions leave open
        def feasible_only(constraints, positivity=()):
            result = lp_feasible(constraints, positivity)
            assert result.feasible
            return result

        monkeypatch.setattr(synthesis, "lp_feasible", feasible_only)
        models = list(census_systems())
        for text in ("5/7", "3/4", "4/5"):
            c = Threshold(Fraction(text))
            loads = 0
            for model in models:
                res = synthesize_measure(model, c)
                if not res.feasible:
                    assert replay_witness(model, c, res.condition,
                                          res.witness)
                    loads += res.condition == "load"
            assert loads > 30

    def test_two_bare_infeasible_verdicts_at_three_fifths(self):
        c = Threshold(Fraction(3, 5))
        bare = [[[g.indices() for g in gens] for gens in model.generators]
                for model in census_systems()
                if not (res := synthesize_measure(model, c)).feasible
                and res.witness is None]
        assert bare == [
            [[(0, 3, 4), (1, 3, 4), (2, 3, 4), (0, 1, 2, 3)]],
            [[(0, 1, 5), (0, 1, 2, 4), (1, 2, 3, 5), (1, 2, 4, 5),
              (1, 3, 4, 5), (0, 2, 3, 4, 5)]]]

    def test_walley_fine_is_decided_by_witnesses(self, monkeypatch):
        solved = []

        def recording(*args, **kwargs):
            solved.append(lp_feasible(*args, **kwargs))
            return solved[-1]

        monkeypatch.setattr(synthesis, "lp_feasible", recording)
        m = walley_fine_model()
        for text, condition in (("1/2", "scott"), ("3/5", "ws"),
                                ("2/3", "ws"), ("3/4", "ws")):
            c = Threshold(Fraction(text))
            res = synthesize_measure(m, c)
            assert not res.feasible and res.condition == condition
            assert replay_witness(m, c, condition, res.witness)
        assert solved == []
        # no condition is searched below 1/2
        res = synthesize_measure(m, Threshold(Fraction(1, 3)))
        assert not res.feasible and res.witness is None
        assert len(solved) == 1

    def test_large_cells_go_to_the_lp(self, monkeypatch):
        solved = []

        def recording(*args, **kwargs):
            solved.append(lp_feasible(*args, **kwargs))
            return solved[-1]

        monkeypatch.setattr(synthesis, "lp_feasible", recording)
        # two disjoint believed sets fail d, but 8 worlds are over the
        # searches' budget
        worlds = tuple("abcdefgh")
        frame = Frame(worlds, (worlds,), {})
        model = make_neighborhood_model(
            frame, [[frame.event("abcd"), frame.event("efgh")]])
        res = synthesize_measure(model, HALF)
        assert not res.feasible and res.witness is None
        assert len(solved) == 1

    def test_seven_world_cells_match_the_lp_alone(self, monkeypatch):
        solved = {}

        def solve(constraints, positivity=()):
            key = (tuple(constraints), tuple(positivity))
            if key not in solved:
                solved[key] = lp_feasible(constraints, positivity)
            return solved[key]

        monkeypatch.setattr(synthesis, "lp_feasible", solve)
        rng = random.Random(7)
        worlds = tuple(f"w{i}" for i in range(7))
        frame = Frame(worlds, (worlds,), {})
        measures = [cell_model(rng, 7) for _ in range(2)]
        antichains = [make_neighborhood_model(frame, [[
            EventSet(rng.randrange(1, 1 << 7), 7)
            for _ in range(rng.randint(2, 6))]]) for _ in range(4)]
        witnesses = 0
        for text in ("1/2", "2/3"):
            c = Threshold(Fraction(text))
            for model in [derive_neighborhoods(m, c) for m in measures] \
                    + antichains:
                res = synthesize_measure(model, c)
                assert (res.feasible, res.failed_cell) \
                    == lp_only(model, c, solve)
                if res.feasible:
                    assert check_agreement(model, res.model, c).holds
                elif res.witness is not None:
                    assert replay_witness(model, c, res.condition,
                                          res.witness)
                    witnesses += 1
        assert witnesses > 0


class TestOneWorldCells:
    FRAME = Frame(("a", "b", "c", "d"), (("a", "b"), ("c",), ("d",)), {})
    THRESHOLDS = [Threshold(Fraction(t)) for t in ("1/3", "1/2", "2/3")]

    def model(self):
        return make_neighborhood_model(
            self.FRAME, [[self.FRAME.event(w)] for w in "acd"])

    def test_only_the_two_world_cell_reaches_the_lp(self, monkeypatch):
        calls = []

        def recording(constraints, positivity=()):
            calls.append(tuple(positivity))
            return lp_feasible(constraints, positivity)

        monkeypatch.setattr(synthesis, "lp_feasible", recording)
        for c in self.THRESHOLDS:
            calls.clear()
            assert synthesize_measure(self.model(), c).feasible
            assert calls == [("p_a", "p_b")]

    def test_point_masses_equal_the_lps_measure(self):
        model = self.model()
        for c in self.THRESHOLDS:
            expected = {}
            for ci, cell in enumerate(self.FRAME.partition):
                local = lp_feasible(*synthesis.agreement_constraints(
                    model, ci, c)).as_dict()
                for w in self.FRAME.names(cell):
                    expected[w] = local[f"p_{w}"] / 3
            res = synthesize_measure(model, c)
            assert res.model.weight_map() == expected
            assert check_agreement(model, res.model, c).holds

    def test_an_empty_generator_still_fails(self):
        # the raw type takes any generator list; only (cell,) is the
        # point mass's system, so an empty generator keeps the searches
        # and fails d: it and its own complement, both believed
        f = self.FRAME
        model = NeighborhoodModel(f, ((f.event("a"),), (EventSet.empty(4),),
                                      (f.event("d"),)))
        res = synthesize_measure(model, HALF)
        assert not res.feasible and res.condition == "d"
        assert res.failed_cell == 1
        assert lp_only(model, HALF) == (False, res.failed_cell)
        assert replay_witness(model, HALF, "d", res.witness)


def every_cap_system(model, ci, c):
    """The cell's agreement LP with a cap on every nonempty maximal
    non-neighborhood, the reference for the caps the solver leaves out."""
    frame = model.frame
    cell = frame.partition[ci]
    names = {v: f"p_{frame.worlds[v]}" for v in cell.indices()}
    cons = [LinearConstraint({nm: 1 for nm in names.values()}, "=", 1)]
    for g in model.generators[ci]:
        cons.append(LinearConstraint(
            {names[v]: 1 for v in g.indices()}, ">", c.value))
    for x in maximal_nonneighborhoods(cell, model.generators[ci]):
        if x:
            cons.append(LinearConstraint(
                {names[v]: 1 for v in x.indices()}, "<=", c.value))
    return cons, list(names.values())


class TestImpliedCaps:
    def test_reduced_systems_match_every_cap(self):
        checked = {}
        for model in census_systems():
            for ci in range(len(model.frame.partition)):
                for text in ("1/3", "1/2", "3/5", "2/3", "3/4"):
                    c = Threshold(Fraction(text))
                    full, names = every_cap_system(model, ci, c)
                    cons, variables = synthesis.agreement_constraints(
                        model, ci, c)
                    key = (tuple(full), tuple(names))
                    if key in checked:
                        continue
                    assert variables == names
                    # only caps are left out, and none below 1/2
                    assert [con for con in full if con in cons] == cons
                    assert all(con.relation == ">=" for con in full
                               if con not in cons)
                    if c.value < Fraction(1, 2):
                        assert cons == full
                    checked[key] = len(full) - len(cons)
                    if cons == full:
                        continue
                    reduced = lp_feasible(cons, positivity=variables)
                    if reduced.feasible:
                        # a point of the full system, so it is feasible too
                        measure = reduced.as_dict()
                        assert all(con.satisfied_by(measure)
                                   for con in full)
                    else:
                        assert not lp_feasible(full, names).feasible
        dropped = [d for d in checked.values() if d]
        assert len(dropped) > 300 and sum(dropped) > 1000

    def test_a_measure_above_a_left_out_cap_is_refused(self, monkeypatch):
        # at 1/2 the cap on {b, c} follows from {a}'s row and is left
        # out of the LP; a broken solver's measure above it is refused
        frame = Frame(("a", "b", "c"), (("a", "b", "c"),), {})
        model = make_neighborhood_model(frame, [[frame.event("a")]])
        cons, _ = synthesis.agreement_constraints(model, 0, HALF)
        assert len(cons) == 2
        third = Fraction(1, 3)
        monkeypatch.setattr(synthesis, "lp_feasible", lambda *a, **k: (
            synthesis.LPResult(True, (("p_a", third), ("p_b", third),
                                      ("p_c", third)), third)))
        with pytest.raises(RuntimeError, match="implied cap"):
            synthesize_measure(model, HALF)


class TestComparative:
    def test_kps_unrealizable(self):
        assert not realize_comparative(kps_relation()).feasible

    def test_simple_realizable(self):
        rel = ComparativeRelation(
            ("a", "b", "c"),
            ((EventSet.of([0], 3), "<", EventSet.of([1], 3)),
             (EventSet.of([1], 3), "<", EventSet.of([2], 3))))
        res = realize_comparative(rel, full_support=True)
        assert res.feasible
        a = res.as_dict()
        assert 0 < a["p_a"] < a["p_b"] < a["p_c"]

    def test_equality_statements(self):
        rel = ComparativeRelation(
            ("a", "b"),
            ((EventSet.of([0], 2), "=", EventSet.of([1], 2)),))
        res = realize_comparative(rel, full_support=True)
        assert res.as_dict()["p_a"] == res.as_dict()["p_b"] == Fraction(1, 2)


def witness_bits(report):
    return {name: v.witness and tuple(e.bits for e in v.witness)
            for name, v in report.verdicts}


def definetti_by_loops(leq, n):
    """check_definetti as nested loops that ask the oracle at every step:
    the reference for the table-driven version."""
    events = [EventSet(bits, n) for bits in range(1 << n)]
    full = EventSet.full(n)
    empty = EventSet.empty(n)

    nontrivial = Verdict.ok()
    if leq(full, empty):
        nontrivial = Verdict.fail((full, empty))

    minimal = Verdict.ok()
    for x in events:
        if not leq(empty, x):
            minimal = Verdict.fail((empty, x))
            break

    total_v = Verdict.ok()
    for x, y in itertools.combinations(events, 2):
        if not (leq(x, y) or leq(y, x)):
            total_v = Verdict.fail((x, y))
            break

    transitive = Verdict.ok()
    for x in events:
        for y in events:
            if not leq(x, y):
                continue
            for z in events:
                if leq(y, z) and not leq(x, z):
                    transitive = Verdict.fail((x, y, z))
                    break
            if not transitive.holds:
                break
        if not transitive.holds:
            break

    additive = Verdict.ok()
    for x in events:
        for y in events:
            rest = full.difference(x.union(y))
            for z in rest.subsets():
                if leq(x, y) != leq(x.union(z), y.union(z)):
                    additive = Verdict.fail((x, y, z))
                    break
            if not additive.holds:
                break
        if not additive.holds:
            break

    return PropertyReport((
        ("nontrivial", nontrivial),
        ("minimal-empty", minimal),
        ("total", total_v),
        ("transitive", transitive),
        ("additive", additive),
    ))


class TestDeFinetti:
    def test_measure_order_passes(self):
        rng = random.Random(29)
        for _ in range(10):
            raw = [rng.randint(1, 9) for _ in range(5)]
            total = sum(raw)
            leq = measure_order([Fraction(x, total) for x in raw], 5)
            assert check_definetti(leq, 5).all_hold

    def test_trivial_order_fails_nontriviality(self):
        leq = lambda x, y: True
        report = check_definetti(leq, 3)
        assert not report["nontrivial"].holds

    def test_backwards_order_fails(self):
        # reverse of the uniform measure order: the full set is minimal
        good = measure_order([Fraction(1, 3)] * 3, 3)
        report = check_definetti(lambda x, y: good(y, x), 3)
        assert witness_bits(report) == {
            "nontrivial": (7, 0), "minimal-empty": (0, 1),
            "total": None, "transitive": None, "additive": None}

    def test_intransitive_fails(self):
        def leq(x, y):
            # rock-paper-scissors on singletons, measure order elsewhere
            if x.cardinality() == y.cardinality() == 1:
                a, b = x.indices()[0], y.indices()[0]
                return (b - a) % 3 == 1 or a == b
            return x.cardinality() <= y.cardinality()
        report = check_definetti(leq, 3)
        assert witness_bits(report) == {
            "nontrivial": None, "minimal-empty": None, "total": None,
            "transitive": (1, 2, 4), "additive": (1, 4, 2)}

    def test_kps_extension_certified(self):
        leq = kps_definetti_extension()
        assert check_definetti(leq, 5).all_hold

    def test_kps_extension_orients_statements(self):
        from highprob.corpus import KPS_STATEMENTS, KPS_WORLDS
        leq = kps_definetti_extension()
        def ev(letters):
            return EventSet.of([KPS_WORLDS.index(ch) for ch in letters], 5)
        for left, rel, right in KPS_STATEMENTS:
            assert rel == "<"
            assert leq(ev(left), ev(right))
            assert not leq(ev(right), ev(left))
        # a strict total order: each event has its own number of events
        # strictly below it, from none below {} to 31 below the universe
        events = [EventSet(b, 5) for b in range(32)]
        below = [sum(leq(y, x) and not leq(x, y) for y in events)
                 for x in events]
        assert sorted(below) == list(range(32))
        assert below[0] == 0 and below[31] == 31

    def test_oracle_called_once_per_ordered_pair(self):
        for leq, n in ((kps_definetti_extension(), 5),
                       (measure_order([Fraction(k, 10) for k in (1, 2, 3, 4)],
                                      4), 4)):
            calls = []

            def counted(x, y, leq=leq):
                calls.append((x.bits, y.bits))
                return leq(x, y)

            assert check_definetti(counted, n).all_hold
            assert len(calls) == 4 ** n
            assert len(set(calls)) == 4 ** n

    def test_table_matches_the_nested_loops(self):
        """The table-driven check returns the same verdicts and first
        witnesses as asking the oracle inside every loop, on random
        oracles, on measure orders with a few answers flipped, and on the
        KPS extension; and each of the five conditions fails somewhere."""
        rng = random.Random(19)
        cases = []
        for n in range(1, 5):
            for _ in range(40):
                p = rng.choice((0.5, 0.9, 0.99))
                cases.append((n, [[rng.random() < p for _ in range(1 << n)]
                                  for _ in range(1 << n)]))
        for n in range(1, 6):
            for flips in range(4):
                for _ in range(6 if n == 5 else 20):
                    weights = [rng.randint(0, 4) for _ in range(n)]
                    mass = [sum(w for i, w in enumerate(weights) if b >> i & 1)
                            for b in range(1 << n)]
                    table = [[mx <= my for my in mass] for mx in mass]
                    for _ in range(flips):
                        x, y = rng.randrange(1 << n), rng.randrange(1 << n)
                        table[x][y] = not table[x][y]
                    cases.append((n, table))
        kps = kps_definetti_extension()
        cases.append((5, [[kps(EventSet(x, 5), EventSet(y, 5))
                           for y in range(32)] for x in range(32)]))
        failed = set()
        for n, table in cases:
            def leq(x, y, table=table):
                return table[x.bits][y.bits]
            report = check_definetti(leq, n)
            assert report == definetti_by_loops(leq, n), (n, table)
            failed.update(report.failures())
        assert failed == {"nontrivial", "minimal-empty", "total",
                          "transitive", "additive"}
