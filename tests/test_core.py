from fractions import Fraction

import pytest

from highprob.core import (
    EventSet,
    Frame,
    conditional_probability,
    exact,
    make_neighborhood_model,
    make_probability_model,
    minimal_antichain,
)
from highprob.corpus import non_consequence_model
from highprob.errors import (
    BadNeighborhood,
    BadPartition,
    WeightsNotNormalized,
    ZeroOrNegativeWeight,
)


def horse_frame(partition=(("w1", "w2", "w3"),)):
    return Frame(("w1", "w2", "w3"), partition,
                 {"w1": {"h1"}, "w2": {"h2"}, "w3": {"h3"}})


def horse_model(partition=(("w1", "w2", "w3"),)):
    return make_probability_model(horse_frame(partition), {
        "w1": Fraction(3, 6), "w2": Fraction(2, 6), "w3": Fraction(1, 6)})


class TestEventSet:
    def test_algebra(self):
        a = EventSet.of([0, 2], 4)
        b = EventSet.of([1, 2], 4)
        assert a.union(b) == EventSet.of([0, 1, 2], 4)
        assert a.intersection(b) == EventSet.of([2], 4)
        assert a.difference(b) == EventSet.of([0], 4)
        assert a.complement() == EventSet.of([1, 3], 4)
        assert not a.issubset(b)
        assert EventSet.of([2], 4).issubset(a) \
            and not a.issubset(EventSet.of([2], 4))
        assert len(a) == 2
        assert 2 in a and 1 not in a

    def test_subsets_enumerates_powerset(self):
        cell = EventSet.of([0, 2, 3], 5)
        subs = list(cell.subsets())
        assert len(subs) == 8
        assert len(set(subs)) == 8
        assert all(s.issubset(cell) for s in subs)
        # ascending bitmask order
        assert [s.bits for s in subs] == sorted(s.bits for s in subs)

    def test_universe_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EventSet.of([0], 2).union(EventSet.of([0], 3))
        with pytest.raises(ValueError):
            EventSet.of([5], 3)


class TestFrame:
    def test_partition_validation(self):
        with pytest.raises(BadPartition):
            Frame(("a", "b"), (("a",),), {})  # does not cover b
        with pytest.raises(BadPartition):
            Frame(("a", "b"), (("a", "b"), ("b",)), {})  # overlap
        with pytest.raises(BadPartition):
            Frame(("a", "b"), (("a", "b"), ()), {})  # empty cell

    def test_class_of(self):
        f = horse_frame((("w1", "w2"), ("w3",)))
        assert f.names(f.class_of("w1")) == ("w1", "w2")
        assert f.names(f.class_of("w3")) == ("w3",)
        assert f.cell_index("w2") == 0

    def test_atom_extension(self):
        f = horse_frame()
        assert f.names(f.atom_extension("h2")) == ("w2",)
        assert f.atom_extension("nope").is_empty()


class TestProbabilityModel:
    def test_validation(self):
        f = horse_frame()
        with pytest.raises(ZeroOrNegativeWeight):
            make_probability_model(f, {"w1": 1, "w2": 0, "w3": 0})
        with pytest.raises(WeightsNotNormalized):
            make_probability_model(
                f, {"w1": Fraction(1, 2), "w2": Fraction(1, 2),
                    "w3": Fraction(1, 2)})
        with pytest.raises(BadPartition):
            make_probability_model(f, {"w1": 1})

    def test_one_world(self):
        f = Frame(("w",), (("w",),), {})
        m = make_probability_model(f, {"w": 1})
        assert m.weight_map() == {"w": 1}

    def test_float_and_bool_weights_refused(self):
        # 0.1 + 0.9 as binary fractions sums to 1 + 2**-55, and True is 1
        f = Frame(("a", "b"), (("a", "b"),), {})
        for weights in ({"a": 0.5, "b": 0.5}, {"a": 0.1, "b": 0.9},
                        {"a": Fraction(1, 2), "b": 0.5}):
            with pytest.raises(TypeError, match="0.5|0.1"):
                make_probability_model(f, weights)
        with pytest.raises(TypeError, match="True"):
            make_probability_model(Frame(("w",), (("w",),), {}),
                                   {"w": True})
        m = make_probability_model(f, {"a": "1/4", "b": Fraction(3, 4)})
        assert m.weights == (Fraction(1, 4), Fraction(3, 4))

    def test_corpus_threshold_must_be_exact(self):
        # 0.6 would give w2 the weight 5404319552844595/9007199254740992
        with pytest.raises(TypeError, match="0.6"):
            non_consequence_model(0.6)
        for c in (Fraction(3, 5), "3/5"):
            assert non_consequence_model(c).weights == (
                Fraction(1, 5), Fraction(3, 5), Fraction(1, 5))

    def test_exact_returns_a_fraction_as_it_is(self):
        q = Fraction(2, 3)
        assert exact(q) is q
        assert type(exact(2)) is Fraction and exact("2/3") == q

    def test_conditional_probability(self):
        m = horse_model()
        assert conditional_probability(
            m, "w1", m.frame.event(["w1", "w3"])) == Fraction(2, 3)
        # conditioning on the agent's own cell is certain
        assert conditional_probability(m, "w2", m.frame.class_of("w2")) == 1

    def test_conditional_probability_cut_frame(self):
        m = horse_model((("w1", "w2"), ("w3",)))
        assert conditional_probability(m, "w1", m.frame.event(["w3"])) == 0
        assert conditional_probability(
            m, "w1", m.frame.event(["w1"])) == Fraction(3, 5)

    def test_cell_invariance(self):
        m = horse_model((("w1", "w2"), ("w3",)))
        for event in EventSet.full(3).subsets():
            assert conditional_probability(m, "w1", event) \
                == conditional_probability(m, "w2", event)

    def test_additivity(self):
        m = horse_model()
        x = m.frame.event(["w1"])
        y = m.frame.event(["w2", "w3"])
        assert conditional_probability(m, "w1", x) \
            + conditional_probability(m, "w1", y) \
            == conditional_probability(m, "w1", x.union(y)) == 1


class TestNeighborhoodStorage:
    def test_validation(self):
        f = horse_frame((("w1", "w2"), ("w3",)))
        with pytest.raises(BadNeighborhood):
            make_neighborhood_model(f, [[], [f.event(["w3"])]])
        with pytest.raises(BadNeighborhood):
            make_neighborhood_model(
                f, [[EventSet.empty(3)], [f.event(["w3"])]])
        with pytest.raises(BadNeighborhood):
            # generator escapes its cell
            make_neighborhood_model(
                f, [[f.event(["w1", "w3"])], [f.event(["w3"])]])

    def test_membership_matches_explicit_closure(self):
        f = Frame(tuple(f"w{i}" for i in range(6)),
                  (tuple(f"w{i}" for i in range(6)),), {})
        gens = [f.event(["w0", "w1"]), f.event(["w2", "w3", "w4"]),
                f.event(["w5"])]
        m = make_neighborhood_model(f, [gens])
        closure = {x for x in EventSet.full(6).subsets()
                   if any(g.issubset(x) for g in gens)}
        for x in EventSet.full(6).subsets():
            assert m.cell_is_neighborhood(0, x) == (x in closure)

    def test_minimal_antichain(self):
        mk = lambda ix: EventSet.of(ix, 4)
        out = minimal_antichain(
            [mk([0, 1]), mk([0]), mk([0, 1, 2]), mk([2, 3]), mk([0])])
        assert out == (mk([0]), mk([2, 3]))

    def test_canonicalized_on_construction(self):
        f = horse_frame()
        m = make_neighborhood_model(
            f, [[f.event(["w1", "w2"]), f.event(["w1"])]])
        assert m.generators[0] == (f.event(["w1"]),)
