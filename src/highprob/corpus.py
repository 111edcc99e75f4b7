"""Built-in scenarios: the horse-racing models, the seven-world
neighborhood model with no agreeing measure, the five-element comparative
relation that satisfies the classical conditions yet has no realizing
measure, and the regression proof corpus.
"""

from __future__ import annotations

from fractions import Fraction

from .core import (
    EventSet,
    Frame,
    NeighborhoodModel,
    ProbabilityModel,
    exact,
    make_neighborhood_model,
    make_probability_model,
)
from .synthesis import ComparativeRelation


def _event(worlds: tuple[str, ...], letters: str) -> EventSet:
    """The event of the one-letter worlds named in letters."""
    return EventSet.of((worlds.index(ch) for ch in letters), len(worlds))


# ---------------------------------------------------------------------------
# Horse-racing models

_HORSE_VALUATION = {"w1": {"h1"}, "w2": {"h2"}, "w3": {"h3"}}


def horses_common_prior() -> ProbabilityModel:
    """Three horses, one information cell, chances 3/6, 2/6, 1/6."""
    frame = Frame(("w1", "w2", "w3"), (("w1", "w2", "w3"),),
                  _HORSE_VALUATION)
    return make_probability_model(frame, {
        "w1": Fraction(3, 6), "w2": Fraction(2, 6), "w3": Fraction(1, 6)})


def horses_cut() -> ProbabilityModel:
    """Same chances, but the third outcome is epistemically separated."""
    frame = Frame(("w1", "w2", "w3"), (("w1", "w2"), ("w3",)),
                  _HORSE_VALUATION)
    return make_probability_model(frame, {
        "w1": Fraction(3, 6), "w2": Fraction(2, 6), "w3": Fraction(1, 6)})


def horses_uniform() -> ProbabilityModel:
    """Equal chances; the source of the non-normality judgments."""
    frame = Frame(("w1", "w2", "w3"), (("w1", "w2", "w3"),),
                  _HORSE_VALUATION)
    third = Fraction(1, 3)
    return make_probability_model(
        frame, {"w1": third, "w2": third, "w3": third})


def non_consequence_model(c: Fraction) -> ProbabilityModel:
    """Weights ((q-p)/2q, p/q, (q-p)/2q) for c = p/q.

    Falsifies closure of belief under believed implication at w1: the
    implication from not-h1 to h2 and its antecedent each get probability
    (p+q)/2q above the threshold, while h2 gets exactly p/q.
    """
    c = exact(c)
    p, q = c.numerator, c.denominator
    side = Fraction(q - p, 2 * q)
    frame = Frame(("w1", "w2", "w3"), (("w1", "w2", "w3"),),
                  _HORSE_VALUATION)
    return make_probability_model(
        frame, {"w1": side, "w2": Fraction(p, q), "w3": side})


# ---------------------------------------------------------------------------
# The seven-world model with no agreeing measure

WF_WORLDS = ("a", "b", "c", "d", "e", "f", "g")
WF_X_LISTS = ("efg", "abg", "adf", "bde", "ace", "cdg", "bcf")
WF_Y_LISTS = ("abcd", "cdef", "bceg", "acfg", "bdfg", "abef", "adeg")
WF_X2_LISTS = ("ace", "bde")
WF_Y2_LISTS = ("abef", "cdef")


def walley_fine_model() -> NeighborhoodModel:
    """One seven-world cell whose neighborhoods are generated by seven
    three-element sets; each world lies in exactly three of them."""
    frame = Frame(WF_WORLDS, (WF_WORLDS,), {w: {w} for w in WF_WORLDS})
    return make_neighborhood_model(
        frame, ((tuple(_event(WF_WORLDS, s) for s in WF_X_LISTS)),))


def walley_fine_witness() -> tuple[tuple[EventSet, ...],
                                   tuple[EventSet, ...]]:
    """The classical m = 7 counting violation: the X-list is the
    generator family, the Y-list its setwise complements, and every
    world lies in three X's but four Y's.  It is not the shortest: the
    model already fails Scott's condition with m = 2 (see
    walley_fine_scott2_witness)."""
    return (tuple(_event(WF_WORLDS, s) for s in WF_X_LISTS),
            tuple(_event(WF_WORLDS, s) for s in WF_Y_LISTS))


def walley_fine_scott2_witness() -> tuple[tuple[EventSet, ...],
                                          tuple[EventSet, ...]]:
    """A counting violation with m = 2, the shortest there is: X_1 =
    {a,c,e} is a generator, the cell-complement {a,c,f,g} of X_2 =
    {b,d,e} holds none, neither Y holds one, and each world lies in at
    least as many Y's as X's."""
    return (tuple(_event(WF_WORLDS, s) for s in WF_X2_LISTS),
            tuple(_event(WF_WORLDS, s) for s in WF_Y2_LISTS))


# ---------------------------------------------------------------------------
# Comparative probability: the five-element counterexample

KPS_WORLDS = ("a", "b", "c", "d", "e")


KPS_STATEMENTS = (
    ("c", "<", "ab"),
    ("bd", "<", "ac"),
    ("ae", "<", "bc"),
    ("abc", "<", "de"),
)


def kps_relation() -> ComparativeRelation:
    """The four strict comparisons with no realizing measure: summing the
    four left sides and the four right sides gives the same multiset of
    worlds, so realizing weights would have to satisfy s < s."""
    return ComparativeRelation(
        KPS_WORLDS,
        tuple((_event(KPS_WORLDS, x), rel, _event(KPS_WORLDS, y))
              for x, rel, y in KPS_STATEMENTS))


# each event's rank in a strict total order, indexed by event bitmask
_KPS_RANK = (0, 4, 1, 6, 5, 14, 8, 15, 12, 20, 13, 22, 21, 28, 24, 29,
             2, 7, 3, 10, 9, 18, 11, 19, 16, 23, 17, 26, 25, 30, 27, 31)


def kps_definetti_extension():
    """A total order over the powerset of the five-element universe that
    satisfies all five classical conditions, orients the four
    counterexample statements strictly, and therefore has no realizing
    measure.

    The order is the stored rank table above: it refines the measure
    order of the weights (5, 1, 6, 10, 2), under which each statement is
    an exact tie, and breaks every tie.  ``demo kps`` re-proves the five
    conditions with ``check_definetti`` on every run.
    """
    def leq(x: EventSet, y: EventSet) -> bool:
        return _KPS_RANK[x.bits] <= _KPS_RANK[y.bits]

    return leq


# ---------------------------------------------------------------------------
# Proof corpus

PROOF_KNOWLEDGE_IMPLIES_BELIEF = """
# knowledge implies belief
1. B true ; AX N
2. K (true -> p) -> (B true -> B p) ; AX KBM {phi := true, psi := p}
3. p -> (true -> p) ; AX CL {phi := p, psi := true}
4. K (p -> (true -> p)) ; MN 3
5. K (p -> (true -> p)) -> (K p -> K (true -> p)) ; AX KS5_K {phi := p, psi := true -> p}
6. K p -> K (true -> p) ; MP 4 5
7. (K p -> K (true -> p)) -> ((K (true -> p) -> (B true -> B p)) -> (B true -> (K p -> B p))) ; AX CL
8. (K (true -> p) -> (B true -> B p)) -> (B true -> (K p -> B p)) ; MP 6 7
9. B true -> (K p -> B p) ; MP 2 8
10. K p -> B p ; MP 1 9
"""

PROOF_BELIEF_DISTRIBUTES_OVER_AND = """
# belief of a conjunction yields belief of each conjunct
1. (p & q) -> p ; AX CL {phi := p, psi := q}
2. K ((p & q) -> p) ; MN 1
3. K ((p & q) -> p) -> (B (p & q) -> B p) ; AX KBM {phi := p & q, psi := p}
4. B (p & q) -> B p ; MP 2 3
5. (p & q) -> q ; AX CL {phi := p, psi := q}
6. K ((p & q) -> q) ; MN 5
7. K ((p & q) -> q) -> (B (p & q) -> B q) ; AX KBM {phi := p & q, psi := q}
8. B (p & q) -> B q ; MP 6 7
9. (B (p & q) -> B p) -> ((B (p & q) -> B q) -> (B (p & q) -> (B p & B q))) ; AX CL
10. (B (p & q) -> B q) -> (B (p & q) -> (B p & B q)) ; MP 4 9
11. B (p & q) -> (B p & B q) ; MP 8 10
"""

PROOF_KNOWN_CONJUNCT_JOINS_BELIEF = """
# a known conjunct may be adjoined to a believed one
1. p -> (q -> (p & q)) ; AX CL {phi := p, psi := q}
2. K (p -> (q -> (p & q))) ; MN 1
3. K (p -> (q -> (p & q))) -> (K p -> K (q -> (p & q))) ; AX KS5_K {phi := p, psi := q -> (p & q)}
4. K p -> K (q -> (p & q)) ; MP 2 3
5. K (q -> (p & q)) -> (B q -> B (p & q)) ; AX KBM {phi := q, psi := p & q}
6. (K p -> K (q -> (p & q))) -> ((K (q -> (p & q)) -> (B q -> B (p & q))) -> ((K p & B q) -> B (p & q))) ; AX CL
7. (K (q -> (p & q)) -> (B q -> B (p & q))) -> ((K p & B q) -> B (p & q)) ; MP 4 6
8. (K p & B q) -> B (p & q) ; MP 5 7
"""

PROOF_BELIEF_OF_PROVABLE = """
# a concrete provable formula is believed
1. true -> (p -> p) ; AX CL
2. K (true -> (p -> p)) ; MN 1
3. K (true -> (p -> p)) -> (B true -> B (p -> p)) ; AX KBM {phi := true, psi := p -> p}
4. B true -> B (p -> p) ; MP 2 3
5. B true ; AX N
6. B (p -> p) ; MP 5 4
"""

PROOF_BELIEF_MONOTONE = """
# belief transfers along a provable implication
1. (p & q) -> q ; AX CL {phi := p, psi := q}
2. K ((p & q) -> q) ; MN 1
3. K ((p & q) -> q) -> (B (p & q) -> B q) ; AX KBM {phi := p & q, psi := q}
4. B (p & q) -> B q ; MP 2 3
"""

PROOF_BELIEF_REPLACEMENT = """
# belief is invariant under a provable equivalence
1. p -> ~~p ; AX CL
2. K (p -> ~~p) ; MN 1
3. K (p -> ~~p) -> (B p -> B ~~p) ; AX KBM {phi := p, psi := ~~p}
4. B p -> B ~~p ; MP 2 3
5. ~~p -> p ; AX CL
6. K (~~p -> p) ; MN 5
7. K (~~p -> p) -> (B ~~p -> B p) ; AX KBM {phi := ~~p, psi := p}
8. B ~~p -> B p ; MP 6 7
9. (B p -> B ~~p) -> ((B ~~p -> B p) -> (B p <-> B ~~p)) ; AX CL
10. (B ~~p -> B p) -> (B p <-> B ~~p) ; MP 4 9
11. B p <-> B ~~p ; MP 8 10
"""

PROOF_NO_CONTRADICTION_BELIEVED = """
# a self-contradictory formula is not believed
1. (p & ~p) -> false ; AX CL
2. K ((p & ~p) -> false) ; MN 1
3. K ((p & ~p) -> false) -> (B (p & ~p) -> B false) ; AX KBM {phi := p & ~p, psi := false}
4. B (p & ~p) -> B false ; MP 2 3
5. ~B false ; AX BF
6. (B (p & ~p) -> B false) -> (~B false -> ~B (p & ~p)) ; AX CL
7. ~B false -> ~B (p & ~p) ; MP 4 6
8. ~B (p & ~p) ; MP 5 7
"""

# the reduced mid-threshold theory recovers the omitted schemes

PROOF_BF_FROM_REDUCED = """
# belief consistency from whole-cell belief and the consistency scheme
1. B true ; AX N
2. B true -> ~B ~true ; AX D {phi := true}
3. ~B ~true ; MP 1 2
"""

PROOF_KBM_FROM_REDUCED = """
# belief monotonicity from the m = 1 counting-transfer scheme
1. (p -> q) -> ((~p & ~q | ~p & q) | p & q) ; AX CL
2. K ((p -> q) -> ((~p & ~q | ~p & q) | p & q)) ; MN 1
3. K ((p -> q) -> ((~p & ~q | ~p & q) | p & q)) -> (K (p -> q) -> K ((~p & ~q | ~p & q) | p & q)) ; AX KS5_K {phi := p -> q, psi := (~p & ~q | ~p & q) | p & q}
4. K (p -> q) -> K ((~p & ~q | ~p & q) | p & q) ; MP 2 3
5. K ((~p & ~q | ~p & q) | p & q) & B p -> B q ; AX Scott1 {phi1 := p, psi1 := q}
6. (K (p -> q) -> K ((~p & ~q | ~p & q) | p & q)) -> ((K ((~p & ~q | ~p & q) | p & q) & B p -> B q) -> (K (p -> q) -> (B p -> B q))) ; AX CL
7. (K ((~p & ~q | ~p & q) | p & q) & B p -> B q) -> (K (p -> q) -> (B p -> B q)) ; MP 4 6
8. K (p -> q) -> (B p -> B q) ; MP 5 7
"""

PROOF_CORPUS: tuple[tuple[str, str, str], ...] = (
    ("knowledge-implies-belief", "kb", PROOF_KNOWLEDGE_IMPLIES_BELIEF),
    ("belief-distributes-over-and", "kb", PROOF_BELIEF_DISTRIBUTES_OVER_AND),
    ("known-conjunct-joins-belief", "kb", PROOF_KNOWN_CONJUNCT_JOINS_BELIEF),
    ("belief-of-provable", "kb", PROOF_BELIEF_OF_PROVABLE),
    ("belief-monotone", "kb", PROOF_BELIEF_MONOTONE),
    ("belief-replacement", "kb", PROOF_BELIEF_REPLACEMENT),
    ("no-contradiction-believed", "kb", PROOF_NO_CONTRADICTION_BELIEVED),
    ("bf-from-reduced", "kb-half-minus", PROOF_BF_FROM_REDUCED),
    ("kbm-from-reduced", "kb-half-minus", PROOF_KBM_FROM_REDUCED),
)
