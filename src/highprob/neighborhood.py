"""Neighborhood-system property checking and threshold derivation.

Checks the five structural conditions every epistemic neighborhood system
must satisfy, the three extra conditions characterizing systems that admit
an agreeing measure at threshold 1/2, and the candidate conditions for
higher thresholds.  Those among them proven necessary at a threshold give
replayable witnesses that a cell has no agreeing measure.  Also derives
the neighborhood system induced by a probability model at a given
threshold and tests agreement between the two model kinds.

The searches work on ``int`` bitmasks; the counting searches add count
vectors packed into one ``int`` per set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import ceil

from .core import (
    EventSet,
    Frame,
    NeighborhoodModel,
    ProbabilityModel,
    conditional_mass,
    make_neighborhood_model,
    minimal_antichain,
)
from .errors import CellTooLargeForBruteForce, FrameMismatch
from .formula import Threshold

DEFAULT_M_MAX = 3
DEFAULT_CELL_BUDGET = 6
HALF = Fraction(1, 2)


@dataclass(frozen=True)
class Verdict:
    """Holds, or Fails with a concrete witness of the violation."""

    holds: bool
    witness: object = None

    @staticmethod
    def ok() -> "Verdict":
        return Verdict(True)

    @staticmethod
    def fail(witness) -> "Verdict":
        return Verdict(False, witness)


@dataclass(frozen=True)
class PropertyReport:
    verdicts: tuple[tuple[str, Verdict], ...]

    def __getitem__(self, name: str) -> Verdict:
        for key, verdict in self.verdicts:
            if key == name:
                return verdict
        raise KeyError(name)

    def names(self) -> tuple[str, ...]:
        return tuple(key for key, _ in self.verdicts)

    @property
    def all_hold(self) -> bool:
        return all(v.holds for _, v in self.verdicts)

    def failures(self) -> tuple[str, ...]:
        return tuple(key for key, v in self.verdicts if not v.holds)


@dataclass(frozen=True)
class CellSetWitness:
    """A violating cell together with the offending sets."""

    cell_index: int
    sets: tuple[EventSet, ...]


@dataclass(frozen=True)
class ScottWitness:
    """A counting-condition violation: the X-list is collectively believed
    in the scheme's sense yet no member of the Y-list is believed."""

    cell_index: int
    xs: tuple[EventSet, ...]
    ys: tuple[EventSet, ...]


# ---------------------------------------------------------------------------
# Base properties


def check_base_properties(model: NeighborhoodModel) -> PropertyReport:
    """Verdicts for closure-in-cell, no-empty-belief, whole-cell-believed,
    cell-invariance, and monotonicity.

    The generator representation makes cell-invariance and monotonicity
    hold by construction; they are re-verified on the closed system for
    small cells as defense in depth.  The raw model type does not validate,
    so the first three can genuinely fail here.
    """
    frame = model.frame
    kbc = kbf = n = a = kbm = Verdict.ok()
    for ci, cell in enumerate(frame.partition):
        gens = model.generators[ci] if ci < len(model.generators) else ()
        for g in gens:
            if not g.issubset(cell) and kbc.holds:
                kbc = Verdict.fail(CellSetWitness(ci, (g,)))
            if g.is_empty() and kbf.holds:
                kbf = Verdict.fail(CellSetWitness(ci, (g,)))
        if n.holds and not any(g.issubset(cell) for g in gens):
            n = Verdict.fail(CellSetWitness(ci, (cell,)))
        # monotonicity re-verified on the explicit closure of small cells
        if kbm.holds and gens and len(cell) <= DEFAULT_CELL_BUDGET:
            closed = set(_closure_members(cell, gens))
            for x in closed:
                bad = next((y for y in cell.subsets()
                            if x.issubset(y) and y not in closed), None)
                if bad is not None:
                    kbm = Verdict.fail(CellSetWitness(ci, (x, bad)))
                    break
    return PropertyReport((
        ("kbc", kbc), ("kbf", kbf), ("n", n), ("a", a), ("kbm", kbm),
    ))


# ---------------------------------------------------------------------------
# Helpers over a single cell's system

def _closure_members(cell: EventSet, gens) -> list[EventSet]:
    return [x for x in cell.subsets()
            if any(g.issubset(x) for g in gens)]


def _believed(gens: tuple[int, ...], x: int) -> bool:
    """Some generator bitmask lies inside the bitmask x."""
    return any(g & ~x == 0 for g in gens)


def _members(bits: int) -> list[int]:
    """The indices of the set bits, in increasing order."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def _submasks(bits: int) -> list[int]:
    """Every submask of bits, in increasing order."""
    out = [bits]
    while out[-1]:
        out.append((out[-1] - 1) & bits)
    out.reverse()
    return out


def _by_size(masks) -> tuple[int, ...]:
    return tuple(sorted(masks, key=lambda x: (x.bit_count(), x)))


def maximal_nonneighborhoods(cell: EventSet, gens) -> tuple[EventSet, ...]:
    """Maximal subsets of the cell that are not neighborhoods.

    These are the complements (within the cell) of the minimal transversals
    of the generator family: X misses every generator exactly when its
    cell-complement hits every generator.  Non-neighborhoods are downward
    closed, so a non-neighborhood is maximal exactly when adding any one
    world of the cell makes it a neighborhood.  Computed by brute force
    over cell subsets; budgeted to small cells.
    """
    if len(cell) > 12:
        raise CellTooLargeForBruteForce(
            f"cell of size {len(cell)} exceeds the transversal budget")
    gens = tuple(g.bits for g in gens)
    out = [x for x in _submasks(cell.bits)
           if not _believed(gens, x)
           and all(_believed(gens, x | 1 << v)
                   for v in _members(cell.bits & ~x))]
    return tuple(EventSet(x, cell.universe_size) for x in _by_size(out))


def minimal_dual_believed(cell: EventSet, gens) -> tuple[EventSet, ...]:
    """Minimal X with cell − X not a neighborhood.

    This family is upward closed (non-neighborhoods are downward closed),
    so its minimal elements are the cell-complements of the maximal
    non-neighborhoods.
    """
    return tuple(sorted(
        (cell.difference(x) for x in maximal_nonneighborhoods(cell, gens)),
        key=lambda e: (len(e), e.bits)))


def cell_families(model: NeighborhoodModel, cell_index: int
                  ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The cell's maximal non-neighborhoods and minimal dual-believed sets
    as bitmasks, each sorted by (size, bits).

    Computed once per model and cell: the property searches, the
    witness search before synthesis and the synthesis LP's constraints
    all read them from here.
    """
    families = model._families.get(cell_index)
    if families is None:
        cell = model.frame.partition[cell_index]
        max_non = tuple(x.bits for x in maximal_nonneighborhoods(
            cell, model.generators[cell_index]))
        families = (max_non, _by_size(cell.bits ^ x for x in max_non))
        model._families[cell_index] = families
    return families


def _count_vectors_ok(cell: EventSet, xs, ys) -> bool:
    """Every world of the cell lies in at least as many Y's as X's."""
    for v in cell.indices():
        if sum(1 for x in xs if v in x) > sum(1 for y in ys if v in y):
            return False
    return True


def _first_dominated(cell: int, xs_of, max_non: tuple[int, ...],
                     m_max: int):
    """The first (xs, ys), for m = 1 .. m_max, with xs running through
    xs_of(m) and ys through the multisets of m maximal non-neighborhoods,
    in which every world of the cell lies in at least as many Y's as X's;
    None if there is none.

    Each set is packed into one int with a field of m_max.bit_length() + 1
    bits per world of the cell, so a list's sum holds its count vector.
    No field of a sum of at most m_max sets reaches the field's top bit,
    which serves as a guard: (ysum + G) - xsum, with G the guard bits,
    borrows from a field's guard exactly when that field's X-count
    exceeds its Y-count.  Equal sums give equal answers, so each Y-sum is
    kept once, at its first list, and each X-sum is tested once; the
    first hit is therefore the first in the nested order.
    """
    width = m_max.bit_length() + 1
    shift = {v: j * width for j, v in enumerate(_members(cell))}
    guard = sum(1 << (s + width - 1) for s in shift.values())
    packed: dict[int, int] = {}

    def pack(x: int) -> int:
        p = packed.get(x)
        if p is None:
            p = packed[x] = sum(1 << shift[v] for v in _members(x & cell))
        return p

    for m in range(1, m_max + 1):
        ysums: dict[int, tuple[int, ...]] = {}
        for ys in itertools.combinations_with_replacement(max_non, m):
            ysums.setdefault(sum(map(pack, ys)), ys)
        tried = set()
        for xs in xs_of(m):
            xsum = sum(map(pack, xs))
            if xsum in tried:
                continue
            tried.add(xsum)
            low = xsum - guard
            for ysum, ys in ysums.items():
                if (ysum - low) & guard == guard:
                    return xs, ys
    return None


def _event_sets(masks, universe_size: int) -> tuple[EventSet, ...]:
    return tuple(EventSet(x, universe_size) for x in masks)


# ---------------------------------------------------------------------------
# Mid-threshold properties


def _check_d(cell_index: int, gens) -> Verdict:
    # X and cell-X both believed iff two generators are disjoint
    for g1, g2 in itertools.combinations_with_replacement(gens, 2):
        if g1.bits & g2.bits == 0:
            return Verdict.fail(CellSetWitness(cell_index, (g1, g2)))
    return Verdict.ok()


def _check_sc(cell_index: int, cell: EventSet, gens) -> Verdict:
    # a violation with X < Y shrinks to X = Y minus one point, because
    # non-neighborhoods are downward closed
    if len(cell) > 12:
        raise CellTooLargeForBruteForce(
            f"cell of size {len(cell)} exceeds the subset budget")
    gens = tuple(g.bits for g in gens)
    for y in _submasks(cell.bits):
        if _believed(gens, y):
            continue
        for v in _members(y):
            x = y & ~(1 << v)
            if not _believed(gens, cell.bits & ~x):
                return Verdict.fail(CellSetWitness(
                    cell_index, _event_sets((x, y), cell.universe_size)))
    return Verdict.ok()


def _check_scott_cell(model: NeighborhoodModel, cell_index: int, m_max: int,
                      cell_budget: int) -> Verdict:
    """Bounded search for a counting-transfer violation in one cell.

    The search space is reduced without loss of generality: shrinking any
    X preserves the counting condition and enlarging any Y preserves it,
    so X_1 ranges over the minimal neighborhoods, the later X's over the
    minimal sets whose cell-complement is not a neighborhood, and the Y's
    over the maximal non-neighborhoods.
    """
    cell = model.frame.partition[cell_index]
    if len(cell) > cell_budget:
        raise CellTooLargeForBruteForce(
            f"cell of size {len(cell)} exceeds budget {cell_budget}")
    max_non, min_dual = cell_families(model, cell_index)
    if not max_non:
        return Verdict.ok()  # every subset believed; conclusion always holds
    gens = tuple(g.bits for g in model.generators[cell_index])
    found = _first_dominated(
        cell.bits,
        lambda m: ((x1,) + rest for x1 in gens
                   for rest in itertools.combinations_with_replacement(
                       min_dual, m - 1)),
        max_non, m_max)
    if found is None:
        return Verdict.ok()
    xs, ys = found
    n = cell.universe_size
    return Verdict.fail(ScottWitness(cell_index, _event_sets(xs, n),
                                     _event_sets(ys, n)))


def check_mid_threshold(model: NeighborhoodModel,
                        m_max: int = DEFAULT_M_MAX,
                        cell_budget: int = DEFAULT_CELL_BUDGET
                        ) -> PropertyReport:
    """Check consistency, strong commitment, and bounded counting transfer."""
    frame = model.frame
    d = sc = scott = Verdict.ok()
    for ci, cell in enumerate(frame.partition):
        gens = model.generators[ci]
        if d.holds:
            d = _check_d(ci, gens)
        if sc.holds:
            sc = _check_sc(ci, cell, gens)
        if scott.holds:
            scott = _check_scott_cell(model, ci, m_max, cell_budget)
    return PropertyReport((("d", d), ("sc", sc), ("scott", scott)))


def verify_scott_witness(model: NeighborhoodModel, cell_index: int,
                         xs, ys) -> bool:
    """Replay a stored counting-transfer violation without search.

    True when the lists genuinely witness the violation: the counting
    condition holds, X_1 is a neighborhood, every later X has a
    non-neighborhood cell-complement, and no Y is a neighborhood.
    """
    cell = model.frame.partition[cell_index]
    xs, ys = tuple(xs), tuple(ys)
    if len(xs) != len(ys) or not xs:
        return False
    gens = tuple(g.bits for g in model.generators[cell_index])
    if not all(x.issubset(cell) for x in xs + ys):
        return False
    if not _count_vectors_ok(cell, xs, ys):
        return False
    if not _believed(gens, xs[0].bits):
        return False
    if any(_believed(gens, cell.bits & ~x.bits) for x in xs[1:]):
        return False
    return not any(_believed(gens, y.bits) for y in ys)


# ---------------------------------------------------------------------------
# Conjectured high-threshold properties


def threshold_step(c: Threshold) -> tuple[Fraction, int]:
    """(s', s) with s' = c/(1-c) and s its ceiling."""
    s_prime = c.value / (1 - c.value)
    return s_prime, ceil(s_prime)


def _active_scheme(c: Threshold) -> tuple[str, int, bool]:
    """The disjoint-union scheme in force at c: its name, s, and whether
    it is the 0-indexed one (s = s')."""
    s_prime, s = threshold_step(c)
    exact = s_prime == s
    return (f"sc0^{s}" if exact else f"sc1^{s}"), s, exact


def _disjoint_duals(model: NeighborhoodModel, cell_index: int, s: int):
    """Each s pairwise disjoint minimal dual-believed sets, with their
    union, in combination order."""
    for xs in itertools.combinations(cell_families(model, cell_index)[1], s):
        union = 0
        for x in xs:
            if union & x:
                break
            union |= x
        else:
            yield xs, union


def _check_sc0(model: NeighborhoodModel, cell_index: int, s: int) -> Verdict:
    # pairwise disjoint X's whose cell-complements are unbelieved, plus a
    # proper superset Y of their union that is unbelieved; one-point
    # extensions of the union suffice for Y
    cell = model.frame.partition[cell_index]
    gens = tuple(g.bits for g in model.generators[cell_index])
    for xs, union in _disjoint_duals(model, cell_index, s):
        for v in _members(cell.bits & ~union):
            y = union | 1 << v
            if not _believed(gens, y):
                return Verdict.fail(CellSetWitness(
                    cell_index, _event_sets(xs + (y,), cell.universe_size)))
    return Verdict.ok()


def _check_sc1(model: NeighborhoodModel, cell_index: int, s: int) -> Verdict:
    cell = model.frame.partition[cell_index]
    gens = tuple(g.bits for g in model.generators[cell_index])
    for xs, union in _disjoint_duals(model, cell_index, s):
        if not _believed(gens, union):
            return Verdict.fail(CellSetWitness(
                cell_index, _event_sets(xs, cell.universe_size)))
    return Verdict.ok()


def _check_ws_cell(model: NeighborhoodModel, cell_index: int, m_max: int,
                   cell_budget: int) -> Verdict:
    # like the counting-transfer check but with every X a neighborhood
    cell = model.frame.partition[cell_index]
    if len(cell) > cell_budget:
        raise CellTooLargeForBruteForce(
            f"cell of size {len(cell)} exceeds budget {cell_budget}")
    max_non = cell_families(model, cell_index)[0]
    if not max_non:
        return Verdict.ok()
    gens = tuple(g.bits for g in model.generators[cell_index])
    found = _first_dominated(
        cell.bits,
        lambda m: itertools.combinations_with_replacement(gens, m),
        max_non, m_max)
    if found is None:
        return Verdict.ok()
    xs, ys = found
    n = cell.universe_size
    return Verdict.fail(ScottWitness(cell_index, _event_sets(xs, n),
                                     _event_sets(ys, n)))


def check_conjectured(model: NeighborhoodModel, c: Threshold,
                      m_max: int = DEFAULT_M_MAX,
                      cell_budget: int = DEFAULT_CELL_BUDGET
                      ) -> PropertyReport:
    """Check the candidate conditions for thresholds at or above 1/2.

    With s' = c/(1-c) and s = ceil(s'), the active disjoint-union scheme
    is the 0-indexed one when s = s' and the 1-indexed one otherwise.
    These are candidate necessary conditions for the existence of an
    agreeing measure at threshold c; passing them decides nothing.
    """
    if c.value < HALF:
        raise ValueError("conjectured properties apply only for c >= 1/2")
    name, s, exact = _active_scheme(c)
    frame = model.frame
    active = ws = Verdict.ok()
    for ci in range(len(frame.partition)):
        if active.holds:
            active = (_check_sc0(model, ci, s) if exact
                      else _check_sc1(model, ci, s))
        if ws.holds:
            ws = _check_ws_cell(model, ci, m_max, cell_budget)
    return PropertyReport(((name, active), ("ws", ws)))


# ---------------------------------------------------------------------------
# Witnesses of infeasibility


def _necessary_conditions(model: NeighborhoodModel, cell_index: int,
                          c: Threshold):
    """(name, verdict) of each cell condition that an agreeing measure at
    c must satisfy, computed lazily.

    At 1/2: consistency, strong commitment and bounded counting transfer
    (Scott's theorem makes each necessary).  Above 1/2: consistency, the
    active disjoint-union scheme and the weak counting condition (their
    proofs only add and compare the measure's bounds; two disjoint sets
    above c > 1/2 would weigh more than the cell).  Nothing below 1/2.
    """
    cell = model.frame.partition[cell_index]
    gens = model.generators[cell_index]
    if c.value >= HALF:
        yield "d", _check_d(cell_index, gens)
    if c.value == HALF:
        yield "sc", _check_sc(cell_index, cell, gens)
        yield "scott", _check_scott_cell(model, cell_index, DEFAULT_M_MAX,
                                         DEFAULT_CELL_BUDGET)
    elif c.value > HALF:
        name, s, exact = _active_scheme(c)
        yield name, (_check_sc0(model, cell_index, s) if exact
                     else _check_sc1(model, cell_index, s))
        yield "ws", _check_ws_cell(model, cell_index, DEFAULT_M_MAX,
                                   DEFAULT_CELL_BUDGET)


def infeasibility_witness(model: NeighborhoodModel, cell_index: int,
                          c: Threshold):
    """(condition, witness) proving that no measure agrees with the cell's
    system at c, found by the bounded property searches, or None.

    None means only that the searches found nothing: always below 1/2
    and on cells larger than DEFAULT_CELL_BUDGET, which they skip.
    """
    if len(model.frame.partition[cell_index]) > DEFAULT_CELL_BUDGET:
        return None
    return next(((name, verdict.witness) for name, verdict
                 in _necessary_conditions(model, cell_index, c)
                 if not verdict.holds), None)


def replay_witness(model: NeighborhoodModel, c: Threshold, condition: str,
                   witness) -> bool:
    """Re-check a witness from infeasibility_witness without search.

    True when the condition is one the searches run at c and the sets
    fail it inside the witness's cell.
    """
    ci = witness.cell_index
    if not 0 <= ci < len(model.frame.partition):
        return False
    cell = model.frame.partition[ci]
    gens = tuple(g.bits for g in model.generators[ci])
    if c.value == HALF:
        names = ("d", "sc", "scott")
    elif c.value > HALF:
        names = ("d", _active_scheme(c)[0], "ws")
    else:
        names = ()
    counting = condition in ("scott", "ws")
    if condition not in names or not isinstance(
            witness, ScottWitness if counting else CellSetWitness):
        return False
    if counting:
        xs, ys = tuple(witness.xs), tuple(witness.ys)
        if condition == "scott":
            return verify_scott_witness(model, ci, xs, ys)
        return (len(xs) == len(ys) > 0
                and all(x.issubset(cell) for x in xs + ys)
                and _count_vectors_ok(cell, xs, ys)
                and all(_believed(gens, x.bits) for x in xs)
                and not any(_believed(gens, y.bits) for y in ys))
    sets = tuple(x.bits for x in witness.sets)
    if any(x & ~cell.bits for x in sets):
        return False
    if condition == "d":
        return (len(sets) == 2 and sets[0] & sets[1] == 0
                and all(_believed(gens, x) for x in sets))
    if condition == "sc":
        if len(sets) != 2:
            return False
        x, y = sets
        return (x & ~y == 0 and x != y and not _believed(gens, y)
                and not _believed(gens, cell.bits & ~x))
    # the disjoint-union schemes: s disjoint X's with unbelieved
    # cell-complements, then an unbelieved proper superset of their
    # union (sc0) or their unbelieved union itself (sc1)
    _, s, exact = _active_scheme(c)
    xs = sets[:s]
    if len(sets) != (s + 1 if exact else s) \
            or any(_believed(gens, cell.bits & ~x) for x in xs):
        return False
    union = 0
    for x in xs:
        if union & x:
            return False
        union |= x
    if not exact:
        return not _believed(gens, union)
    y = sets[s]
    return union & ~y == 0 and union != y and not _believed(gens, y)


# ---------------------------------------------------------------------------
# Threshold derivation and agreement


def derive_neighborhoods(model: ProbabilityModel, c: Threshold
                         ) -> NeighborhoodModel:
    """The neighborhood system induced by the measure: a subset of a cell
    is believed exactly when its conditional probability exceeds c."""
    frame = model.frame
    gens = []
    for cell in frame.partition:
        believed = [x for x in cell.subsets()
                    if conditional_mass(model, x.bits, cell.bits) > c.value]
        gens.append(minimal_antichain(believed))
    return make_neighborhood_model(frame, gens)


def check_agreement(nbhd: NeighborhoodModel, prob: ProbabilityModel,
                    c: Threshold) -> Verdict:
    """X believed iff conditionally more probable than c, for every cell
    and every subset; witness is the first violating (world, X)."""
    if not nbhd.frame.same_frame(prob.frame):
        raise FrameMismatch("the two models must share one frame")
    frame = nbhd.frame
    for ci, cell in enumerate(frame.partition):
        world = frame.worlds[cell.indices()[0]]
        for x in cell.subsets():
            in_n = nbhd.cell_is_neighborhood(ci, x)
            above = conditional_mass(prob, x.bits, cell.bits) > c.value
            if in_n != above:
                return Verdict.fail((world, x))
    return Verdict.ok()
