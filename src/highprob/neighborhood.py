"""Neighborhood-system property checking and threshold derivation.

Checks the five structural conditions every epistemic neighborhood system
must satisfy, the three extra conditions characterizing systems that admit
an agreeing measure at threshold 1/2, and the candidate conditions for
higher thresholds.  Also derives the neighborhood system induced by a
probability model at a given threshold and tests agreement between the two
model kinds.
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


def _in_n(gens, x: EventSet) -> bool:
    return any(g.issubset(x) for g in gens)


def maximal_nonneighborhoods(cell: EventSet, gens) -> tuple[EventSet, ...]:
    """Maximal subsets of the cell that are not neighborhoods.

    These are the complements (within the cell) of the minimal transversals
    of the generator family: X misses every generator exactly when its
    cell-complement hits every generator.  Computed by brute force over
    cell subsets; budgeted to small cells.
    """
    if len(cell) > 12:
        raise CellTooLargeForBruteForce(
            f"cell of size {len(cell)} exceeds the transversal budget")
    non = [x for x in cell.subsets() if not _in_n(gens, x)]
    out = []
    for x in non:
        if not any(x.ispropersubset(y) for y in non):
            out.append(x)
    return tuple(sorted(out, key=lambda e: (len(e), e.bits)))


def minimal_dual_believed(cell: EventSet, gens) -> tuple[EventSet, ...]:
    """Minimal X with cell − X not a neighborhood.

    This family is upward closed (non-neighborhoods are downward closed),
    so its minimal elements are the cell-complements of the maximal
    non-neighborhoods.
    """
    return tuple(sorted(
        (cell.difference(x) for x in maximal_nonneighborhoods(cell, gens)),
        key=lambda e: (len(e), e.bits)))


def _count_vectors_ok(cell: EventSet, xs, ys) -> bool:
    """Every world of the cell lies in at least as many Y's as X's."""
    for v in cell.indices():
        if sum(1 for x in xs if v in x) > sum(1 for y in ys if v in y):
            return False
    return True


# ---------------------------------------------------------------------------
# Mid-threshold properties


def _check_d(cell_index: int, gens) -> Verdict:
    # X and cell-X both believed iff two generators are disjoint
    for g1, g2 in itertools.combinations_with_replacement(gens, 2):
        if g1.isdisjoint(g2):
            return Verdict.fail(CellSetWitness(cell_index, (g1, g2)))
    return Verdict.ok()


def _check_sc(cell_index: int, cell: EventSet, gens) -> Verdict:
    # a violation with X < Y shrinks to X = Y minus one point, because
    # non-neighborhoods are downward closed
    if len(cell) > 12:
        raise CellTooLargeForBruteForce(
            f"cell of size {len(cell)} exceeds the subset budget")
    for y in cell.subsets():
        if _in_n(gens, y):
            continue
        for v in y.indices():
            x = EventSet(y.bits & ~(1 << v), y.universe_size)
            if not _in_n(gens, cell.difference(x)):
                return Verdict.fail(CellSetWitness(cell_index, (x, y)))
    return Verdict.ok()


def _check_scott_cell(cell_index: int, cell: EventSet, gens, m_max: int,
                      cell_budget: int) -> Verdict:
    """Bounded search for a counting-transfer violation in one cell.

    The search space is reduced without loss of generality: shrinking any
    X preserves the counting condition and enlarging any Y preserves it,
    so X_1 ranges over the minimal neighborhoods, the later X's over the
    minimal sets whose cell-complement is not a neighborhood, and the Y's
    over the maximal non-neighborhoods.
    """
    if len(cell) > cell_budget:
        raise CellTooLargeForBruteForce(
            f"cell of size {len(cell)} exceeds budget {cell_budget}")
    max_non = maximal_nonneighborhoods(cell, gens)
    if not max_non:
        return Verdict.ok()  # every subset believed; conclusion always holds
    min_dual = minimal_dual_believed(cell, gens)
    for m in range(1, m_max + 1):
        for x1 in gens:
            for rest in itertools.combinations_with_replacement(
                    min_dual, m - 1):
                xs = (x1,) + rest
                for ys in itertools.combinations_with_replacement(
                        max_non, m):
                    if _count_vectors_ok(cell, xs, ys):
                        return Verdict.fail(ScottWitness(cell_index, xs, ys))
    return Verdict.ok()


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
            scott = _check_scott_cell(ci, cell, gens, m_max, cell_budget)
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
    gens = model.generators[cell_index]
    if not all(x.issubset(cell) for x in xs + ys):
        return False
    if not _count_vectors_ok(cell, xs, ys):
        return False
    if not _in_n(gens, xs[0]):
        return False
    if any(_in_n(gens, cell.difference(x)) for x in xs[1:]):
        return False
    return not any(_in_n(gens, y) for y in ys)


# ---------------------------------------------------------------------------
# Conjectured high-threshold properties


def threshold_step(c: Threshold) -> tuple[Fraction, int]:
    """(s', s) with s' = c/(1-c) and s its ceiling."""
    s_prime = c.value / (1 - c.value)
    return s_prime, ceil(s_prime)


def _check_sc0(cell_index: int, cell: EventSet, gens, s: int) -> Verdict:
    # pairwise disjoint X's whose cell-complements are unbelieved, plus a
    # proper superset Y of their union that is unbelieved; one-point
    # extensions of the union suffice for Y
    min_dual = minimal_dual_believed(cell, gens)
    for xs in itertools.combinations(min_dual, s):
        if any(not a.isdisjoint(b)
               for a, b in itertools.combinations(xs, 2)):
            continue
        union = EventSet.empty(cell.universe_size)
        for x in xs:
            union = union.union(x)
        for v in cell.difference(union).indices():
            y = EventSet(union.bits | (1 << v), union.universe_size)
            if not _in_n(gens, y):
                return Verdict.fail(CellSetWitness(cell_index, xs + (y,)))
    return Verdict.ok()


def _check_sc1(cell_index: int, cell: EventSet, gens, s: int) -> Verdict:
    min_dual = minimal_dual_believed(cell, gens)
    for xs in itertools.combinations(min_dual, s):
        if any(not a.isdisjoint(b)
               for a, b in itertools.combinations(xs, 2)):
            continue
        union = EventSet.empty(cell.universe_size)
        for x in xs:
            union = union.union(x)
        if not _in_n(gens, union):
            return Verdict.fail(CellSetWitness(cell_index, xs))
    return Verdict.ok()


def _check_ws_cell(cell_index: int, cell: EventSet, gens, m_max: int,
                   cell_budget: int) -> Verdict:
    # like the counting-transfer check but with every X a neighborhood
    if len(cell) > cell_budget:
        raise CellTooLargeForBruteForce(
            f"cell of size {len(cell)} exceeds budget {cell_budget}")
    max_non = maximal_nonneighborhoods(cell, gens)
    if not max_non:
        return Verdict.ok()
    for m in range(1, m_max + 1):
        for xs in itertools.combinations_with_replacement(gens, m):
            for ys in itertools.combinations_with_replacement(max_non, m):
                if _count_vectors_ok(cell, xs, ys):
                    return Verdict.fail(ScottWitness(cell_index, xs, ys))
    return Verdict.ok()


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
    if c.value < Fraction(1, 2):
        raise ValueError("conjectured properties apply only for c >= 1/2")
    s_prime, s = threshold_step(c)
    exact = s_prime == s
    name = f"sc0^{s}" if exact else f"sc1^{s}"
    frame = model.frame
    active = ws = Verdict.ok()
    for ci, cell in enumerate(frame.partition):
        gens = model.generators[ci]
        if active.holds:
            active = (_check_sc0(ci, cell, gens, s) if exact
                      else _check_sc1(ci, cell, gens, s))
        if ws.holds:
            ws = _check_ws_cell(ci, cell, gens, m_max, cell_budget)
    return PropertyReport(((name, active), ("ws", ws)))


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
