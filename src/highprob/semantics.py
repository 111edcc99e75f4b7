"""Model checking for the probability and neighborhood semantics.

One evaluator serves both semantics and both languages.  Evaluation is
extension-based: each formula is mapped to the event where it is true,
computed bottom-up with bitsets, so checking a formula at every world
costs one pass.  ``K`` is containment of the cell in both semantics (for
probability models this is conditional probability one, by full
support).  ``B`` is the only step that depends on the model: conditional
probability strictly above the threshold, or membership in the cell's
neighborhood system.  ``t >= 0`` needs a probability model.  Also here: a
direct (non-expanded) evaluator for the counting notation, validity
testing, deterministic countermodel enumeration for the neighborhood
semantics, and seeded random search for the probability semantics.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .core import (
    EventSet,
    Frame,
    NeighborhoodModel,
    ProbabilityModel,
    conditional_mass,
    make_probability_model,
)
from .errors import BoundTooLarge
from .formula import (
    And,
    Atom,
    B,
    Const,
    Formula,
    GeqZero,
    K,
    Not,
    Scaled,
    TermL,
    Threshold,
    Top,
    atoms_of,
)
from .neighborhood import check_mid_threshold

MAX_ENUM_WORLDS = 5


# ---------------------------------------------------------------------------
# The evaluator

def _extension(model, formula: Formula, c: Fraction | None) -> EventSet:
    """The event where the formula is true.

    ``c`` is the belief threshold; a probability model needs it only to
    evaluate ``B``, a neighborhood model ignores it.  Comparisons and
    modalities depend on a world only through its cell, so they are
    decided once per cell.  Unknown atoms have empty extension.
    """
    frame = model.frame
    if isinstance(formula, Atom):
        return frame.atom_extension(formula.name)
    if isinstance(formula, Not):
        return _extension(model, formula.sub, c).complement()
    if isinstance(formula, And):
        return _extension(model, formula.left, c).intersection(
            _extension(model, formula.right, c))
    if isinstance(formula, Top):
        return EventSet.full(frame.size)
    bits = 0
    if isinstance(formula, K):
        sub = _extension(model, formula.sub, c)
        for cell in frame.partition:
            if cell.issubset(sub):
                bits |= cell.bits
    elif isinstance(formula, B):
        sub = _extension(model, formula.sub, c)
        for ci, cell in enumerate(frame.partition):
            if _believes(model, ci, cell, sub.intersection(cell), c):
                bits |= cell.bits
    elif isinstance(formula, GeqZero):
        if not isinstance(model, ProbabilityModel):
            raise TypeError("probability terms need a probability model")
        for cell in frame.partition:
            if _term_value(model, cell, formula.term, c) >= 0:
                bits |= cell.bits
    else:
        raise TypeError(f"not a formula: {formula!r}")
    return EventSet(bits, frame.size)


def _believes(model, ci: int, cell: EventSet, event: EventSet,
              c: Fraction | None) -> bool:
    """Whether cell ``ci`` believes the event, a subset of the cell."""
    if isinstance(model, ProbabilityModel):
        return conditional_mass(model, event.bits, cell.bits) > c
    return model.cell_is_neighborhood(ci, event)


def _term_value(model: ProbabilityModel, cell: EventSet, term: TermL,
                c: Fraction | None) -> Fraction:
    if isinstance(term, Const):
        return term.value
    if isinstance(term, Scaled):
        ext = _extension(model, term.sub, c)
        return term.coeff * conditional_mass(model, ext.bits, cell.bits)
    return (_term_value(model, cell, term.left, c)
            + _term_value(model, cell, term.right, c))


def _threshold_for(model, c: Threshold | None) -> Fraction | None:
    """The evaluator's threshold: required for a probability model,
    ignored for a neighborhood model."""
    if not isinstance(model, ProbabilityModel):
        return None
    if c is None:
        raise ValueError("probability models need a threshold")
    return c.value


# ---------------------------------------------------------------------------
# Probability semantics

def extension_l(model: ProbabilityModel, formula: Formula) -> EventSet:
    """The event where the probability-language formula is true."""
    return _extension(model, formula, None)


def eval_l(model: ProbabilityModel, world: str, formula: Formula) -> bool:
    return model.frame.windex(world) in extension_l(model, formula)


def extension_kb_prob(model: ProbabilityModel, formula: Formula,
                      c: Threshold) -> EventSet:
    """Direct threshold evaluation: K is conditional probability one, B is
    conditional probability strictly above c."""
    return _extension(model, formula, c.value)


def eval_kb_prob(model: ProbabilityModel, world: str, formula: Formula,
                 c: Threshold) -> bool:
    return model.frame.windex(world) in extension_kb_prob(model, formula, c)


# ---------------------------------------------------------------------------
# Neighborhood semantics

def extension_kb_nbhd(model: NeighborhoodModel, formula: Formula
                      ) -> EventSet:
    """K via cell containment; B via membership of the cell-restricted
    extension in the (upward-closed) neighborhood system."""
    return _extension(model, formula, None)


def eval_kb_nbhd(model: NeighborhoodModel, world: str, formula: Formula
                 ) -> bool:
    return model.frame.windex(world) in extension_kb_nbhd(model, formula)


# ---------------------------------------------------------------------------
# Direct counting evaluation

def eval_segerberg_direct(model, world: str, phis, psis, mode: str = "I",
                          c: Threshold | None = None) -> bool:
    """Every world of the class satisfies at least as many psis as phis
    (mode I), or both directions (mode E), without expanding the notation.
    """
    phis, psis = list(phis), list(psis)
    if len(phis) != len(psis) or not phis:
        raise ValueError("need equally many phis and psis, at least one each")
    if mode == "E":
        return (eval_segerberg_direct(model, world, phis, psis, "I", c)
                and eval_segerberg_direct(model, world, psis, phis, "I", c))
    if mode != "I":
        raise ValueError(f"unknown mode {mode!r}")
    value = _threshold_for(model, c)
    exts_p = [_extension(model, f, value) for f in phis]
    exts_q = [_extension(model, f, value) for f in psis]
    cell = model.frame.class_of(world)
    for v in cell.indices():
        if (sum(1 for e in exts_p if v in e)
                > sum(1 for e in exts_q if v in e)):
            return False
    return True


# ---------------------------------------------------------------------------
# Validity

def valid_in_model(model, formula: Formula,
                   c: Threshold | None = None) -> bool:
    """True at every world of the model."""
    ext = _extension(model, formula, _threshold_for(model, c))
    return ext.complement().is_empty()


# ---------------------------------------------------------------------------
# Countermodel search

@dataclass(frozen=True)
class CountermodelResult:
    """Found carries a falsifying pointed model; otherwise the search
    bound that was exhausted."""

    model: object = None
    world: str | None = None
    bound: str | None = None

    @property
    def found(self) -> bool:
        return self.model is not None

    @staticmethod
    def hit(model, world: str) -> "CountermodelResult":
        return CountermodelResult(model=model, world=world)

    @staticmethod
    def none_up_to(bound: str) -> "CountermodelResult":
        return CountermodelResult(bound=bound)


def set_partitions(n: int):
    """Partitions of range(n) as tuples of EventSets, in restricted-growth
    order; deterministic."""
    def rec(i, blocks):
        if i == n:
            yield tuple(EventSet.of(b, n) for b in blocks)
            return
        for bi in range(len(blocks)):
            blocks[bi].append(i)
            yield from rec(i + 1, blocks)
            blocks[bi].pop()
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()
    yield from rec(1, [[0]])


@lru_cache(maxsize=None)
def antichains_over(k: int) -> tuple[tuple[int, ...], ...]:
    """All nonempty antichains of nonempty subsets of a k-element set,
    each as a sorted tuple of bitmasks; canonical order."""
    masks = list(range(1, 1 << k))
    out = []

    def rec(start, chosen):
        if chosen:
            out.append(tuple(chosen))
        for i in range(start, len(masks)):
            m = masks[i]
            if all(c & m != c and c & m != m for c in chosen):
                chosen.append(m)
                rec(i + 1, chosen)
                chosen.pop()

    rec(0, [])
    out.sort()
    return tuple(out)


def _cell_antichains(cell: EventSet):
    """Antichain choices for one cell, mapped onto its world positions."""
    idx = cell.indices()
    n = cell.universe_size
    for chain in antichains_over(len(idx)):
        yield tuple(
            EventSet(sum(1 << idx[j] for j in range(len(idx))
                         if mask >> j & 1), n)
            for mask in chain)


def enumerate_neighborhood_models(max_worlds: int, atoms,
                                  min_worlds: int = 1):
    """All pointed-model skeletons: frames with every valuation over the
    given atoms and every per-cell generator antichain, in canonical order
    (world count, partition, generator choice, valuation)."""
    atoms = tuple(atoms)
    if max_worlds > MAX_ENUM_WORLDS:
        raise BoundTooLarge(
            f"enumeration supports at most {MAX_ENUM_WORLDS} worlds")
    for n in range(min_worlds, max_worlds + 1):
        worlds = tuple(f"w{i + 1}" for i in range(n))
        atom_subsets = [tuple(a for j, a in enumerate(atoms) if s >> j & 1)
                        for s in range(1 << len(atoms))]
        for partition in set_partitions(n):
            for gen_choice in itertools.product(
                    *(_cell_antichains(cell) for cell in partition)):
                for val_choice in itertools.product(atom_subsets, repeat=n):
                    valuation = {w: frozenset(v)
                                 for w, v in zip(worlds, val_choice)}
                    frame = Frame(worlds, partition, valuation)
                    yield NeighborhoodModel(frame, gen_choice)


def _at_least_one(name: str, bound: int) -> None:
    """Refuse a search bound below 1: it would search nothing and report
    that no countermodel exists."""
    if bound < 1:
        raise ValueError(f"{name} must be at least 1, not {bound}")


def find_nbhd_countermodel(formula: Formula, max_worlds: int,
                           require_mid_threshold: bool = False
                           ) -> CountermodelResult:
    """First falsifying pointed neighborhood model in enumeration order."""
    _at_least_one("max_worlds", max_worlds)
    if max_worlds > MAX_ENUM_WORLDS:
        raise BoundTooLarge(
            f"enumeration supports at most {MAX_ENUM_WORLDS} worlds")
    atoms = sorted(atoms_of(formula))
    for model in enumerate_neighborhood_models(max_worlds, atoms):
        if require_mid_threshold and not check_mid_threshold(model).all_hold:
            continue
        false_at = extension_kb_nbhd(model, formula).complement()
        if not false_at.is_empty():
            world = model.frame.worlds[false_at.indices()[0]]
            return CountermodelResult.hit(model, world)
    kind = "mid-threshold models" if require_mid_threshold else "models"
    return CountermodelResult.none_up_to(
        f"all {kind} with at most {max_worlds} worlds")


def sample_probability_model(rng: random.Random, max_worlds: int, atoms,
                             max_denominator: int = 64) -> ProbabilityModel:
    """One random model: random partition, valuation, and full-support
    weights with bounded denominators."""
    n = rng.randint(1, max_worlds)
    worlds = tuple(f"w{i + 1}" for i in range(n))
    next_block = 0
    assign = []
    for i in range(n):
        choice = rng.randint(0, next_block)
        assign.append(choice)
        if choice == next_block:
            next_block += 1
    cells: dict[int, list[int]] = {}
    for i, b in enumerate(assign):
        cells.setdefault(b, []).append(i)
    partition = tuple(EventSet.of(ix, n) for _, ix in sorted(cells.items()))
    valuation = {w: frozenset(a for a in atoms if rng.getrandbits(1))
                 for w in worlds}
    frame = Frame(worlds, partition, valuation)
    # a random composition of d into n positive parts keeps every weight's
    # denominator a divisor of d
    d = rng.randint(max(n, 2), max(max_denominator, n))
    cuts = sorted(rng.sample(range(1, d), n - 1))
    parts = [b - a for a, b in zip((0, *cuts), (*cuts, d))]
    weights = {w: Fraction(part, d) for w, part in zip(worlds, parts)}
    return make_probability_model(frame, weights)


def random_formula(rng: random.Random, atoms, depth: int) -> Formula:
    """Random modal formula over the given atoms, connective-balanced."""
    atoms = tuple(atoms)
    if depth == 0 or (atoms and rng.randrange(5) == 0):
        if atoms and rng.randrange(8) != 0:
            return Atom(rng.choice(atoms))
        return Top()
    kind = rng.choice(("not", "and", "k", "b"))
    if kind == "not":
        return Not(random_formula(rng, atoms, depth - 1))
    if kind == "and":
        return And(random_formula(rng, atoms, depth - 1),
                   random_formula(rng, atoms, depth - 1))
    if kind == "k":
        return K(random_formula(rng, atoms, depth - 1))
    return B(random_formula(rng, atoms, depth - 1))


def sample_prob_countermodel(formula: Formula, c: Threshold, trials: int,
                             max_worlds: int, seed: int
                             ) -> CountermodelResult:
    """Seeded random falsification search for the probability semantics."""
    _at_least_one("trials", trials)
    _at_least_one("max_worlds", max_worlds)
    rng = random.Random(seed)
    atoms = sorted(atoms_of(formula))
    for _ in range(trials):
        model = sample_probability_model(rng, max_worlds, atoms)
        false_at = extension_kb_prob(model, formula, c).complement()
        if not false_at.is_empty():
            world = model.frame.worlds[false_at.indices()[0]]
            return CountermodelResult.hit(model, world)
    return CountermodelResult.none_up_to(
        f"{trials} random models with at most {max_worlds} worlds")
