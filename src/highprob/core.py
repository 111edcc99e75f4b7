"""Worlds, events, S5 frames, and the two model structures.

All probabilities are exact rationals (``fractions.Fraction``); no floating
point is used anywhere, and ``exact`` refuses a float weight or threshold.
Events are bitsets over world indices.  The S5 accessibility relation is
stored directly as a partition of the world set into equivalence classes.
All types are immutable after construction.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import (
    BadNeighborhood,
    BadPartition,
    WeightsNotNormalized,
    ZeroOrNegativeWeight,
)

ZERO = Fraction(0)


def exact(value) -> Fraction:
    """value as a Fraction.  A float is refused because it carries a
    binary fraction, and a bool because it would pass for an int."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (float, bool)):
        raise TypeError(f"{value!r} is not exact: give an int, a Fraction "
                        f"or a \"p/q\" string")
    return Fraction(value)


def long_digit_run(text: str) -> int:
    """The most digits int() reads (Python 3.10.7 and later) if a run of
    ASCII digits in text is longer, else 0: int() would refuse the run
    naming an interpreter setting, not the input."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and len(text) > limit and re.search(
            "[0-9]{%d}" % (limit + 1), text):
        return limit
    return 0


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


@dataclass(frozen=True, order=True)
class EventSet:
    """A set of worlds, stored as a bitmask over world indices."""

    bits: int
    universe_size: int

    def __post_init__(self):
        if self.bits < 0 or self.bits >= (1 << self.universe_size):
            raise ValueError("event bits outside universe")

    @staticmethod
    def empty(universe_size: int) -> "EventSet":
        return EventSet(0, universe_size)

    @staticmethod
    def full(universe_size: int) -> "EventSet":
        return EventSet((1 << universe_size) - 1, universe_size)

    @staticmethod
    def of(indices: Iterable[int], universe_size: int) -> "EventSet":
        bits = 0
        for i in indices:
            if not 0 <= i < universe_size:
                raise ValueError(f"world index {i} outside universe")
            bits |= 1 << i
        return EventSet(bits, universe_size)

    def _check(self, other: "EventSet") -> None:
        if self.universe_size != other.universe_size:
            raise ValueError("events from different universes")

    def union(self, other: "EventSet") -> "EventSet":
        self._check(other)
        return EventSet(self.bits | other.bits, self.universe_size)

    def intersection(self, other: "EventSet") -> "EventSet":
        self._check(other)
        return EventSet(self.bits & other.bits, self.universe_size)

    def difference(self, other: "EventSet") -> "EventSet":
        self._check(other)
        return EventSet(self.bits & ~other.bits, self.universe_size)

    def complement(self) -> "EventSet":
        """Complement within the whole universe."""
        return EventSet(~self.bits & ((1 << self.universe_size) - 1),
                        self.universe_size)

    def issubset(self, other: "EventSet") -> bool:
        self._check(other)
        return self.bits & ~other.bits == 0

    def is_empty(self) -> bool:
        return self.bits == 0

    def cardinality(self) -> int:
        return self.bits.bit_count()

    def __len__(self) -> int:
        return self.cardinality()

    def __contains__(self, index: int) -> bool:
        return 0 <= index < self.universe_size and bool(self.bits >> index & 1)

    def indices(self) -> tuple[int, ...]:
        return tuple(_members(self.bits))

    def subsets(self) -> Iterable["EventSet"]:
        """All subsets, in increasing bitmask order."""
        for b in _submasks(self.bits):
            yield EventSet(b, self.universe_size)


@dataclass(frozen=True)
class Frame:
    """Finite single-agent S5 frame plus valuation.

    The equivalence relation is stored as its partition into classes; world
    order is declaration order and is used for all deterministic printouts.
    """

    worlds: tuple[str, ...]
    partition: tuple[EventSet, ...]
    valuation: Mapping[str, frozenset[str]]
    _index: dict = field(init=False, repr=False, compare=False)
    _cell_of: tuple = field(init=False, repr=False, compare=False)

    def __init__(self, worlds, partition, valuation=None):
        worlds = tuple(worlds)
        if len(set(worlds)) != len(worlds) or not worlds:
            raise BadPartition("worlds must be nonempty and distinct")
        n = len(worlds)
        partition = tuple(
            cell if isinstance(cell, EventSet)
            else EventSet.of((worlds.index(w) for w in cell), n)
            for cell in partition
        )
        covered = 0
        for cell in partition:
            if cell.universe_size != n:
                raise BadPartition("cell universe does not match world count")
            if cell.is_empty():
                raise BadPartition("empty partition cell")
            if covered & cell.bits:
                raise BadPartition("overlapping partition cells")
            covered |= cell.bits
        if covered != (1 << n) - 1:
            raise BadPartition("partition does not cover all worlds")
        valuation = {w: frozenset(valuation.get(w, ())) for w in worlds} \
            if valuation else {w: frozenset() for w in worlds}
        cell_of = [None] * n
        for ci, cell in enumerate(partition):
            for i in cell.indices():
                cell_of[i] = ci
        object.__setattr__(self, "worlds", worlds)
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "valuation", valuation)
        object.__setattr__(self, "_index", {w: i for i, w in enumerate(worlds)})
        object.__setattr__(self, "_cell_of", tuple(cell_of))

    @property
    def size(self) -> int:
        return len(self.worlds)

    def windex(self, world: str) -> int:
        if world not in self._index:
            raise KeyError(f"unknown world {world!r}")
        return self._index[world]

    def cell_index(self, world: str) -> int:
        return self._cell_of[self.windex(world)]

    def class_of(self, world: str) -> EventSet:
        """The equivalence class [w]."""
        return self.partition[self.cell_index(world)]

    def event(self, worlds: Iterable[str]) -> EventSet:
        return EventSet.of((self.windex(w) for w in worlds), self.size)

    def atom_extension(self, atom: str) -> EventSet:
        bits = 0
        for i, w in enumerate(self.worlds):
            if atom in self.valuation[w]:
                bits |= 1 << i
        return EventSet(bits, self.size)

    def names(self, event: EventSet) -> tuple[str, ...]:
        return tuple(self.worlds[i] for i in event.indices())


@dataclass(frozen=True)
class ProbabilityModel:
    """S5 frame plus a full-support rational measure on the worlds."""

    frame: Frame
    weights: tuple[Fraction, ...]

    def weight_map(self) -> dict[str, Fraction]:
        return {w: self.weights[i] for i, w in enumerate(self.frame.worlds)}


def make_probability_model(frame: Frame, weights: Mapping[str, object]
                           ) -> ProbabilityModel:
    """Validate full support and normalization; canonicalize the rationals."""
    if set(weights) != set(frame.worlds):
        raise BadPartition("weights must be keyed exactly by the frame worlds")
    vec = tuple(exact(weights[w]) for w in frame.worlds)
    for w, q in zip(frame.worlds, vec):
        if q <= 0:
            raise ZeroOrNegativeWeight(f"weight of {w!r} is {q}")
    total = sum(vec, ZERO)
    if total != 1:
        raise WeightsNotNormalized(f"weights sum to {total}, not 1")
    return ProbabilityModel(frame, vec)


def conditional_mass(model: ProbabilityModel, bits: int, cell: int
                     ) -> Fraction:
    """P(X | cell) = P(X ∩ cell) / P(cell) for the world bitmasks X and
    cell; total on a nonempty cell by full support."""
    inside = whole = ZERO
    for i, q in enumerate(model.weights):
        if cell >> i & 1:
            whole += q
            if bits >> i & 1:
                inside += q
    return inside / whole


def conditional_probability(model: ProbabilityModel, world: str,
                            event: EventSet) -> Fraction:
    """P_w(X) = P(X ∩ [w]) / P([w]); total by full support."""
    cell = model.frame.class_of(world)
    return conditional_mass(model, event.intersection(cell).bits, cell.bits)


@dataclass(frozen=True)
class NeighborhoodModel:
    """S5 frame plus per-class neighborhood systems.

    ``generators[ci]`` lists the minimal neighborhoods of partition cell
    ``ci``; N(w) is their upward closure within [w].  The per-cell storage
    structurally enforces that all worlds of a cell share one neighborhood
    system and that neighborhoods are monotone.  Use
    :func:`make_neighborhood_model` for a validating constructor; the raw
    dataclass accepts arbitrary generator lists so that property checkers
    can be exercised on deliberately broken systems.
    """

    frame: Frame
    generators: tuple[tuple[EventSet, ...], ...]
    # the model's one memo: per-cell bitmask families, filled on first
    # use by neighborhood.cell_families
    _families: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    def cell_is_neighborhood(self, cell_index: int, event: EventSet) -> bool:
        if not event.issubset(self.frame.partition[cell_index]):
            return False
        return any(g.issubset(event) for g in self.generators[cell_index])


def minimal_antichain(sets: Iterable[EventSet]) -> tuple[EventSet, ...]:
    """Drop supersets and duplicates; sort canonically by (size, bitmask)."""
    pool = sorted(set(sets), key=lambda e: (e.cardinality(), e.bits))
    out: list[EventSet] = []
    for cand in pool:
        if not any(kept.issubset(cand) for kept in out):
            out.append(cand)
    return tuple(out)


def make_neighborhood_model(frame: Frame,
                            generators: Iterable[Iterable[EventSet]]
                            ) -> NeighborhoodModel:
    """Validate generators and canonicalize each cell to a minimal antichain."""
    gens = tuple(tuple(cell_gens) for cell_gens in generators)
    if len(gens) != len(frame.partition):
        raise BadNeighborhood("one generator list required per partition cell")
    canon = []
    for ci, (cell, cell_gens) in enumerate(zip(frame.partition, gens)):
        if not cell_gens:
            raise BadNeighborhood(f"cell {ci} has no generators")
        for g in cell_gens:
            if g.is_empty():
                raise BadNeighborhood(f"empty generator in cell {ci}")
            if not g.issubset(cell):
                raise BadNeighborhood(
                    f"generator {g.indices()} not inside cell {ci}")
        canon.append(minimal_antichain(cell_gens))
    return NeighborhoodModel(frame, tuple(canon))
