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
from functools import reduce
from math import ceil, floor

from .core import (
    EventSet,
    NeighborhoodModel,
    ProbabilityModel,
    conditional_mass,
    make_neighborhood_model,
    minimal_antichain,
)
from .errors import CellTooLargeForBruteForce, FrameMismatch
from .formula import Threshold

DEFAULT_M_MAX = 3
DEFAULT_CELL_BUDGET = 7
# the longest load list: the search grows with the number of lists,
# C(g + k - 1, k) over g generators, before pruning; on a 7-world cell
# with 35 generators, searching to k = 8 costs about ten times as much
# as searching to k = 7
LOAD_K_MAX = 7
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
    hold by construction: the system of a cell is shared by its worlds,
    and every superset of a set containing a generator contains that
    generator too.  The raw model type does not validate, so the first
    three can genuinely fail here.
    """
    frame = model.frame
    kbc = kbf = n = Verdict.ok()
    for ci, cell in enumerate(frame.partition):
        gens = model.generators[ci] if ci < len(model.generators) else ()
        for g in gens:
            if not g.issubset(cell) and kbc.holds:
                kbc = Verdict.fail(CellSetWitness(ci, (g,)))
            if g.is_empty() and kbf.holds:
                kbf = Verdict.fail(CellSetWitness(ci, (g,)))
        if n.holds and not any(g.issubset(cell) for g in gens):
            n = Verdict.fail(CellSetWitness(ci, (cell,)))
    return PropertyReport((
        ("kbc", kbc), ("kbf", kbf), ("n", n), ("a", Verdict.ok()),
        ("kbm", Verdict.ok()),
    ))


# ---------------------------------------------------------------------------
# Helpers over a single cell's system


def _masks(model: NeighborhoodModel, cell_index: int
           ) -> tuple[int, tuple[int, ...]]:
    """The cell's bitmask and its generators' bitmasks."""
    return (model.frame.partition[cell_index].bits,
            tuple(g.bits for g in model.generators[cell_index]))


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


def _disjoint_union(masks) -> int | None:
    """The union of pairwise disjoint masks; None if two of them meet."""
    union = 0
    for x in masks:
        if union & x:
            return None
        union |= x
    return union


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


def _packing(cell: int, width: int):
    """A packer putting each set into one int, with a field of width bits
    per world of the cell holding 1 where the world is in the set, so a
    list's sum holds its count vector; and the guard bits, the top bit
    of every field."""
    shift = {v: j * width for j, v in enumerate(_members(cell))}
    packed: dict[int, int] = {}

    def pack(x: int) -> int:
        p = packed.get(x)
        if p is None:
            p = packed[x] = sum(1 << shift[v] for v in _members(x & cell))
        return p

    return pack, sum(1 << (s + width - 1) for s in shift.values())


def _first_dominated(cell: int, xs_of, ys_of, m_max: int):
    """The first (xs, ys), for m = 1 .. m_max, with xs running through
    xs_of(m) and ys through ys_of(m), in which every world of the cell
    lies in at least as many Y's as X's; None if there is none.

    The sets are packed with fields of m_max.bit_length() + 1 bits.  No
    field of a sum of at most m_max sets reaches its guard bit: (ysum +
    G) - xsum, with G the guard bits, borrows from a field's guard
    exactly when that field's X-count exceeds its Y-count.  Equal sums
    give equal answers, so each Y-sum is kept once, at its first list,
    and each X-sum is tested once; the first hit is therefore the first
    in the nested order.
    """
    pack, guard = _packing(cell, m_max.bit_length() + 1)
    for m in range(1, m_max + 1):
        ysums: dict[int, tuple[int, ...]] = {}
        for ys in ys_of(m):
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


def _first_load(cell: int, gens: tuple[int, ...], c: Fraction, k_max: int):
    """The first list of k generators, for k = 1 .. k_max, repeats
    allowed, in combinations-with-replacement order, that puts no world
    of the cell in more than floor(k*c) of them; None if there is none.

    A world's count only grows along a list, so the depth-first walk
    drops a prefix as soon as one count passes floor(k*c), and the first
    list it completes is the first in order.  With fields of w bits and
    r = floor(k*c) < k, adding 2**(w-1) - 1 - r to each field of a
    prefix's packed sum sets the field's guard bit exactly when its
    count passes r.
    """
    width = k_max.bit_length() + 1
    pack, guard = _packing(cell, width)
    packed = [pack(g) for g in gens]
    ones = guard >> (width - 1)

    def walk(k: int, bias: int, start: int, total: int, chosen: tuple):
        if len(chosen) == k:
            return chosen
        for i in range(start, len(gens)):
            t = total + packed[i]
            if not (t + bias) & guard:
                found = walk(k, bias, i, t, chosen + (gens[i],))
                if found:
                    return found
        return None

    for k in range(1, k_max + 1):
        bias = ((1 << (width - 1)) - 1 - floor(k * c)) * ones
        found = walk(k, bias, 0, 0, ())
        if found:
            return found
    return None


def _event_sets(masks, universe_size: int) -> tuple[EventSet, ...]:
    return tuple(EventSet(x, universe_size) for x in masks)


# ---------------------------------------------------------------------------
# The cell conditions, each searched in one place; each witness is read
# as one counting certificate (alpha, beta, gamma, r) for _certifies
#
#   d       consistency: X and cell - X both believed; read as load
#   sc      strong commitment: X < Y with cell - X and Y both unbelieved;
#           read as sc0^1
#   scott   counting transfer: X's with X_1 believed and every later
#           cell - X unbelieved, Y's unbelieved, and every world in at
#           least as many Y's as X's; (X_1, the Y's and each later
#           cell - X, none, 1 - m)
#   ws      weak counting: as scott with every X believed; (the X's, the
#           Y's, none, 0)
#   sc0^s   s pairwise disjoint X's with cell - X unbelieved, and an
#           unbelieved proper superset Y of their union; (none, each
#           cell - X and Y, the lowest world of Y - union, -s)
#   sc1^s   as sc0^s with their union itself the unbelieved Y; no gamma
#   load    k believed sets, repeats allowed, no world of the cell in more
#           than floor(k*c) of them, k up to the denominator of c and
#           LOAD_K_MAX; (the k sets, none, none, floor(k*c))
#
# A violation of d or sc is a CellSetWitness listing X and Y, of sc0^s
# the X's then Y, of sc1^s the X's, and of load the k sets; of scott or
# ws a ScottWitness.

_COUNTING = ("scott", "ws")


def _necessary(c: Threshold) -> tuple[str, ...]:
    """The cell conditions the searches check at threshold c: each one
    an agreeing measure at c must satisfy.

    At 1/2, consistency, strong commitment and bounded counting transfer
    (Scott's theorem makes each necessary).  Above 1/2, consistency, the
    active disjoint-union scheme, the weak counting condition and the
    load bound (their proofs only add and compare the measure's bounds;
    two disjoint sets above c > 1/2 would weigh more than the cell).
    The load bound holds at every c: k believed sets weigh more than
    k*c >= floor(k*c) in total, yet that total is the sum over the
    cell's worlds of each world's mass times the number of sets holding
    it, at most floor(k*c).  It comes last, so it only decides cells
    that the others leave open.  Nothing below 1/2.
    """
    p, q = c.value.numerator, c.value.denominator
    if 2 * p == q:
        return ("d", "sc", "scott")
    if 2 * p > q:
        return ("d", _active_scheme(c), "ws", "load")
    return ()


def _search(name: str, model: NeighborhoodModel, cell_index: int,
            cell: int, gens: tuple[int, ...], c: Threshold, m_max: int,
            cell_budget: int):
    """The first witness that the cell fails condition name at c, or None.

    The counting searches lose nothing by their reduced spaces:
    shrinking any X preserves the counting condition and enlarging any Y
    preserves it, so X_1 ranges over the generators, the later X's over
    the minimal sets whose cell-complement is unbelieved (generators
    again for ws), and the Y's over the maximal non-neighborhoods.  The
    load search likewise takes its k sets among the generators.  Its k
    runs up to the denominator q of c, the first k at which floor(k*c) =
    k*c loses nothing to rounding, but not past LOAD_K_MAX.
    """
    n = model.frame.size
    lists = itertools.combinations_with_replacement
    if name == "load":
        found = _first_load(cell, gens, c.value,
                            min(c.value.denominator, LOAD_K_MAX))
        return None if found is None else CellSetWitness(
            cell_index, _event_sets(found, n))
    if name in _COUNTING:
        if cell.bit_count() > cell_budget:
            raise CellTooLargeForBruteForce(
                f"cell of size {cell.bit_count()} exceeds budget "
                f"{cell_budget}")
        max_non, min_dual = cell_families(model, cell_index)
        if not max_non:
            return None  # every subset believed; the conclusion always holds
        found = _first_dominated(
            cell,
            (lambda m: lists(gens, m)) if name == "ws" else
            (lambda m: ((x1,) + rest for x1 in gens
                        for rest in lists(min_dual, m - 1))),
            lambda m: lists(max_non, m), m_max)
        return None if found is None else ScottWitness(
            cell_index, _event_sets(found[0], n), _event_sets(found[1], n))
    found = None
    if name == "d":
        # X and cell-X both believed iff two generators are disjoint
        found = next(((g1, g2) for g1, g2 in lists(gens, 2)
                      if g1 & g2 == 0), None)
    elif name == "sc":
        # a violation with X < Y shrinks to X = Y minus one point, because
        # non-neighborhoods are downward closed
        if cell.bit_count() > 12:
            raise CellTooLargeForBruteForce(
                f"cell of size {cell.bit_count()} exceeds the subset budget")
        found = next(((x, y) for y in _submasks(cell)
                      if not _believed(gens, y)
                      for x in (y ^ 1 << v for v in _members(y))
                      if not _believed(gens, cell & ~x)), None)
    else:
        # X's among the minimal dual-believed sets; for sc0^s, one-point
        # extensions of their union suffice for Y
        s, exact = int(name[4:]), name.startswith("sc0")
        for xs in itertools.combinations(cell_families(model, cell_index)[1],
                                         s):
            union = _disjoint_union(xs)
            if union is None:
                continue
            ys = ([union | 1 << v for v in _members(cell & ~union)]
                  if exact else [union])
            y = next((y for y in ys if not _believed(gens, y)), None)
            if y is not None:
                found = xs + (y,) if exact else xs
                break
    return None if found is None else CellSetWitness(
        cell_index, _event_sets(found, n))


def _certifies(cell: int, gens: tuple[int, ...], alpha: tuple[int, ...],
               beta: tuple[int, ...], gamma: tuple[int, ...], r: int,
               c: Fraction) -> bool:
    """Believed sets alpha, unbelieved sets beta and worlds gamma in the
    cell, with each world in at most r more of alpha and gamma than of
    beta, prove that no measure agrees with the cell's system at c: it
    would give A*c <= P(alpha) + P(gamma) <= B*c + r (A, B the lengths),
    strictly on the left unless alpha and gamma are empty."""
    slack = (len(alpha) - len(beta)) * c - r
    return (all(gamma) and all(x & ~cell == 0 for x in alpha + beta + gamma)
            and all(_believed(gens, x) for x in alpha)
            and not any(_believed(gens, y) for y in beta)
            and all(sum(x >> v & 1 for x in alpha + gamma)
                    <= sum(y >> v & 1 for y in beta) + r
                    for v in _members(cell))
            and (slack > 0 or slack == 0 and len(alpha + gamma) > 0))


def _replays(name: str, cell: int, gens: tuple[int, ...], witness,
             c: Fraction) -> bool:
    """The witness of condition name, read as a counting certificate,
    replays at c; cell ^ X is cell - X, or leaves the cell with X."""
    if name in _COUNTING:
        xs, ys = (tuple(x.bits for x in w) for w in (witness.xs, witness.ys))
        return len(xs) == len(ys) > 0 and (
            _certifies(cell, gens, xs, ys, (), 0, c) if name == "ws"
            else _certifies(cell, gens, xs[:1], ys + tuple(
                cell ^ x for x in xs[1:]), (), 1 - len(xs), c))
    sets = tuple(x.bits for x in witness.sets)
    if name in ("d", "load"):
        return (name == "load" or len(sets) == 2) and _certifies(
            cell, gens, sets, (), (), floor(len(sets) * c), c)
    s, exact = int(name[4:] or 1), not name.startswith("sc1")
    union = reduce(int.__or__, sets[:s], 0)
    y = sets[s] if len(sets) > s else union
    extra = y & ~union
    return len(sets) == s + exact and _certifies(
        cell, gens, (), tuple(cell ^ x for x in sets[:s]) + (y,),
        (extra & -extra,) if extra else (), -s, c)


def _failures(model: NeighborhoodModel, cell_index: int, names,
              c: Threshold, m_max: int, cell_budget: int):
    """(name, witness) for each of the named conditions the cell fails at
    c, searched lazily in order.

    Each search's result, witness or None, is kept in the model's table
    under (cell, condition, c, m_max, cell_budget), so synthesis and the
    property reports search each cell condition of a model once.  A
    search that raises, such as on a cell over cell_budget, keeps
    nothing and raises again when asked again."""
    table = model._witnesses
    cell, gens = _masks(model, cell_index)
    for name in names:
        key = (cell_index, name, c.value, m_max, cell_budget)
        if key not in table:
            table[key] = _search(name, model, cell_index, cell, gens, c,
                                 m_max, cell_budget)
        if table[key] is not None:
            yield name, table[key]


def _report(model: NeighborhoodModel, names, c: Threshold, m_max: int,
            cell_budget: int) -> PropertyReport:
    """Each named condition with the first cell's witness that fails it;
    a condition already failed is not searched in later cells.  A bound
    m_max below 1 would search no list and pass every condition, so it is
    refused."""
    if m_max < 1:
        raise ValueError(f"m_max must be at least 1, not {m_max}")
    verdicts = dict.fromkeys(names, Verdict.ok())
    for ci in range(len(model.frame.partition)):
        open_names = [name for name in names if verdicts[name].holds]
        for name, witness in _failures(model, ci, open_names, c, m_max,
                                       cell_budget):
            verdicts[name] = Verdict.fail(witness)
    return PropertyReport(tuple(verdicts.items()))


# ---------------------------------------------------------------------------
# Mid-threshold and conjectured high-threshold properties


def check_mid_threshold(model: NeighborhoodModel,
                        m_max: int = DEFAULT_M_MAX,
                        cell_budget: int = DEFAULT_CELL_BUDGET
                        ) -> PropertyReport:
    """Check consistency, strong commitment, and bounded counting transfer."""
    half = Threshold(HALF)
    return _report(model, _necessary(half), half, m_max, cell_budget)


def verify_scott_witness(model: NeighborhoodModel, cell_index: int,
                         xs, ys) -> bool:
    """Replay a stored counting-transfer violation without search.

    True when the lists genuinely witness the violation: the counting
    condition holds, X_1 is a neighborhood, every later X has a
    non-neighborhood cell-complement, and no Y is a neighborhood.
    """
    return replay_witness(model, Threshold(HALF), "scott",
                          ScottWitness(cell_index, tuple(xs), tuple(ys)))


def threshold_step(c: Threshold) -> tuple[Fraction, int]:
    """(s', s) with s' = c/(1-c) and s its ceiling."""
    s_prime = c.value / (1 - c.value)
    return s_prime, ceil(s_prime)


def _active_scheme(c: Threshold) -> str:
    """The disjoint-union scheme in force at c: sc0^s when s = s', the
    1-indexed sc1^s otherwise.  With c = p/q, s' = p/(q - p), so s and
    whether s = s' come from one integer division."""
    p, q = c.value.numerator, c.value.denominator
    s, rest = divmod(p, q - p)
    return f"sc0^{s}" if rest == 0 else f"sc1^{s + 1}"


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
    return _report(model, (_active_scheme(c), "ws"), c, m_max, cell_budget)


# ---------------------------------------------------------------------------
# Witnesses of infeasibility


def infeasibility_witness(model: NeighborhoodModel, cell_index: int,
                          c: Threshold):
    """(condition, witness) proving that no measure agrees with the cell's
    system at c, found by the bounded property searches, or None.

    None means only that the searches found nothing: always below 1/2
    and on cells larger than DEFAULT_CELL_BUDGET, which they skip.  At 7
    worlds, Walley and Fine's cell still gets one: the stored m = 2
    counting violation fails scott at 1/2 and ws above it.
    """
    if len(model.frame.partition[cell_index]) > DEFAULT_CELL_BUDGET:
        return None
    return next(_failures(model, cell_index, _necessary(c), c,
                          DEFAULT_M_MAX, DEFAULT_CELL_BUDGET), None)


def replay_witness(model: NeighborhoodModel, c: Threshold, condition: str,
                   witness) -> bool:
    """Re-check a witness from infeasibility_witness without search.

    True when the condition is one the searches run at c and the sets
    fail it inside the witness's cell.
    """
    kind = ScottWitness if condition in _COUNTING else CellSetWitness
    return (condition in _necessary(c) and isinstance(witness, kind)
            and 0 <= witness.cell_index < len(model.frame.partition)
            and _replays(condition, *_masks(model, witness.cell_index),
                         witness, c.value))


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
