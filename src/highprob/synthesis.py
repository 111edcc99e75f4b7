"""Exact linear-programming feasibility and its applications.

A small two-phase simplex over ``Fraction`` decides feasibility of
systems of rows P(plus) - P(minus) rel bound over world masses, plus and
minus ``int`` world masks, with strict inequalities: every strict row
shares one slack variable which the objective maximizes, so the system
is strictly feasible exactly when the optimum slack is positive.
The reduced costs are kept as one extra tableau row that each pivot
updates, so no iteration recomputes them from the whole tableau.  Each
phase builds that row from the basic rows with a nonzero cost alone.
On top of the solver sit agreeing-measure synthesis for neighborhood
models and realizability checking for comparative-probability relations.

Synthesis is certificate-first.  Before a cell's LP is built, the
bounded property searches of ``neighborhood`` look for a failed
condition that every agreeing measure at c must satisfy; that module
says which conditions these are at each c.  Above 1/2 the last of
them, ``load``, fails when k believed sets put no world in more than
floor(k*c) of them: the sets would weigh more than k*c in total but at
most floor(k*c).  Its k runs up to the denominator of c, at most 7.  It
decides cells the named schemes leave open, such as three believed sets
with no world in all three at 2/3.  The searches take cells of up to 7
worlds, Walley and Fine's among them.  A witness is replayed without
search and returned on the result in place of a bare infeasible
verdict, with the failed cell the LP would report; the CLI prints it as
one ``witness:`` line.  Only cells without a witness reach the simplex.

A one-world cell whose only generator is the cell itself skips that
work: it gets the point mass, the only full-support measure on one
world and so the LP's only feasible point, before any search.

At c >= 1/2 the cell's LP also leaves out the cap P(X) <= c on a
maximal non-neighborhood X whenever some generator G lies in the cell
outside X.  The paper's scheme D, B phi -> ~B~phi, holds for measures
there: G's row and the sum to one give P(X) <= 1 - P(G) < 1 - c <= c,
so the cap is implied, a redundant row in the sense of LP presolve.
Dropping it saves the simplex a row and often pivots.  Below 1/2
nothing is left out.  A feasible cell's measure is still checked
against every cap: ``lp_feasible`` re-verifies the rows it saw, and
``synthesize_measure`` the caps it left out.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .core import (
    EventSet,
    NeighborhoodModel,
    ProbabilityModel,
    _members,
    make_probability_model,
)
from .errors import UniverseTooLarge
from .formula import Threshold
from .neighborhood import (
    CellSetWitness,
    PropertyReport,
    ScottWitness,
    Verdict,
    cell_families,
    infeasibility_witness,
    replay_witness,
)

_COMPARE = {">=": operator.ge, ">": operator.gt, "=": operator.eq,
            "<=": operator.le, "<": operator.lt}
_FLIP = {"<=": ">=", "<": ">"}


@dataclass(frozen=True)
class LPResult:
    feasible: bool
    assignment: tuple[tuple[int, Fraction], ...] | None = None  # by index
    slack: Fraction | None = None
    pivots: int = 0  # over both phases, drive-out pivots included


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _holds(row, p: Mapping[int, Fraction]) -> bool:
    """Whether the measure p, a mass per world, satisfies the row."""
    plus, minus, rel, bound = row
    lhs = sum(q * ((plus >> w & 1) - (minus >> w & 1)) for w, q in p.items())
    return _COMPARE[rel](lhs, bound)


def _pivot(rows, rhs, basis, r, c):
    inv = _ONE / rows[r][c]
    rows[r] = [a * inv if a else a for a in rows[r]]
    rhs[r] *= inv
    for i in range(len(rows)):
        if i != r and rows[i][c] != 0:
            f = rows[i][c]
            rows[i] = [a - f * p for a, p in zip(rows[i], rows[r])]
            rhs[i] -= f * rhs[r]
    basis[r] = c


def _simplex(rows, rhs, basis, objective):
    """Maximize objective over {y >= 0, rows*y = rhs} from a feasible
    basis; returns the number of pivots.

    The reduced costs objective - c_B B^-1 A go below the rows as one more
    row, with minus the objective's value on the right.  Only basic rows
    with a nonzero cost enter them, and only through their nonzero
    entries: every artificial's row in phase 1, at most the slack's row
    in phase 2.  `_pivot` eliminates that row like any other, so it stays
    current without being recomputed.  Bland's rule throughout: smallest
    eligible entering index, ties in the ratio test broken by smallest
    basic variable index.  Terminates.
    """
    m = len(basis)
    costs, value = list(objective), _ZERO
    for b, row, v in zip(basis, rows, rhs):
        if objective[b]:
            for j, a in enumerate(row):
                if a:
                    costs[j] -= objective[b] * a
            value -= objective[b] * v
    rows.append(costs)
    rhs.append(value)
    pivots = 0
    while True:
        enter = next((j for j, d in enumerate(rows[m]) if d > 0), None)
        if enter is None:
            return pivots
        leave = best = None
        for i in range(m):
            if rows[i][enter] > 0:
                ratio = rhs[i] / rows[i][enter]
                if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            raise RuntimeError("slack maximization unbounded despite cap")
        _pivot(rows, rhs, basis, leave, enter)
        pivots += 1


def lp_feasible(rows: Iterable[tuple[int, int, str, Fraction]],
                positivity: Iterable[int] = ()) -> LPResult:
    """Decide strict-rational feasibility of rows over world masses.

    A row (plus, minus, rel, bound) reads P(plus) - P(minus) rel bound,
    with plus and minus world masks and rel one of >=, >, =, <=, <; a <=
    or < row is turned into >= or > by swapping plus and minus and
    negating the bound.  Strict rows (and strict positivity of the listed
    worlds) are tightened by a shared slack, the slack is maximized
    subject to a cap of 1, and the system is feasible exactly when the
    optimum is positive.  The columns are the worlds with a nonzero
    coefficient somewhere, in index order, and the assignment is
    re-verified against every row before being reported.
    """
    specs = []
    for plus, minus, rel, bound in rows:
        if rel in _FLIP:
            plus, minus, rel, bound = minus, plus, _FLIP[rel], -bound
        elif rel not in _COMPARE:
            raise ValueError(f"unknown relation {rel!r}")
        specs.append((plus, minus, rel, Fraction(bound)))
    specs += [(1 << w, 0, ">", _ZERO) for w in dict.fromkeys(positivity)]
    specs.append((0, 0, ">", -_ONE))
    nonzero = 0  # the worlds with a nonzero coefficient somewhere
    for plus, minus, _, _ in specs:
        nonzero |= plus ^ minus
    worlds = _members(nonzero)

    # The phase-1 tableau: one full row per input row, per strictly
    # positive world, and for the cap eps <= 1 that bounds phase 2,
    # written -eps >= -1 as a strict row with no worlds.  Columns: u_w and
    # v_w at 2i and 2i + 1 for the i-th world w, whose mass is u_w - v_w;
    # eps at 2n (-1 in strict rows); one slack per inequality in row order
    # (-1); one artificial per row (1), set after a negative bound is
    # negated.
    upos = {w: 2 * i for i, w in enumerate(worlds)}
    eps = 2 * len(worlds)
    m = len(specs)
    total = eps + 1 + sum(rel != "=" for _, _, rel, _ in specs)
    tableau, rhs = [], []
    si = eps + 1
    for i, (plus, minus, rel, bound) in enumerate(specs):
        row = [_ZERO] * (total + m)
        for w in _members(plus ^ minus):
            d = (plus >> w & 1) - (minus >> w & 1)
            row[upos[w]] += d
            row[upos[w] + 1] -= d
        if rel == ">":
            row[eps] = -_ONE
        if rel != "=":
            row[si] = -_ONE
            si += 1
        if bound < 0:
            row = [-a for a in row]
            bound = -bound
        row[total + i] = _ONE
        tableau.append(row)
        rhs.append(bound)

    # phase 1: drive the artificials' sum to zero
    basis = [total + i for i in range(m)]
    pivots = _simplex(tableau, rhs, basis, [_ZERO] * total + [-_ONE] * m)
    if rhs[m] != 0:  # the artificials' optimal sum
        return LPResult(False, pivots=pivots)

    # pivot remaining zero-level artificials out of the basis
    for i in range(m):
        if basis[i] >= total:
            c = next((j for j in range(total) if tableau[i][j] != 0), None)
            if c is not None:
                _pivot(tableau, rhs, basis, i, c)
                pivots += 1
    keep = [i for i in range(m) if basis[i] < total]
    tableau = [tableau[i][:total] for i in keep]
    rhs = [rhs[i] for i in keep]
    basis = [basis[i] for i in keep]

    # phase 2: maximize the shared slack
    pivots += _simplex(tableau, rhs, basis,
                       [_ONE if j == eps else _ZERO for j in range(total)])

    values = [_ZERO] * total
    for i, bi in enumerate(basis):
        values[bi] = rhs[i]
    slack = values[eps]
    if slack <= 0:
        return LPResult(False, pivots=pivots)
    p = {w: values[upos[w]] - values[upos[w] + 1] for w in worlds}
    for spec in specs:
        if not _holds(spec, p):
            raise RuntimeError(f"solver returned a bad assignment for {spec}")
    return LPResult(True, tuple(p.items()), slack, pivots)


# ---------------------------------------------------------------------------
# Agreeing-measure synthesis


@dataclass(frozen=True)
class SynthesisResult:
    """An agreeing measure, or the first cell that has none.  When the
    property searches proved that cell infeasible, ``condition`` names
    the failed condition and ``witness`` holds its replayed sets."""

    feasible: bool
    model: ProbabilityModel | None = None
    failed_cell: int | None = None
    condition: str | None = None
    witness: CellSetWitness | ScottWitness | None = None


def agreement_constraints(model: NeighborhoodModel, cell_index: int,
                          c: Threshold
                          ) -> tuple[list[tuple[int, int, str, Fraction]],
                                     list[int]]:
    """The per-cell rows for ``lp_feasible``: the cell's masses sum to
    one, each minimal neighborhood exceeds c, each maximal
    non-neighborhood stays at or below c; and the cell's worlds in index
    order.

    The non-strict caps are exactly what forces non-neighborhoods below
    the threshold: every non-neighborhood lies under a maximal one, and
    every neighborhood contains a minimal generator, so the two antichains
    carry the whole biconditional.  At c >= 1/2 the cap on a maximal
    non-neighborhood X that some generator G misses is left out: the
    paper's scheme D holds for measures there, and G's row with the sum
    to one already gives P(X) <= 1 - P(G) < 1 - c <= c.  Below 1/2 every
    cap is kept.
    """
    cell = model.frame.partition[cell_index]
    implied = _implied_caps(model, cell_index, c)
    rows = [(cell.bits, 0, "=", _ONE)]
    rows += [(g.bits, 0, ">", c.value) for g in model.generators[cell_index]]
    rows += [(x, 0, "<=", c.value) for x in cell_families(model, cell_index)[0]
             if x and x not in implied]
    return rows, list(cell.indices())


def _implied_caps(model: NeighborhoodModel, cell_index: int, c: Threshold
                  ) -> tuple[int, ...]:
    """The maximal non-neighborhoods, as bitmasks, whose caps
    ``agreement_constraints`` leaves out: at c >= 1/2 the nonempty ones
    that some generator misses, below 1/2 none."""
    if 2 * c.value < 1:
        return ()
    gens = [g.bits for g in model.generators[cell_index]]
    return tuple(x for x in cell_families(model, cell_index)[0]
                 if x and any(g & x == 0 for g in gens))


def synthesize_measure(model: NeighborhoodModel, c: Threshold
                       ) -> SynthesisResult:
    """Find a full-support measure agreeing with the neighborhood system
    at threshold c, or report that none exists.

    Cells are independent, so each is solved separately and the global
    measure weights the cells uniformly; conditional probabilities, and
    hence agreement, do not depend on the cell weighting.  A one-world
    cell whose only generator is the cell itself takes the point mass,
    the only full-support measure on it, with no search or LP.  Every
    other cell first goes through the bounded property searches for a
    condition that an agreeing measure must satisfy; a failure is
    replayed and reported as the cell's proof of infeasibility, and only
    cells without one reach the LP.
    """
    frame = model.frame
    k = len(frame.partition)
    weights: dict[str, Fraction] = {}
    for ci, cell in enumerate(frame.partition):
        if len(cell) == 1 and model.generators[ci] == (cell,):
            # the point mass, the LP's only feasible point
            weights[frame.worlds[cell.indices()[0]]] = _ONE / k
            continue
        found = infeasibility_witness(model, ci, c)
        if found is not None:
            condition, witness = found
            if not replay_witness(model, c, condition, witness):
                raise RuntimeError(f"the {condition} witness for cell {ci} "
                                   "does not replay")
            return SynthesisResult(False, failed_cell=ci,
                                   condition=condition, witness=witness)
        rows, worlds = agreement_constraints(model, ci, c)
        result = lp_feasible(rows, positivity=worlds)
        if not result.feasible:
            return SynthesisResult(False, failed_cell=ci)
        p = dict(result.assignment)
        # lp_feasible re-verified the caps it saw; check the left-out ones
        for x in _implied_caps(model, ci, c):
            if not _holds((x, 0, "<=", c.value), p):
                raise RuntimeError(f"solver returned a measure above the "
                                   f"implied cap on {x:#b} in cell {ci}")
        for v, q in p.items():
            weights[frame.worlds[v]] = q / k
    return SynthesisResult(
        True, make_probability_model(frame, weights))


# ---------------------------------------------------------------------------
# Comparative probability

# X rel Y as the row P(Y) - P(X) rel' 0
_COMP_RELS = {"<": ">", "<=": ">=", "=": "="}


@dataclass(frozen=True)
class ComparativeRelation:
    """Finitely many comparisons between events over a common universe."""

    worlds: tuple[str, ...]
    statements: tuple[tuple[EventSet, str, EventSet], ...]

    def __post_init__(self):
        n = len(self.worlds)
        if len(set(self.worlds)) != n:
            raise ValueError("duplicate world names in the universe")
        for x, rel, y in self.statements:
            if rel not in _COMP_RELS:
                raise ValueError(f"unknown comparison {rel!r}")
            if x.universe_size != n or y.universe_size != n:
                raise ValueError("statement events outside the universe")


def realize_comparative(rel: ComparativeRelation) -> LPResult:
    """A probability measure realizing every statement, keyed by world
    index, or Infeasible."""
    n = len(rel.worlds)
    rows = [((1 << n) - 1, 0, "=", _ONE)]
    rows += [(1 << w, 0, ">=", _ZERO) for w in range(n)]
    rows += [(y.bits, x.bits, _COMP_RELS[comparison], _ZERO)
             for x, comparison, y in rel.statements]
    return lp_feasible(rows)


def check_definetti(leq: Callable[[EventSet, EventSet], bool],
                    universe_size: int) -> PropertyReport:
    """The five classical conditions on a comparative relation, given as a
    total weak order oracle leq(X, Y) over the powerset.

    1. the universe is not below the empty set; 2. the empty set is below
    everything; 3. totality; 4. transitivity; 5. adding or removing a
    common disjoint part does not change a comparison.

    The oracle is called exactly once per ordered pair of events, 4^n
    calls in all, so it must be a pure function.  Its answers are kept as
    one bitmask per event, ``up[x]`` with bit y set when X is below Y, and
    the five checks read only that table.  Each failed condition reports
    the first witness of nested loops over events in increasing bitmask
    order.
    """
    if universe_size > 5:
        raise UniverseTooLarge("condition table limited to 5 worlds")
    n = universe_size
    size = 1 << n
    full = size - 1
    events = [EventSet(bits, n) for bits in range(size)]
    up = [sum(1 << y for y in range(size) if leq(events[x], events[y]))
          for x in range(size)]

    def lowest(mask: int) -> EventSet:
        return events[(mask & -mask).bit_length() - 1]

    nontrivial = Verdict.ok()
    if up[full] & 1:
        nontrivial = Verdict.fail((events[full], events[0]))

    minimal = Verdict.ok()
    if up[0] != (1 << size) - 1:
        minimal = Verdict.fail((events[0], lowest(~up[0])))

    total_v = Verdict.ok()
    for x, y in itertools.combinations(range(size), 2):
        if not (up[x] >> y & 1 or up[y] >> x & 1):
            total_v = Verdict.fail((events[x], events[y]))
            break

    transitive = Verdict.ok()
    for x, y in itertools.product(range(size), repeat=2):
        gap = up[y] & ~up[x]
        if up[x] >> y & 1 and gap:
            transitive = Verdict.fail((events[x], events[y], lowest(gap)))
            break

    additive = Verdict.ok()
    for x, y in itertools.product(range(size), repeat=2):
        # the nonempty subsets z of the rest in increasing bitmask order;
        # adding the empty set changes no comparison
        rest = full & ~(x | y)
        z = rest & -rest
        while z and up[x] >> y & 1 == up[x | z] >> (y | z) & 1:
            z = (z - rest) & rest
        if z:
            additive = Verdict.fail((events[x], events[y], events[z]))
            break

    return PropertyReport((
        ("nontrivial", nontrivial),
        ("minimal-empty", minimal),
        ("total", total_v),
        ("transitive", transitive),
        ("additive", additive),
    ))


def measure_order(weights: Mapping[int, Fraction] | list[Fraction],
                  universe_size: int) -> Callable[[EventSet, EventSet], bool]:
    """The comparison induced by a measure: X below Y iff X weighs no more."""
    vec = [Fraction(weights[i]) for i in range(universe_size)]

    def leq(x: EventSet, y: EventSet) -> bool:
        return (sum((vec[i] for i in x.indices()), _ZERO)
                <= sum((vec[i] for i in y.indices()), _ZERO))

    return leq
