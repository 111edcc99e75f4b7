"""Exact linear-programming feasibility and its applications.

A small two-phase simplex over ``Fraction`` decides feasibility of
rational constraint systems with strict inequalities: every strict
constraint shares one slack variable which the objective maximizes, so the
system is strictly feasible exactly when the optimum slack is positive.
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

Two shortcuts spare that work.  A one-world cell whose only generator
is the cell itself gets the point mass, the only full-support measure
on one world and so the LP's only feasible point, before any search.
And each search's result is kept on the model, keyed by cell,
condition, c and the search bounds, so synthesizing at 1/2 and then
checking the mid-threshold conditions, or synthesizing at 2/3 and then
checking the conjectured ones, searches each cell condition once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .core import (
    EventSet,
    NeighborhoodModel,
    ProbabilityModel,
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

_RELATIONS = (">=", ">", "=")


@dataclass(frozen=True)
class LinearConstraint:
    """sum(coefficients) rel bound, with rel one of >=, >, =.

    <= and < inputs are normalized by negation at construction.
    """

    coefficients: tuple[tuple[str, Fraction], ...]
    relation: str
    bound: Fraction

    def __init__(self, coefficients: Mapping[str, object], relation: str,
                 bound):
        coeffs = {v: Fraction(q) for v, q in coefficients.items()
                  if Fraction(q) != 0}
        bound = Fraction(bound)
        if relation in ("<=", "<"):
            coeffs = {v: -q for v, q in coeffs.items()}
            bound = -bound
            relation = ">=" if relation == "<=" else ">"
        if relation not in _RELATIONS:
            raise ValueError(f"unknown relation {relation!r}")
        object.__setattr__(self, "coefficients",
                           tuple(sorted(coeffs.items())))
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "bound", bound)

    def evaluate(self, assignment: Mapping[str, Fraction]) -> Fraction:
        return sum((q * assignment.get(v, Fraction(0))
                    for v, q in self.coefficients), Fraction(0))

    def satisfied_by(self, assignment: Mapping[str, Fraction]) -> bool:
        lhs = self.evaluate(assignment)
        if self.relation == ">=":
            return lhs >= self.bound
        if self.relation == ">":
            return lhs > self.bound
        return lhs == self.bound


@dataclass(frozen=True)
class LPResult:
    feasible: bool
    assignment: tuple[tuple[str, Fraction], ...] | None = None
    slack: Fraction | None = None
    pivots: int = 0  # over both phases, drive-out pivots included

    def value(self, var: str) -> Fraction:
        return dict(self.assignment)[var]

    def as_dict(self) -> dict[str, Fraction]:
        return dict(self.assignment or ())


_ZERO = Fraction(0)
_ONE = Fraction(1)


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


def lp_feasible(constraints: Iterable[LinearConstraint],
                positivity: Iterable[str] = ()) -> LPResult:
    """Decide strict-rational feasibility.

    Strict constraints (and strict positivity of the listed variables)
    are tightened by a shared slack, the slack is maximized subject to a
    cap of 1, and the system is feasible exactly when the optimum is
    positive.  Returned assignments are re-verified against every input
    constraint before being reported.
    """
    constraints = list(constraints)
    positivity = list(dict.fromkeys(positivity))
    variables = sorted({v for con in constraints
                        for v, _ in con.coefficients} | set(positivity))

    # columns: u_x, v_x per variable (x = u - v), then eps, then slacks
    upos = {x: 2 * i for i, x in enumerate(variables)}
    uneg = {x: 2 * i + 1 for i, x in enumerate(variables)}
    eps = 2 * len(variables)
    ncols = eps + 1

    raw_rows = []  # (coeff list over current ncols, relation, bound)
    for con in constraints:
        row = [_ZERO] * ncols
        for v, q in con.coefficients:
            row[upos[v]] += q
            row[uneg[v]] -= q
        if con.relation == ">":
            row[eps] -= _ONE
        raw_rows.append((row, con.relation, con.bound))
    for v in positivity:
        row = [_ZERO] * ncols
        row[upos[v]] += _ONE
        row[uneg[v]] -= _ONE
        row[eps] -= _ONE
        raw_rows.append((row, ">", _ZERO))
    cap = [_ZERO] * ncols
    cap[eps] = -_ONE
    raw_rows.append((cap, ">=", -_ONE))  # eps <= 1 keeps phase 2 bounded

    # slack columns for the inequalities
    n_ineq = sum(1 for _, rel, _ in raw_rows if rel != "=")
    total = ncols + n_ineq
    rows, rhs = [], []
    si = ncols
    for row, rel, bound in raw_rows:
        full = row + [_ZERO] * n_ineq
        if rel != "=":
            full[si] = -_ONE
            si += 1
        b = Fraction(bound)
        if b < 0:
            full = [-a for a in full]
            b = -b
        rows.append(full)
        rhs.append(b)

    # phase 1: artificial variables, drive their sum to zero
    m = len(rows)
    art0 = total
    for i in range(m):
        rows[i] = rows[i] + [_ONE if j == i else _ZERO for j in range(m)]
    basis = [art0 + i for i in range(m)]
    pivots = _simplex(rows, rhs, basis, [_ZERO] * total + [-_ONE] * m)
    if rhs[m] != 0:  # the artificials' optimal sum
        return LPResult(False, pivots=pivots)

    # pivot remaining zero-level artificials out of the basis
    for i in range(m):
        if basis[i] >= art0:
            c = next((j for j in range(total) if rows[i][j] != 0), None)
            if c is not None:
                _pivot(rows, rhs, basis, i, c)
                pivots += 1
    keep = [i for i in range(m) if basis[i] < art0]
    rows = [rows[i][:total] for i in keep]
    rhs = [rhs[i] for i in keep]
    basis = [basis[i] for i in keep]

    # phase 2: maximize the shared slack
    pivots += _simplex(rows, rhs, basis,
                       [_ONE if j == eps else _ZERO for j in range(total)])

    values = [_ZERO] * total
    for i, bi in enumerate(basis):
        values[bi] = rhs[i]
    slack = values[eps]
    if slack <= 0:
        return LPResult(False, pivots=pivots)
    assignment = {x: values[upos[x]] - values[uneg[x]] for x in variables}
    for con in constraints:
        if not con.satisfied_by(assignment):
            raise RuntimeError(f"solver returned a bad assignment for {con}")
    for v in positivity:
        if assignment[v] <= 0:
            raise RuntimeError("solver violated strict positivity")
    return LPResult(True, tuple(sorted(assignment.items())), slack, pivots)


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
                          c: Threshold) -> tuple[list[LinearConstraint],
                                                 list[str]]:
    """The per-cell system: weights sum to one, each minimal neighborhood
    exceeds c, each maximal non-neighborhood stays at or below c.

    The non-strict caps are exactly what forces non-neighborhoods below
    the threshold: every non-neighborhood lies under a maximal one, and
    every neighborhood contains a minimal generator, so the two antichains
    carry the whole biconditional.
    """
    frame = model.frame
    cell = frame.partition[cell_index]
    names = {v: f"p_{frame.worlds[v]}" for v in cell.indices()}
    cons = [LinearConstraint({nm: 1 for nm in names.values()}, "=", 1)]
    for g in model.generators[cell_index]:
        cons.append(LinearConstraint(
            {names[v]: 1 for v in g.indices()}, ">", c.value))
    for x in cell_families(model, cell_index)[0]:
        if x:
            cons.append(LinearConstraint(
                {nm: 1 for v, nm in names.items() if x >> v & 1},
                "<=", c.value))
    return cons, list(names.values())


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
    cells without one reach the LP.  The searches' results are kept on
    the model, so a later call, or a property report on the same model,
    does not search again.
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
        cons, variables = agreement_constraints(model, ci, c)
        result = lp_feasible(cons, positivity=variables)
        if not result.feasible:
            return SynthesisResult(False, failed_cell=ci)
        local = result.as_dict()
        for v in cell.indices():
            weights[frame.worlds[v]] = local[f"p_{frame.worlds[v]}"] / k
    return SynthesisResult(
        True, make_probability_model(frame, weights))


# ---------------------------------------------------------------------------
# Comparative probability

_COMP_RELS = ("<", "<=", "=")


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


def realize_comparative(rel: ComparativeRelation,
                        full_support: bool = False) -> LPResult:
    """A probability measure realizing every statement, or Infeasible."""
    names = {i: f"p_{w}" for i, w in enumerate(rel.worlds)}
    cons = [LinearConstraint({nm: 1 for nm in names.values()}, "=", 1)]
    for nm in names.values():
        cons.append(LinearConstraint({nm: 1}, ">=", 0))
    for x, comparison, y in rel.statements:
        coeffs: dict[str, Fraction] = {}
        for i in y.indices():
            coeffs[names[i]] = coeffs.get(names[i], _ZERO) + 1
        for i in x.indices():
            coeffs[names[i]] = coeffs.get(names[i], _ZERO) - 1
        relation = {"<": ">", "<=": ">=", "=": "="}[comparison]
        cons.append(LinearConstraint(coeffs, relation, 0))
    positivity = list(names.values()) if full_support else []
    return lp_feasible(cons, positivity=positivity)


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
