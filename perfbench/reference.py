"""Independent reference for the benchmark's correctness checks.

Nothing here imports ``highprob``.  Worlds are indices, events are
``frozenset``s of indices, masses are ``Fraction``s, and formulas are
nested tuples:

    ("top",) ("atom", name) ("not", f) ("and", f, g) ("or", f, g)
    ("imp", f, g) ("iff", f, g) ("K", f) ("B", f)

A frame is a list of cells, each a tuple of world indices.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

TOP = ("top",)


# ---------------------------------------------------------------------------
# Formula text

_TOKEN = re.compile(r"\s*(<->|->|<K>|<B>|[~&|()]|K\b|B\b|[a-z][a-zA-Z0-9_]*)")


def parse(text: str) -> tuple:
    """Parse the modal language with the program's precedence: unary
    operators bind tightest, then ``&``, then ``|``, then ``->``/``<->``
    (right-associative)."""
    tokens, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"bad formula text at {pos}: {text!r}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append("")
    at = [0]

    def peek():
        return tokens[at[0]]

    def take():
        at[0] += 1
        return tokens[at[0] - 1]

    def formula():
        left = disj()
        if peek() in ("->", "<->"):
            op = "imp" if take() == "->" else "iff"
            return (op, left, formula())
        return left

    def disj():
        out = conj()
        while peek() == "|":
            take()
            out = ("or", out, conj())
        return out

    def conj():
        out = unary()
        while peek() == "&":
            take()
            out = ("and", out, unary())
        return out

    def unary():
        tok = peek()
        if tok in ("~", "K", "B"):
            take()
            sub = unary()
            return ("not", sub) if tok == "~" else (tok, sub)
        if tok in ("<K>", "<B>"):
            take()
            return ("not", (tok[1], ("not", unary())))
        return primary()

    def primary():
        tok = take()
        if tok == "(":
            out = formula()
            if take() != ")":
                raise ValueError(f"unbalanced parentheses: {text!r}")
            return out
        if tok == "true":
            return TOP
        if tok == "false":
            return ("not", TOP)
        if tok and tok[0].isalpha():
            return ("atom", tok)
        raise ValueError(f"unexpected token {tok!r} in {text!r}")

    out = formula()
    if peek() != "":
        raise ValueError(f"trailing input in {text!r}")
    return out


_INFIX = {"and": "&", "or": "|", "imp": "->", "iff": "<->"}


def show(f: tuple) -> str:
    """Print a formula fully parenthesized, in the program's syntax."""
    kind = f[0]
    if kind == "top":
        return "true"
    if kind == "atom":
        return f[1]
    if kind == "not":
        return "~" + show(f[1])
    if kind in ("K", "B"):
        return f"{kind} {show(f[1])}"
    return f"({show(f[1])} {_INFIX[kind]} {show(f[2])})"


# ---------------------------------------------------------------------------
# Events and measures

def subsets(cell) -> list[frozenset]:
    cell = tuple(cell)
    return [frozenset(c) for r in range(len(cell) + 1)
            for c in itertools.combinations(cell, r)]


def mass(weights, event) -> Fraction:
    return sum((weights[i] for i in event), Fraction(0))


def believed_by_measure(cell, weights, c: Fraction) -> frozenset:
    """Subsets of the cell whose conditional probability exceeds c."""
    total = mass(weights, cell)
    return frozenset(x for x in subsets(cell) if mass(weights, x) / total > c)


def upward_closure(cell, generators) -> frozenset:
    return frozenset(x for x in subsets(cell)
                     if any(g <= x for g in generators))


def minimal(family) -> list[frozenset]:
    """Minimal members, sorted by (size, sorted members)."""
    out = [x for x in family if not any(y < x for y in family)]
    return sorted(out, key=lambda e: (len(e), sorted(e)))


def agreeing_measure_errors(cells, weights, believed, c: Fraction) -> list:
    """Why ``weights`` is not a full-support probability measure that, in
    every cell, believes exactly the sets ``believed[cell_index]``."""
    errors = []
    if any(w <= 0 for w in weights):
        errors.append("measure is not full-support")
    if sum(weights, Fraction(0)) != 1:
        errors.append("measure does not sum to 1")
    if not errors:
        for ci, cell in enumerate(cells):
            if believed_by_measure(cell, weights, c) != believed[ci]:
                errors.append(f"measure disagrees with the target in cell {ci}")
    return errors


# ---------------------------------------------------------------------------
# Evaluation

def extension(f: tuple, n: int, cells, valuation, believes) -> frozenset:
    """Worlds where ``f`` holds.  ``valuation[i]`` is the atom set of world
    i; ``believes(ci, x)`` decides whether cell ci believes the set x."""
    memo: dict = {}
    everything = frozenset(range(n))

    def ext(g):
        hit = memo.get(g)
        if hit is not None:
            return hit
        kind = g[0]
        if kind == "top":
            out = everything
        elif kind == "atom":
            out = frozenset(i for i in range(n) if g[1] in valuation[i])
        elif kind == "not":
            out = everything - ext(g[1])
        elif kind == "and":
            out = ext(g[1]) & ext(g[2])
        elif kind == "or":
            out = ext(g[1]) | ext(g[2])
        elif kind == "imp":
            out = (everything - ext(g[1])) | ext(g[2])
        elif kind == "iff":
            a, b = ext(g[1]), ext(g[2])
            out = everything - (a ^ b)
        else:
            sub = ext(g[1])
            out = frozenset()
            for ci, cell in enumerate(cells):
                cs = frozenset(cell)
                holds = cs <= sub if kind == "K" else believes(ci, sub & cs)
                if holds:
                    out |= cs
        memo[g] = out
        return out

    return ext(f)


def prob_believes(cells, weights, c: Fraction):
    totals = [mass(weights, cell) for cell in cells]
    return lambda ci, x: mass(weights, x) / totals[ci] > c


def nbhd_believes(generators):
    return lambda ci, x: any(g <= x for g in generators[ci])


def conditional(cells, weights, world: int, event) -> Fraction:
    cell = next(frozenset(c) for c in cells if world in c)
    return mass(weights, event & cell) / mass(weights, cell)


# ---------------------------------------------------------------------------
# Single-cell systems

def antichains(k: int) -> list[tuple[frozenset, ...]]:
    """Every nonempty antichain of nonempty subsets of range(k)."""
    sets = [x for x in subsets(range(k)) if x]
    out = []

    def grow(start, chosen):
        if chosen:
            out.append(tuple(chosen))
        for i in range(start, len(sets)):
            x = sets[i]
            if all(not (x <= y or y <= x) for y in chosen):
                chosen.append(x)
                grow(i + 1, chosen)
                chosen.pop()

    grow(0, [])
    return out


def set_partitions(n: int) -> list[tuple[tuple[int, ...], ...]]:
    out = []

    def grow(i, blocks):
        if i == n:
            out.append(tuple(tuple(b) for b in blocks))
            return
        for b in blocks:
            b.append(i)
            grow(i + 1, blocks)
            b.pop()
        blocks.append([i])
        grow(i + 1, blocks)
        blocks.pop()

    grow(0, [])
    return out


def skeletons(max_worlds: int) -> list[tuple[tuple, tuple]]:
    """(partition, generators per cell) for every frame with 1..max_worlds
    worlds and every choice of a generator antichain in each cell."""
    out = []
    for n in range(1, max_worlds + 1):
        for partition in set_partitions(n):
            per_cell = []
            for cell in partition:
                per_cell.append([tuple(frozenset(cell[j] for j in g)
                                       for g in chain)
                                 for chain in antichains(len(cell))])
            for choice in itertools.product(*per_cell):
                out.append((partition, choice))
    return out
