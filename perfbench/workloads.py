"""The four workloads: input generation, one item's calls into the
program, and the reference check of its verdict.

Every workload is a closed loop with one client.  The constructor and
``item(i)`` build the inputs from the seed alone; ``run`` is the timed part
and returns the program's results for one item; ``verdict`` turns those
into plain data (outside the timing); ``check`` compares a verdict with
``reference.py`` and returns the reasons it is wrong.  The program is
always reached through module attributes at call time, so the traced run
sees every call.

Inputs are stratified: each seed draws a different set of items, but every
block of items has the same mix of the properties that set the cost of an
item (world count, cell sizes, command kind).  That keeps the figures of
different seeds comparable.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction

import reference as ref

HALF, THREE_FIFTHS, TWO_THIRDS = Fraction(1, 2), Fraction(3, 5), Fraction(2, 3)


def rng_for(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def decks(rng: random.Random, deck: list, count: int) -> list:
    """``count`` entries made of whole shuffled copies of ``deck``."""
    out = []
    while len(out) < count:
        block = list(deck)
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


# ---------------------------------------------------------------------------
# Random inputs in reference form

def random_partition(rng, n: int) -> list[tuple[int, ...]]:
    blocks: list[list[int]] = []
    for i in range(n):
        b = rng.randint(0, len(blocks))
        if b == len(blocks):
            blocks.append([])
        blocks[b].append(i)
    return [tuple(b) for b in blocks]


def composition(rng, parts: int, low: int, high: int) -> list[Fraction]:
    """``parts`` positive rationals summing to one, with a common
    denominator between low and high."""
    d = rng.randint(max(low, parts), max(high, parts))
    cuts = sorted(rng.sample(range(1, d), parts - 1))
    return [Fraction(b - a, d) for a, b in zip((0, *cuts), (*cuts, d))]


def random_weights(rng, n: int, cells) -> list[Fraction]:
    weights = [Fraction(0)] * n
    cell_mass = composition(rng, len(cells), 2, 12)
    for cm, cell in zip(cell_mass, cells):
        for i, part in zip(cell, composition(rng, len(cell), 2 * len(cell),
                                             64)):
            weights[i] = cm * part
    return weights


MODAL_OPS = ("not", "and", "or", "imp", "iff", "K", "B")
BOOLEAN_OPS = MODAL_OPS[:5]


def random_formula(rng, depth: int, atoms=("p", "q"), ops=MODAL_OPS
                   ) -> tuple:
    if depth == 0 or rng.random() < 0.2:
        r = rng.random()
        if r < 0.9:
            return ("atom", atoms[int(r * len(atoms) / 0.9)])
        return ref.TOP if r < 0.95 else ("not", ref.TOP)
    op = rng.choice(ops)
    if op in ("not", "K", "B"):
        return (op, random_formula(rng, depth - 1, atoms, ops))
    return (op, random_formula(rng, depth - 1, atoms, ops),
            random_formula(rng, depth - 1, atoms, ops))


def derived_generators(cells, weights, c) -> list[list[frozenset]]:
    return [ref.minimal(ref.believed_by_measure(cell, weights, c))
            for cell in cells]


# ---------------------------------------------------------------------------
# Conversions between reference data and program objects

def world_names(n: int) -> tuple[str, ...]:
    return tuple(f"w{i + 1}" for i in range(n))


def program_frame(hp, n, cells, valuation=None):
    names = world_names(n)
    val = {names[i]: frozenset(valuation[i]) for i in range(n)} \
        if valuation else None
    return hp.core.Frame(names, tuple(tuple(names[i] for i in cell)
                                      for cell in cells), val)


def program_prob_model(hp, n, cells, weights, valuation=None):
    frame = program_frame(hp, n, cells, valuation)
    return hp.core.make_probability_model(
        frame, {w: q for w, q in zip(frame.worlds, weights)})


def program_nbhd_model(hp, n, cells, generators):
    frame = program_frame(hp, n, cells)
    names = frame.worlds
    return hp.core.make_neighborhood_model(frame, [
        [frame.event(names[i] for i in g) for g in gens]
        for gens in generators])


def generators_of(model) -> list[list[frozenset]]:
    return [[frozenset(g.indices()) for g in gens]
            for gens in model.generators]


def closures(cells, generators) -> list[frozenset]:
    return [ref.upward_closure(cell, gens)
            for cell, gens in zip(cells, generators)]


def measure_errors(cells, weights, target_generators, c) -> list[str]:
    return ref.agreeing_measure_errors(
        cells, weights, closures(cells, target_generators), c)


class Planned:
    """A workload whose item i is built on first use from ``plan[i]``, a
    seeded list of item kinds made of whole shuffled blocks."""

    def item(self, i: int):
        while len(self.items) <= i:
            self.items.append(self._make(self.plan[len(self.items)]))
        return self.items[i]

    def probe(self) -> int:
        """A cheap item for timing set-up."""
        return self.plan.index(self.probe_kind)


# ---------------------------------------------------------------------------
# agreement

TABLE1 = (
    "p -> (q -> p)",
    "(p -> (q -> r)) -> ((p -> q) -> (p -> r))",
    "(~p -> ~q) -> (q -> p)",
    "K (p -> q) -> (K p -> K q)",
    "K p -> p",
    "K p -> K K p",
    "~K p -> K ~K p",
    "~ B false",
    "B true",
    "B p -> K B p",
    "~B p -> K ~B p",
    "K (p -> q) -> (B p -> B q)",
)
TABLE2 = (
    "B p -> <B> p",
    "(<B> p & <K> (~p & q)) -> B (p | q)",
)


class Agreement(Planned):
    """One sampled probability model with about 30 random formulas and the
    axioms of Tables 1 and 2; at each threshold the item derives the
    neighborhood system, checks agreement and evaluates every formula at
    every world under both semantics."""

    name = "agreement"
    n_formulas = 30
    trace_items = 40
    world_deck = [1, 2, 3, 4, 5, 6]
    block = len(world_deck)
    probe_kind = 1

    def __init__(self, hp, seed: int, workdir: str):
        self.hp = hp
        rng = rng_for(self.name, seed)
        f = hp.formula
        p, q, r = f.Atom("p"), f.Atom("q"), f.Atom("r")
        axioms = list(TABLE1) + list(TABLE2) + [
            f.print_kb(f.scott_instance([p], [q])),
            f.print_kb(f.scott_instance([p, q], [q, r])),
        ]
        self.thresholds = [(c, f.Threshold(c))
                           for c in (HALF, THREE_FIFTHS, TWO_THIRDS)]
        self.axioms = [(text, ref.parse(text)) for text in axioms]
        self.plan = decks(rng, self.world_deck, 600)
        self.rng = rng
        self.items: list = []

    def _make(self, n: int):
        rng = self.rng
        cells = random_partition(rng, n)
        valuation = [frozenset(a for a in ("p", "q") if rng.random() < 0.5)
                     for _ in range(n)]
        weights = random_weights(rng, n, cells)
        randoms = [random_formula(rng, 4) for _ in range(self.n_formulas)]
        formulas = [(ref.show(g), g) for g in randoms] + self.axioms
        model = program_prob_model(self.hp, n, cells, weights, valuation)
        return {"n": n, "cells": cells, "valuation": valuation,
                "weights": weights, "texts": [t for t, _ in formulas],
                "asts": [g for _, g in formulas], "model": model}

    def run(self, item):
        hp = self.hp
        model = item["model"]
        worlds = model.frame.worlds
        parsed = [hp.formula.parse_kb(t) for t in item["texts"]]
        out = []
        for _, c in self.thresholds:
            derived = hp.neighborhood.derive_neighborhoods(model, c)
            agrees = hp.neighborhood.check_agreement(derived, model, c).holds
            prob_bits, nbhd_bits = [], []
            for f in parsed:
                pb = nb = 0
                for i, w in enumerate(worlds):
                    if hp.semantics.eval_kb_prob(model, w, f, c):
                        pb |= 1 << i
                    if hp.semantics.eval_kb_nbhd(derived, w, f):
                        nb |= 1 << i
                prob_bits.append(pb)
                nbhd_bits.append(nb)
            out.append((derived, agrees, prob_bits, nbhd_bits))
        return out

    def verdict(self, item, raw):
        return [[[[sorted(g) for g in gens] for gens in generators_of(d)],
                 agrees, pb, nb] for d, agrees, pb, nb in raw]

    def check(self, item, verdict) -> list[str]:
        errors = []
        n, cells, weights = item["n"], item["cells"], item["weights"]
        for (c, _), (gens, agrees, pbits, nbits) in zip(self.thresholds,
                                                        verdict):
            gens = [[frozenset(g) for g in cell] for cell in gens]
            expected = [ref.believed_by_measure(cell, weights, c)
                        for cell in cells]
            if closures(cells, gens) != expected:
                errors.append(f"derived system wrong at c={c}")
            if not agrees:
                errors.append(f"agreement refuted at c={c}")
            believes = ref.prob_believes(cells, weights, c)
            for k, g in enumerate(item["asts"]):
                want = sum(1 << i for i in ref.extension(
                    g, n, cells, item["valuation"], believes))
                if pbits[k] != want:
                    errors.append(f"probability semantics wrong on "
                                  f"{item['texts'][k]!r} at c={c}")
                if nbits[k] != want:
                    errors.append(f"neighborhood semantics wrong on "
                                  f"{item['texts'][k]!r} at c={c}")
        return errors


# ---------------------------------------------------------------------------
# roundtrip

def lp_rows(cell, weights, c) -> int:
    """Rows of the agreement LP for the system the measure induces on the
    cell: the sum row, one per minimal believed set and one per maximal
    nonempty unbelieved set."""
    believed = ref.believed_by_measure(cell, weights, c)
    unbelieved = [x for x in ref.subsets(cell) if x not in believed]
    maximal = [x for x in unbelieved
               if x and not any(x < y for y in unbelieved)]
    return 1 + len(ref.minimal(believed)) + len(maximal)


class Roundtrip(Planned):
    """One measure on a frame with one or two cells of 3-7 worlds; the item
    derives the system at 1/2 and 2/3 and synthesizes a measure back."""

    name = "roundtrip"
    trace_items = 30
    # every block of 20 items has this mix of cell sizes: 8 items of at
    # most 4 worlds per cell, 7 with a 5-world cell, 4 with a 6-world cell
    # and 1 with a 7-world cell, where one LP takes about half a second.
    # The median falls among the 5-world items and the 90th percentile
    # among the 6-world ones.
    cell_deck = [(3,), (3,), (4,), (4,), (3, 3), (3, 4), (4, 3), (4, 4),
                 (5,), (5,), (5,), (5, 3), (3, 5), (5, 4), (4, 5),
                 (6,), (6,), (6, 3), (3, 6), (7,)]
    block = len(cell_deck)
    probe_kind = (3,)
    # LP rows at 1/2 plus rows at 2/3 that a cell of each size must have:
    # the middle of what random measures give (medians 8, 11, 17, 25, 43
    # over 400 draws each).  Fixing the LP size per cell size leaves the
    # LP's growth with cell size as the cost that varies in the workload,
    # instead of the luck of each seed's draws.
    row_band = {3: (7, 9), 4: (10, 12), 5: (16, 18), 6: (24, 26),
                7: (41, 45)}

    def __init__(self, hp, seed: int, workdir: str):
        self.hp = hp
        self.rng = rng_for(self.name, seed)
        self.thresholds = [(c, hp.formula.Threshold(c))
                           for c in (HALF, TWO_THIRDS)]
        self.plan = decks(self.rng, self.cell_deck, 400)
        self.items: list = []

    def _make(self, sizes):
        cells, start = [], 0
        for k in sizes:
            cells.append(tuple(range(start, start + k)))
            start += k
        weights = [Fraction(0)] * start
        masses = composition(self.rng, len(cells), 2, 12)
        for mass, cell in zip(masses, cells):
            for i, w in zip(cell, self._cell_measure(len(cell))):
                weights[i] = mass * w
        return {"n": start, "cells": cells, "weights": weights,
                "model": program_prob_model(self.hp, start, cells, weights)}

    def _cell_measure(self, k: int) -> list[Fraction]:
        cell = tuple(range(k))
        low, high = self.row_band[k]
        while True:
            weights = composition(self.rng, k, 2 * k, 64)
            rows = (lp_rows(cell, weights, HALF)
                    + lp_rows(cell, weights, TWO_THIRDS))
            if low <= rows <= high:
                return weights

    def run(self, item):
        hp = self.hp
        out = []
        for _, c in self.thresholds:
            derived = hp.neighborhood.derive_neighborhoods(item["model"], c)
            result = hp.synthesis.synthesize_measure(derived, c)
            out.append((derived, result))
        return out

    def verdict(self, item, raw):
        out = []
        for derived, result in raw:
            out.append([[[sorted(g) for g in gens]
                         for gens in generators_of(derived)],
                        result.feasible,
                        [str(w) for w in result.model.weights]
                        if result.feasible else None])
        return out

    def check(self, item, verdict) -> list[str]:
        errors = []
        cells, weights = item["cells"], item["weights"]
        for (c, _), (gens, feasible, synth) in zip(self.thresholds, verdict):
            gens = [[frozenset(g) for g in cell] for cell in gens]
            expected = [ref.believed_by_measure(cell, weights, c)
                        for cell in cells]
            if closures(cells, gens) != expected:
                errors.append(f"derived system wrong at c={c}")
            if not feasible:
                errors.append(f"synthesis infeasible on a derived system "
                              f"at c={c}")
                continue
            errors += [f"{e} at c={c}" for e in measure_errors(
                cells, [Fraction(w) for w in synth], gens, c)]
        return errors


# ---------------------------------------------------------------------------
# census

def spread(rng, groups) -> list:
    """The members of all groups in one list, each group shuffled and
    spread evenly, so that every prefix holds each group in proportion."""
    keyed = []
    for g, group in enumerate(groups):
        group = list(group)
        rng.shuffle(group)
        keyed += [((k + 0.5) / len(group), g, k, member)
                  for k, member in enumerate(group)]
    return [member for *_, member in sorted(keyed, key=lambda t: t[:3])]


def freeze(value):
    """Nested lists as nested tuples."""
    if isinstance(value, (list, tuple)):
        return tuple(freeze(v) for v in value)
    return value


def skeleton_key(partition, generators) -> tuple:
    """A frame and its generators as sorted world indices."""
    return (tuple(sorted(tuple(sorted(cell)) for cell in partition)),
            tuple(sorted(tuple(sorted(tuple(sorted(g)) for g in gens))
                         for gens in generators)))


class Census:
    """Every skeleton with at most 4 worlds plus seeded 5-world single-cell
    systems, half derived from measures and half random antichains.  Each
    item gets the LP verdict and the mid-threshold check at 1/2 and the LP
    verdict and the conjectured check at 2/3.  The first item of each pass
    enumerates the skeletons with the program's enumerator."""

    name = "census"
    trace_items = 80
    five_world_items = 96
    skeleton_count = 348
    block = 1
    feasible_at_half = 131

    def __init__(self, hp, seed: int, workdir: str):
        self.hp = hp
        rng = rng_for(self.name, seed)
        self.thresholds = [(c, hp.formula.Threshold(c))
                           for c in (HALF, TWO_THIRDS)]
        small = [(sum(len(c) for c in part), part, gens)
                 for part, gens in ref.skeletons(4)]
        five_cell = (tuple(range(5)),)
        derived, antichain = [], []
        for _ in range(self.five_world_items // 2):
            weights = composition(rng, 5, 10, 64)
            derived.append((5, five_cell, (tuple(ref.minimal(
                ref.believed_by_measure(five_cell[0], weights, HALF))),)))
        chains = ref.antichains(5)
        for _ in range(self.five_world_items // 2):
            antichain.append((5, five_cell, (rng.choice(chains),)))
        groups = [[s for s in small if s[0] == n] for n in range(1, 5)]
        order = spread(rng, groups + [derived, antichain])
        self.skeleton_keys = {skeleton_key(part, gens)
                              for _, part, gens in small}
        self.items = [{"n": 0}] + [
            {"n": n, "cells": cells, "gens": gens,
             "model": program_nbhd_model(hp, n, cells, gens)}
            for n, cells, gens in order]

    def item(self, i: int):
        return self.items[i % len(self.items)]

    def probe(self) -> int:
        return next(i for i, it in enumerate(self.items)
                    if 1 <= it["n"] <= 4)

    def run(self, item):
        hp = self.hp
        if item["n"] == 0:
            return list(hp.semantics.enumerate_neighborhood_models(4, ()))
        model = item["model"]
        (_, half), (_, two_thirds) = self.thresholds
        lp_half = hp.synthesis.synthesize_measure(model, half)
        mid = hp.neighborhood.check_mid_threshold(model).all_hold
        lp_23 = hp.synthesis.synthesize_measure(model, two_thirds)
        conj = hp.neighborhood.check_conjectured(model, two_thirds).all_hold
        return lp_half, mid, lp_23, conj

    def verdict(self, item, raw):
        if item["n"] == 0:
            return sorted(skeleton_key(
                [m.frame.partition[ci].indices()
                 for ci in range(len(m.frame.partition))],
                generators_of(m)) for m in raw)
        lp_half, mid, lp_23, conj = raw

        def measure(result):
            return ([str(w) for w in result.model.weights]
                    if result.feasible else None)
        return [lp_half.feasible, measure(lp_half), mid,
                lp_23.feasible, measure(lp_23), conj]

    def check(self, item, verdict) -> list[str]:
        if item["n"] == 0:
            keys = {freeze(key) for key in verdict}
            if len(verdict) != self.skeleton_count \
                    or keys != self.skeleton_keys:
                return [f"enumerated {len(verdict)} skeletons, expected "
                        f"the {self.skeleton_count} of the reference"]
            return []
        errors = []
        feas_half, m_half, mid, feas_23, m_23, conj = verdict
        cells, gens = item["cells"], item["gens"]
        for c, synth in ((HALF, m_half), (TWO_THIRDS, m_23)):
            if synth is not None:
                errors += [f"{e} at c={c}" for e in measure_errors(
                    cells, [Fraction(w) for w in synth], gens, c)]
        if item["n"] <= 4 and feas_half != mid:
            errors.append("LP and mid-threshold properties disagree "
                          "at <= 4 worlds")
        if feas_half and not mid:
            errors.append("feasible at 1/2 but the properties fail")
        if feas_23 and not conj:
            errors.append("feasible at 2/3 but the conjectured "
                          "conditions fail")
        return errors

    @staticmethod
    def open_case(item, verdict) -> bool:
        """Infeasible at 1/2 although the m <= 3 properties hold."""
        return item["n"] == 5 and not verdict[0] and verdict[2]


# ---------------------------------------------------------------------------
# cli

BUILTIN_MODELS = {
    # name: (cells, weights, valuation) as stored in the paper's scenarios
    "horses1": ([(0, 1, 2)], [Fraction(3, 6), Fraction(2, 6), Fraction(1, 6)]),
    "horses2": ([(0, 1), (2,)],
                [Fraction(3, 6), Fraction(2, 6), Fraction(1, 6)]),
    "horses3": ([(0, 1, 2)], [Fraction(1, 3)] * 3),
}
HORSE_VALUATION = [frozenset({"h1"}), frozenset({"h2"}), frozenset({"h3"})]

# valid in every neighborhood model; the exhaustive search up to 3 worlds
# takes about 8 ms with one atom and about 65 ms with two
VALID_ONE_ATOM = (
    "K p -> K K p",
    "~K p -> K ~K p",
    "B p -> K B p",
    "~B p -> K ~B p",
)
VALID_TWO_ATOMS = (
    "K (p -> q) -> (K p -> K q)",
    "K (p -> q) -> (B p -> B q)",
)
INVALID_NBHD = (
    "B (p -> q) -> (B p -> B q)",
    "B p -> p",
    "(B p & B q) -> B (p & q)",
    "B p -> K p",
    "~B p -> B ~p",
    "B p -> B (p & q)",
)
KPS_STATEMENTS = "c < a,b\nb,d < a,c\na,e < b,c\na,b,c < d,e\n"

# slot kinds in every block of CLI items, with their multiplicity.  The
# 90th percentile falls among the four two-atom countermodel searches,
# which all cost about the same; only demo-walley-fine, synthesize-wf and
# demo-kps cost more.
CLI_DECK = (
    ["eval-builtin"] * 4 + ["eval-p-builtin"] * 2 + ["eval-file"] * 5
    + ["eval-p-file"] * 2 + ["eval-nbhd-file"] * 3 + ["derive"] * 2
    + ["synthesize"] * 2 + ["synthesize-wf"] + ["agree"] * 2
    + ["check-mid"] + ["check-conj"] + ["check-wf"]
    + ["countermodel-found"] * 2 + ["countermodel-none"] * 3
    + ["countermodel-none-wide"] * 4
    + ["countermodel-mid"] + ["countermodel-prob"] * 2
    + ["prove"] * 3 + ["prove-mutant"] + ["comparative-kps"]
    + ["comparative-ok"] + ["demo-horses", "demo-kps", "demo-walley-fine"]
    + ["error"] * 3
)


def cli_call(hp, argv):
    """Run ``highprob.cli.main`` in-process; (exit code, stdout, error).

    An exception that escapes ``main`` is reported by type name, so that it
    counts against the exit-code contract instead of stopping the run."""
    out, err = io.StringIO(), io.StringIO()
    escaped = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = hp.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # the contract says exit 2, not a traceback
            code, escaped = None, type(exc).__name__
    return code, out.getvalue(), escaped


def negate_line(text: str, k: int) -> str:
    """The proof with the formula of its k-th step negated."""
    out, seen = [], 0
    for raw in text.splitlines():
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            seen += 1
            if seen == k:
                num, rest = raw.split(".", 1)
                formula, just = rest.rsplit(";", 1)
                raw = f"{num}. ~({formula.strip()}) ;{just}"
        out.append(raw)
    return "\n".join(out) + "\n"


class Cli(Planned):
    """In-process ``highprob.cli.main(argv)`` calls with output captured: a
    seeded mix of eval, derive, synthesize, agree, check-model,
    countermodel, prove, comparative, the demos and error paths that the
    program already handles.  Commands over about one second stay out."""

    name = "cli"
    block = len(CLI_DECK)
    probe_kind = "eval-file"
    trace_items = 90
    models_in_pool = 16

    def __init__(self, hp, seed: int, workdir: str):
        self.hp = hp
        self.dir = workdir
        rng = self.rng = rng_for(self.name, seed)
        self.pool = [self._model_files(rng, j)
                     for j in range(self.models_in_pool)]
        self.proofs = []
        for j, (name, theory, text) in enumerate(hp.corpus.PROOF_CORPUS):
            lines = len([ln for ln in text.splitlines()
                         if ln.strip() and not ln.strip().startswith("#")])
            self.proofs.append((self._write(f"proof{j}.txt", text), theory,
                                text, lines))
        self.kps = self._write("kps.txt", KPS_STATEMENTS)
        self.plan = decks(rng, CLI_DECK, 2400)
        self.items: list = []

    def _write(self, name: str, text: str) -> str:
        path = os.path.join(self.dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def _model_files(self, rng, j: int) -> dict:
        n = rng.randint(3, 4)
        cells = random_partition(rng, n)
        valuation = [frozenset(a for a in ("p", "q") if rng.random() < 0.5)
                     for _ in range(n)]
        weights = random_weights(rng, n, cells)
        names = world_names(n)
        base = {"worlds": list(names),
                "partition": [[names[i] for i in cell] for cell in cells],
                "valuation": {names[i]: sorted(valuation[i])
                              for i in range(n)}}
        prob = dict(base, kind="probability",
                    weights={names[i]: str(w) for i, w in enumerate(weights)})
        entry = {"n": n, "cells": cells, "valuation": valuation,
                 "weights": weights,
                 "prob": self._write(f"prob{j}.json", json.dumps(prob))}
        for tag, c in (("half", HALF), ("23", TWO_THIRDS)):
            gens = derived_generators(cells, weights, c)
            doc = dict(base, kind="neighborhood", generators=[
                [[names[i] for i in sorted(g)] for g in cell_gens]
                for cell_gens in gens])
            entry[tag] = gens
            entry[f"nbhd_{tag}"] = self._write(f"nbhd{j}_{tag}.json",
                                               json.dumps(doc))
        return entry

    # each maker returns the argv and what the reference expects of it
    def _make(self, kind: str) -> dict:
        rng = self.rng
        make = getattr(self, "_" + kind.replace("-", "_"), None)
        if make is not None:
            argv, expect = make(rng)
        elif kind.startswith("demo-"):
            argv, expect = ["demo", kind[5:]], {"code": 0}
        else:
            raise ValueError(kind)
        return {"kind": kind, "argv": argv, **expect}

    def _threshold(self, rng) -> Fraction:
        return rng.choice((HALF, THREE_FIFTHS, TWO_THIRDS))

    def _eval_builtin(self, rng):
        name = rng.choice(sorted(BUILTIN_MODELS))
        cells, weights = BUILTIN_MODELS[name]
        g = random_formula(rng, 3, ("h1", "h2", "h3"))
        world, c = rng.randrange(3), self._threshold(rng)
        ext = ref.extension(g, 3, cells, HORSE_VALUATION,
                            ref.prob_believes(cells, weights, c))
        return (["eval", "--model", name, "--world", f"w{world + 1}",
                 "--formula", ref.show(g), "--threshold", str(c)],
                {"code": 0 if world in ext else 1})

    def _p_formula(self, rng, n, cells, weights, valuation, atoms):
        """``P(f) REL r`` or ``P(f) + P(g) REL r`` and its truth at world."""
        world = rng.randrange(n)
        fs = [random_formula(rng, 2, atoms, BOOLEAN_OPS)
              for _ in range(rng.randint(1, 2))]
        value = Fraction(0)
        for g in fs:
            ext = ref.extension(g, n, cells, valuation, None)
            value += ref.conditional(cells, weights, world, ext)
        rel = rng.choice((">=", ">", "<=", "<", "="))
        bound = value if rel in ("=", ">=", "<=") and rng.random() < 0.5 \
            else Fraction(rng.randint(0, 6), 6)
        holds = {">=": value >= bound, ">": value > bound,
                 "<=": value <= bound, "<": value < bound,
                 "=": value == bound}[rel]
        text = " + ".join(f"P({ref.show(g)})" for g in fs) + f" {rel} {bound}"
        return world, text, 0 if holds else 1

    def _eval_p_builtin(self, rng):
        name = rng.choice(sorted(BUILTIN_MODELS))
        cells, weights = BUILTIN_MODELS[name]
        world, text, code = self._p_formula(
            rng, 3, cells, weights, HORSE_VALUATION, ("h1", "h2", "h3"))
        return (["eval", "--model", name, "--world", f"w{world + 1}",
                 "--formula", text], {"code": code})

    def _eval_file(self, rng):
        m = rng.choice(self.pool)
        g = random_formula(rng, 3)
        world, c = rng.randrange(m["n"]), self._threshold(rng)
        ext = ref.extension(g, m["n"], m["cells"], m["valuation"],
                            ref.prob_believes(m["cells"], m["weights"], c))
        return (["eval", "--model", m["prob"], "--world", f"w{world + 1}",
                 "--formula", ref.show(g), "--threshold", str(c)],
                {"code": 0 if world in ext else 1})

    def _eval_p_file(self, rng):
        m = rng.choice(self.pool)
        world, text, code = self._p_formula(
            rng, m["n"], m["cells"], m["weights"], m["valuation"], ("p", "q"))
        return (["eval", "--model", m["prob"], "--world", f"w{world + 1}",
                 "--formula", text], {"code": code})

    def _eval_nbhd_file(self, rng):
        m = rng.choice(self.pool)
        tag = rng.choice(("half", "23"))
        g = random_formula(rng, 3)
        world = rng.randrange(m["n"])
        ext = ref.extension(g, m["n"], m["cells"], m["valuation"],
                            ref.nbhd_believes(m[tag]))
        return (["eval", "--model", m[f"nbhd_{tag}"], "--world",
                 f"w{world + 1}", "--formula", ref.show(g)],
                {"code": 0 if world in ext else 1})

    def _derive(self, rng):
        m = rng.choice(self.pool)
        c = self._threshold(rng)
        return (["derive", "--model", m["prob"], "--threshold", str(c),
                 "--json"],
                {"code": 0, "derive": (m["cells"], m["weights"], str(c))})

    def _synthesize(self, rng):
        m = rng.choice(self.pool)
        tag, c = rng.choice((("half", HALF), ("23", TWO_THIRDS)))
        return (["--json", "synthesize", "--model", m[f"nbhd_{tag}"],
                 "--threshold", str(c)],
                {"code": 0, "measure": (m["cells"], m[tag], str(c))})

    def _synthesize_wf(self, rng):
        return (["synthesize", "--model", "walley-fine", "--threshold",
                 str(rng.choice((HALF, TWO_THIRDS)))], {"code": 1})

    def _agree(self, rng):
        m = rng.choice(self.pool)
        tag, c_n = rng.choice((("half", HALF), ("23", TWO_THIRDS)))
        c = c_n if rng.random() < 0.5 else self._threshold(rng)
        same = closures(m["cells"], m[tag]) == [
            ref.believed_by_measure(cell, m["weights"], c)
            for cell in m["cells"]]
        return (["agree", "--nbhd", m[f"nbhd_{tag}"], "--prob", m["prob"],
                 "--threshold", str(c)], {"code": 0 if same else 1})

    def _check_mid(self, rng):
        # systems derived at 1/2 satisfy every mid-threshold property
        m = rng.choice(self.pool)
        return (["check-model", "--model", m["nbhd_half"],
                 "--mid-threshold"], {"code": 0})

    def _check_conj(self, rng):
        # the candidate conditions for 2/3 hold on systems derived at 2/3
        m = rng.choice(self.pool)
        return (["check-model", "--model", m["nbhd_23"], "--conjectured",
                 "2/3"], {"code": 0})

    def _check_wf(self, rng):
        return (["check-model", "--model", "walley-fine"], {"code": 0})

    def _countermodel_found(self, rng):
        text = rng.choice(INVALID_NBHD)
        return (["--json", "countermodel", "--formula", text,
                 "--max-worlds", "3"],
                {"code": 0, "countermodel": (text, None)})

    def _countermodel_none(self, rng):
        return (["countermodel", "--formula", rng.choice(VALID_ONE_ATOM),
                 "--max-worlds", "3"], {"code": 1})

    def _countermodel_none_wide(self, rng):
        return (["countermodel", "--formula", rng.choice(VALID_TWO_ATOMS),
                 "--max-worlds", "3"], {"code": 1})

    def _countermodel_mid(self, rng):
        return (["countermodel", "--formula", "B p -> <B> p",
                 "--max-worlds", str(rng.randint(2, 3)), "--mid-threshold"],
                {"code": 1})

    def _countermodel_prob(self, rng):
        seed = str(rng.randrange(10 ** 6))
        if rng.random() < 0.5:
            c = self._threshold(rng)
            text = rng.choice(("B p -> p", "B p -> K p"))
            return (["--json", "countermodel", "--prob", "--formula", text,
                     "--threshold", str(c), "--seed", seed],
                    {"code": 0, "countermodel": (text, str(c))})
        return (["countermodel", "--prob", "--formula",
                 rng.choice(("K p -> p", "K (p -> q) -> (B p -> B q)")),
                 "--trials", "200", "--seed", seed], {"code": 1})

    def _prove(self, rng):
        path, theory, _, _ = rng.choice(self.proofs)
        return (["prove", "--theory", theory, "--proof", path,
                 "--cl-oracle"], {"code": 0})

    def _prove_mutant(self, rng):
        j = rng.randrange(len(self.proofs))
        _, theory, text, lines = self.proofs[j]
        k = rng.randint(1, lines)
        path = self._write(f"mutant{j}_{k}.txt", negate_line(text, k))
        return (["prove", "--theory", theory, "--proof", path,
                 "--cl-oracle"], {"code": 1})

    def _comparative_kps(self, rng):
        return (["comparative", "--universe", "a b c d e", "--statements",
                 self.kps, "--definetti"], {"code": 1})

    def _comparative_ok(self, rng):
        # four worlds: the classical-conditions table on five worlds costs
        # up to half a second
        names = "abcd"
        weights = composition(rng, len(names), 10, 40)
        lines = []
        for _ in range(4):
            x = [i for i in range(len(names)) if rng.random() < 0.4]
            y = [i for i in range(len(names)) if rng.random() < 0.5]
            mx, my = ref.mass(weights, x), ref.mass(weights, y)
            rel = "=" if mx == my else ("<" if mx < my else None)
            if rel is None:
                x, y, rel = y, x, "<"
            show = lambda s: ",".join(names[i] for i in s) or "-"  # noqa: E731
            lines.append(f"{show(x)} {rel} {show(y)}")
        path = self._write(f"stmts{rng.randrange(10 ** 9)}.txt",
                           "\n".join(lines) + "\n")
        return (["--json", "comparative", "--universe", " ".join(names),
                 "--statements", path, "--definetti"],
                {"code": 0, "comparative": (names, lines)})

    def _error(self, rng):
        choice = rng.randrange(4)
        if choice == 0:
            argv = ["eval", "--model", "horses3", "--world", "w1",
                    "--formula", "B (h1 &", "--threshold", "1/2"]
        elif choice == 1:
            argv = ["eval", "--model", "horses3", "--world", "w1",
                    "--formula", "B h1", "--threshold", "3/2"]
        elif choice == 2:
            argv = ["prove", "--theory", "kb", "--proof",
                    os.path.join(self.dir, "no-such-proof.txt")]
        else:
            argv = ["derive", "--model", "walley-fine", "--threshold", "1/2"]
        return argv, {"code": 2}

    def run(self, item):
        return cli_call(self.hp, item["argv"])

    def verdict(self, item, raw):
        code, out, escaped = raw
        return [code, escaped, out]

    def check(self, item, verdict) -> list[str]:
        code, escaped, out = verdict
        if escaped is not None:
            return [f"{escaped} escaped from main"]
        if code != item["code"]:
            return [f"exit {code}, expected {item['code']}"]
        if code != 0:
            return []
        try:
            return self._check_output(item, out)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable output: {exc!r}"]

    def _check_output(self, item, out: str) -> list[str]:
        if "derive" in item:
            cells, weights, c = item["derive"]
            doc = json.loads(out)
            index = {w: i for i, w in enumerate(doc["worlds"])}
            gens = [[frozenset(index[w] for w in g) for g in cell]
                    for cell in doc["generators"]]
            want = [ref.believed_by_measure(cell, weights, Fraction(c))
                    for cell in cells]
            return [] if closures(cells, gens) == want \
                else ["derived system wrong"]
        if "measure" in item:
            cells, gens, c = item["measure"]
            doc = json.loads(out)["model"]
            weights = [Fraction(doc["weights"][w]) for w in doc["worlds"]]
            return measure_errors(cells, weights, gens, Fraction(c))
        if "countermodel" in item:
            text, c = item["countermodel"]
            found = json.loads(out)
            doc = found["model"]
            n = len(doc["worlds"])
            index = {w: i for i, w in enumerate(doc["worlds"])}
            cells = [tuple(index[w] for w in cell)
                     for cell in doc["partition"]]
            valuation = [frozenset(doc["valuation"][w])
                         for w in doc["worlds"]]
            if c is None:
                gens = [[frozenset(index[w] for w in g) for g in cell]
                        for cell in doc["generators"]]
                believes = ref.nbhd_believes(gens)
            else:
                weights = [Fraction(doc["weights"][w])
                           for w in doc["worlds"]]
                believes = ref.prob_believes(cells, weights, Fraction(c))
            ext = ref.extension(ref.parse(text), n, cells, valuation,
                                believes)
            return [] if index[found["world"]] not in ext \
                else ["reported countermodel satisfies the formula"]
        if "comparative" in item:
            names, lines = item["comparative"]
            doc = json.loads(out)
            weights = [Fraction(doc["measure"][f"p_{w}"]) for w in names]
            if any(w < 0 for w in weights) or sum(weights) != 1:
                return ["comparative measure is not a probability"]
            for line in lines:
                x, rel, y = line.split()
                mx, my = (ref.mass(weights, [names.index(w) for w in s
                                             if w != "-"])
                          for s in (x.split(","), y.split(",")))
                if not (mx < my if rel == "<" else mx == my):
                    return [f"measure violates {line!r}"]
        return []


KNOWN_BAD_CLI = (
    ("unknown world", ["eval", "--model", "horses3", "--world", "nope",
                       "--formula", "h1", "--threshold", "1/2"]),
    ("model file without valuation", None),
    ("missing statements file", ["comparative", "--universe", "a b",
                                 "--statements", None]),
    ("duplicate worlds", ["comparative", "--universe", "a a"]),
    ("5000-deep formula", ["eval", "--model", "horses3", "--world", "w1",
                           "--formula", "~" * 5000 + "h1",
                           "--threshold", "1/2"]),
)


def known_bad_cli(hp, workdir: str) -> list[tuple[str, str]]:
    """Run the inputs for which the CLI is known to break its exit-code
    contract (exit 2 with a one-line message).  Returns (case, outcome)
    for each case that breaks it.  They run outside the timed loop."""
    doc = {"kind": "probability", "worlds": ["w1"], "partition": [["w1"]],
           "weights": {"w1": "1"}}
    no_valuation = os.path.join(workdir, "no-valuation.json")
    with open(no_valuation, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    missing = os.path.join(workdir, "no-such-statements.txt")
    broken = []
    for case, argv in KNOWN_BAD_CLI:
        if argv is None:
            argv = ["eval", "--model", no_valuation, "--world", "w1",
                    "--formula", "p", "--threshold", "1/2"]
        argv = [missing if a is None else a for a in argv]
        code, _, escaped = cli_call(hp, argv)
        if escaped is not None or code != 2:
            broken.append((case, escaped or f"exit {code}"))
    return broken


WORKLOADS = {w.name: w for w in (Agreement, Roundtrip, Census, Cli)}
