"""Which program functions the traced run wraps, and the per-layer metrics
computed from the spans and counters.

Layers are the package's modules: ``formula``, ``semantics``,
``neighborhood``, ``synthesis``, ``calculus`` and ``cli``.  ``core`` and
``corpus`` are reached only through them, so their time is part of the
caller's self time.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict

LP_SIZES = range(3, 8)

# (module, function, span name)
SPANS = (
    ("formula", "parse_kb", "formula.parse"),
    ("formula", "parse_l", "formula.parse"),
    ("formula", "segerberg_expand", "formula.expand"),
    ("formula", "scott_instance", "formula.expand"),
    ("semantics", "eval_kb_prob", "semantics.eval_prob"),
    ("semantics", "extension_kb_prob", "semantics.eval_prob"),
    ("semantics", "eval_l", "semantics.eval_prob"),
    ("semantics", "extension_l", "semantics.eval_prob"),
    ("semantics", "eval_kb_nbhd", "semantics.eval_nbhd"),
    ("semantics", "extension_kb_nbhd", "semantics.eval_nbhd"),
    ("semantics", "find_nbhd_countermodel", "semantics.countermodel"),
    ("semantics", "sample_prob_countermodel", "semantics.countermodel"),
    ("neighborhood", "derive_neighborhoods", "neighborhood.derive"),
    ("neighborhood", "check_agreement", "neighborhood.agreement"),
    ("neighborhood", "maximal_nonneighborhoods", "neighborhood.transversals"),
    ("neighborhood", "check_base_properties", "neighborhood.base"),
    ("neighborhood", "check_mid_threshold", "neighborhood.mid_threshold"),
    ("neighborhood", "check_conjectured", "neighborhood.conjectured"),
    ("synthesis", "synthesize_measure", "synthesis.synthesize"),
    ("synthesis", "lp_feasible", "synthesis.lp"),
    ("synthesis", "realize_comparative", "synthesis.comparative"),
    ("synthesis", "check_definetti", "synthesis.comparative"),
    ("calculus", "parse_proof", "calculus.parse"),
    ("calculus", "check_derivation", "calculus.check"),
    ("cli", "main", "cli"),
)


class Counters:
    def __init__(self):
        self.counts = defaultdict(int)
        self.lp_calls: list = []  # (variables, item, seconds)
        self.parsed: list = []


def install(tracer, hp) -> Counters:
    """Wrap every function in ``SPANS``, plus the counting hooks."""
    counters = Counters()
    counts = counters.counts

    def after_parse(args, result, seconds, note):
        counters.parsed.append(result)

    def after_derive(args, result, seconds, note):
        counts["derive.subsets"] += sum(1 << len(cell)
                                        for cell in args[0].frame.partition)

    def after_mid(args, result, seconds, note):
        counts["mid_threshold.fails"] += not result.all_hold

    def before_lp(args, kwargs):
        # the arguments may be iterators; hand the solver lists
        args = [list(args[0]), *args[1:]]
        if "positivity" in kwargs:
            kwargs["positivity"] = positivity = list(kwargs["positivity"])
        elif len(args) > 1:
            args[1] = positivity = list(args[1])
        else:
            positivity = []
        return tuple(args), kwargs, len(positivity)

    def after_lp(args, result, seconds, k):
        counts["lp.infeasible"] += not result.feasible
        counters.lp_calls.append((k, tracer.item, seconds))

    def after_check(args, result, seconds, note):
        counts["check.lines"] += len(args[0].lines)

    def after_constraints(args, result):
        constraints, variables = result
        counts["lp.systems"] += 1
        counts["lp.constraints"] += len(constraints)
        counts["lp.variables"] += len(variables)

    hooks = {
        "parse_kb": (None, after_parse), "parse_l": (None, after_parse),
        "derive_neighborhoods": (None, after_derive),
        "check_mid_threshold": (None, after_mid),
        "lp_feasible": (before_lp, after_lp),
        "check_derivation": (None, after_check),
    }
    for module_name, attr, span in SPANS:
        module = getattr(hp, module_name)
        before, after = hooks.get(attr, (None, None))
        tracer.install(module, attr, tracer.wrap(
            span, getattr(module, attr), before, after))
    enum = hp.semantics.enumerate_neighborhood_models
    tracer.install(hp.semantics, "enumerate_neighborhood_models",
                   tracer.wrap_generator("semantics.enumerate", enum,
                                         "semantics.enumerate.models"))
    tracer.install(hp.synthesis, "agreement_constraints", tracer.counter_only(
        hp.synthesis.agreement_constraints, after_constraints))
    return counters


def node_counts(roots) -> tuple[int, int]:
    """(tree nodes, DAG nodes) summed over formulas: a DAG node is a
    distinct subformula of one formula, compared structurally."""
    table: dict = {}
    shape: dict = {}  # id(node) -> (canonical id, tree size, children)

    def visit(node):
        hit = shape.get(id(node))
        if hit is not None:
            return hit
        kids, leaves = [], []
        for field in dataclasses.fields(node):
            value = getattr(node, field.name)
            if dataclasses.is_dataclass(value):
                kids.append(visit(value))
            else:
                leaves.append(repr(value))
        key = (type(node).__name__, tuple(leaves), tuple(k[0] for k in kids))
        canon = table.setdefault(key, len(table))
        out = (canon, 1 + sum(k[1] for k in kids), tuple(kids))
        shape[id(node)] = out
        return out

    tree = dag = 0
    for root in roots:
        top = visit(root)
        tree += top[1]
        seen, todo = set(), [top]
        while todo:
            canon, _, kids = todo.pop()
            if canon not in seen:
                seen.add(canon)
                todo.extend(kids)
        dag += len(seen)
    return tree, dag


def metrics(tracer, counters, scales) -> tuple[dict, list]:
    """Per-layer metrics as name -> (value, unit), and the self-time share
    of each span name in the total item time, largest first.  Times are
    scaled to the reference speed with ``scales[item]``."""
    summary = tracer.summary(scales)["layers"]
    counts = {**counters.counts, **tracer.counts}

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    tree, dag = node_counts(counters.parsed)
    out = {
        "formula.parse.calls": (calls("formula.parse"), "count"),
        "formula.parse.self_s": (self_s("formula.parse"), "s"),
        "formula.tree_nodes": (tree, "count"),
        "formula.dag_nodes": (dag, "count"),
    }
    for name in ("semantics.eval_prob", "semantics.eval_nbhd"):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_s"] = (self_s(name), "s")
    out["semantics.enumerate.models"] = (
        counts.get("semantics.enumerate.models", 0), "count")
    out["semantics.enumerate.self_s"] = (self_s("semantics.enumerate"), "s")
    out["semantics.countermodel.self_s"] = (
        self_s("semantics.countermodel"), "s")
    for name in ("derive", "agreement", "transversals", "mid_threshold",
                 "conjectured"):
        out[f"neighborhood.{name}.calls"] = (calls(f"neighborhood.{name}"),
                                             "count")
        out[f"neighborhood.{name}.self_s"] = (
            self_s(f"neighborhood.{name}"), "s")
    out["neighborhood.derive.subsets"] = (counts.get("derive.subsets", 0),
                                          "count")
    out["neighborhood.mid_threshold.fail_frac"] = (ratio(
        counts.get("mid_threshold.fails", 0),
        calls("neighborhood.mid_threshold")), "ratio")
    lp_calls = calls("synthesis.lp")
    systems = counts.get("lp.systems", 0)
    out.update({
        "synthesis.lp.calls": (lp_calls, "count"),
        "synthesis.lp.self_s": (self_s("synthesis.lp"), "s"),
        "synthesis.lp.infeasible_frac": (ratio(
            counts.get("lp.infeasible", 0), lp_calls), "ratio"),
        "synthesis.lp.constraints": (ratio(
            counts.get("lp.constraints", 0), systems), "rows"),
        "synthesis.lp.variables": (ratio(
            counts.get("lp.variables", 0), systems), "columns"),
    })
    for k in LP_SIZES:
        times = [secs * scales[item] for size, item, secs in counters.lp_calls
                 if size == k]
        out[f"synthesis.lp.ms_per_call.k{k}"] = (
            ratio(sum(times) * 1000, len(times)), "ms")
    out["synthesis.synthesize.self_s"] = (self_s("synthesis.synthesize"), "s")
    out["synthesis.comparative.calls"] = (calls("synthesis.comparative"),
                                          "count")
    out["synthesis.comparative.self_s"] = (self_s("synthesis.comparative"),
                                           "s")
    out["calculus.check.calls"] = (calls("calculus.check"), "count")
    out["calculus.check.self_s"] = (self_s("calculus.check"), "s")
    out["calculus.check.lines"] = (counts.get("check.lines", 0), "count")
    out["cli.self_s"] = (self_s("cli"), "s")
    out["census.open_cases"] = (0, "count")
    out["cli.contract_breaks"] = (0, "count")

    total = sum(row["total_s"] for name, row in summary.items()
                if name == "item")
    shares = sorted(((("benchmark and unwrapped code" if name == "item"
                       else name), ratio(row["self_s"], total))
                     for name, row in summary.items()),
                    key=lambda pair: -pair[1])
    return out, shares
