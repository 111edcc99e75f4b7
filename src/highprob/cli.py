"""Command-line surface and model file formats.

Models are JSON documents.  Probability kind:

    {"kind": "probability",
     "worlds": ["w1", "w2"],
     "partition": [["w1", "w2"]],
     "valuation": {"w1": ["p"], "w2": []},
     "weights": {"w1": "1/3", "w2": "2/3"}}

Neighborhood kind replaces "weights" with "generators": one list per
partition cell, each a list of world-name lists naming the minimal
neighborhoods.  Rationals always serialize as "p/q" strings.

Exit codes: 0 for a positive verdict (true, holds, feasible, accepted,
witness found), 1 for the negative verdict, 2 for errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import corpus
from .calculus import check_derivation, parse_proof
from .core import (
    EventSet,
    Frame,
    NeighborhoodModel,
    ProbabilityModel,
    make_neighborhood_model,
    make_probability_model,
)
from .errors import FormulaSyntaxError, HighProbError
from .formula import Threshold, parse_kb, parse_l
from .neighborhood import (
    DEFAULT_CELL_BUDGET,
    DEFAULT_M_MAX,
    PropertyReport,
    ScottWitness,
    check_agreement,
    check_base_properties,
    check_conjectured,
    check_mid_threshold,
    derive_neighborhoods,
    verify_scott_witness,
)
from .semantics import (
    eval_kb_nbhd,
    eval_kb_prob,
    eval_l,
    find_nbhd_countermodel,
    sample_prob_countermodel,
)
from .synthesis import (
    ComparativeRelation,
    check_definetti,
    measure_order,
    realize_comparative,
    synthesize_measure,
)


# ---------------------------------------------------------------------------
# Model files

def model_to_dict(model) -> dict:
    frame = model.frame
    base = {
        "worlds": list(frame.worlds),
        "partition": [list(frame.names(cell)) for cell in frame.partition],
        "valuation": {w: sorted(frame.valuation[w]) for w in frame.worlds},
    }
    if isinstance(model, ProbabilityModel):
        base["kind"] = "probability"
        base["weights"] = {w: str(q) for w, q in model.weight_map().items()}
    else:
        base["kind"] = "neighborhood"
        base["generators"] = [
            [list(frame.names(g)) for g in gens]
            for gens in model.generators]
    return base


_KIND_KEY = {"probability": "weights", "neighborhood": "generators"}


def model_from_dict(doc: dict):
    if not isinstance(doc, dict):
        raise HighProbError("a model document must be a JSON object")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _KIND_KEY:
        raise HighProbError(f"unknown model kind {kind!r}")
    for key in ("worlds", "partition", "valuation", _KIND_KEY[kind]):
        if key not in doc:
            raise HighProbError(f"{kind} model has no {key!r} key")
    worlds = _strings(doc["worlds"], "'worlds'")
    partition = tuple(
        _world_names(cell, worlds, "a partition cell")
        for cell in _json(doc["partition"], list, "'partition'"))
    valuation = {
        w: frozenset(_strings(atoms, f"the valuation of {w!r}"))
        for w, atoms in _json(doc["valuation"], dict, "'valuation'").items()}
    # Frame would drop an unknown world's atoms; an empty list says nothing
    _world_names([w for w, atoms in valuation.items() if atoms], worlds,
                 "the valuation")
    frame = Frame(worlds, partition, valuation)
    if kind == "probability":
        weights = {w: _weight(q, w) for w, q
                   in _json(doc["weights"], dict, "'weights'").items()}
        return make_probability_model(frame, weights)
    gens = tuple(
        tuple(frame.event(_world_names(g, worlds, "a generator"))
              for g in _json(cell_gens, list, "a cell's generators"))
        for cell_gens in _json(doc["generators"], list, "'generators'"))
    return make_neighborhood_model(frame, gens)


def _json(value, kind: type, what: str):
    """The value, if it has the JSON type the model format puts there."""
    if not isinstance(value, kind):
        raise HighProbError(f"{what} must be a JSON "
                            + ("array" if kind is list else "object"))
    return value


def _strings(value, what: str) -> tuple[str, ...]:
    if not all(isinstance(x, str) for x in _json(value, list, what)):
        raise HighProbError(f"{what} must be an array of strings")
    return tuple(value)


def _world_names(value, worlds: tuple[str, ...], what: str
                 ) -> tuple[str, ...]:
    names = _strings(value, what)
    for name in names:
        if name not in worlds:
            raise HighProbError(f"{what} names unknown world {name!r}")
    return names


def _weight(value, world: str) -> Fraction:
    # weights are exact: a JSON float would bring in a binary fraction,
    # and Python counts bools as ints
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise HighProbError(f"weight of {world!r} must be an integer or a "
                            f"\"p/q\" string, not {json.dumps(value)}")
    return _rational(value, f"weight of {world!r}") \
        if isinstance(value, str) else Fraction(value)


_RATIONAL = re.compile(r"\s*[+-]?(?:\d+/\d+|\d+\.?\d*|\.\d+)\s*")


def _rational(text: str, what: str) -> Fraction:
    """The exact rational written p/q or as a plain decimal.

    Anything else is refused before Fraction reads it: Fraction would
    expand exponent notation such as 1e999999999 into an integer with
    that many digits.  So is a run of more digits than the interpreter
    converts to an int (Python 3.10.7 and later), which Fraction would
    only refuse after scaling by ten to the number of decimals.
    """
    if not _RATIONAL.fullmatch(text):
        raise HighProbError(f"{what} must be p/q or a plain decimal, "
                            f"not {text!r}")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and any(len(run) > limit for run in re.findall(r"\d+", text)):
        raise HighProbError(f"{what} has a run of more than {limit} digits")
    return Fraction(text)


_BUILTINS = {
    "horses1": corpus.horses_common_prior,
    "horses2": corpus.horses_cut,
    "horses3": corpus.horses_uniform,
    "walley-fine": corpus.walley_fine_model,
}


def load_model(spec: str):
    if spec in _BUILTINS:
        return _BUILTINS[spec]()
    try:
        doc = json.loads(_read_text(spec, "model file"))
    except json.JSONDecodeError as exc:
        raise HighProbError(f"bad JSON in {spec}: {exc}") from exc
    return model_from_dict(doc)


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise HighProbError(f"cannot read {what} {path}: {exc}") from exc


def _witness_payload(frame: Frame, w):
    if w is None:
        return None
    if isinstance(w, ScottWitness):
        return {"cell": w.cell_index,
                "xs": [frame.names(x) for x in w.xs],
                "ys": [frame.names(y) for y in w.ys]}
    return {"cell": w.cell_index,
            "sets": [frame.names(s) for s in w.sets]}


def _witness_line(frame: Frame, condition: str, w) -> str:
    """One line naming a failed condition, its cell and its sets."""
    def show(sets):
        return " ".join("{" + ",".join(frame.names(x)) + "}" for x in sets)
    head = f"witness: {condition} fails in cell {w.cell_index}"
    if isinstance(w, ScottWitness):
        return f"{head}, m = {len(w.xs)}: X {show(w.xs)}; Y {show(w.ys)}"
    return f"{head}: {show(w.sets)}"


def _report_payload(frame: Frame, report: PropertyReport) -> dict:
    return {name: {"holds": v.holds,
                   "witness": _witness_payload(frame, v.witness)}
            for name, v in report.verdicts}


def _parse_formula(text: str):
    """The formula, and whether the modal parser (tried first) accepted
    it rather than the probability-language one."""
    try:
        return parse_kb(text), True
    except FormulaSyntaxError:
        return parse_l(text), False


def _threshold(text: str) -> Threshold:
    return Threshold(_rational(text, "threshold"))


# ---------------------------------------------------------------------------
# Subcommands: each returns (verdict, --json payload, human text), which
# only `main` prints and turns into the exit code

def cmd_eval(args) -> tuple[bool, dict, str]:
    model = load_model(args.model)
    if args.world not in model.frame.worlds:
        raise HighProbError(f"unknown world {args.world!r}")
    formula, modal = _parse_formula(args.formula)
    if modal:
        if isinstance(model, NeighborhoodModel):
            verdict = eval_kb_nbhd(model, args.world, formula)
        else:
            if args.threshold is None:
                raise HighProbError(
                    "probability evaluation needs --threshold")
            verdict = eval_kb_prob(model, args.world, formula,
                                   _threshold(args.threshold))
    else:
        if not isinstance(model, ProbabilityModel):
            raise HighProbError(
                "probability-language formulas need a probability model")
        verdict = eval_l(model, args.world, formula)
    return verdict, {"verdict": verdict}, "true" if verdict else "false"


def cmd_check_model(args) -> tuple[bool, dict, str]:
    model = load_model(args.model)
    if isinstance(model, ProbabilityModel):
        raise HighProbError("check-model expects a neighborhood model")
    frame = model.frame
    reports = {"base": check_base_properties(model)}
    if args.mid_threshold:
        reports["mid-threshold"] = check_mid_threshold(
            model, m_max=args.m_max, cell_budget=args.cell_budget)
    if args.conjectured is not None:
        reports["conjectured"] = check_conjectured(
            model, _threshold(args.conjectured), m_max=args.m_max,
            cell_budget=args.cell_budget)
    ok = all(r.all_hold for r in reports.values())
    payload = {group: _report_payload(frame, rep)
               for group, rep in reports.items()}
    lines = []
    for group, rep in reports.items():
        for name, v in rep.verdicts:
            lines.append(f"{group}/{name}: "
                         + ("holds" if v.holds else "FAILS"))
    return ok, payload, "\n".join(lines)


def cmd_derive(args) -> tuple[bool, dict, str]:
    model = load_model(args.model)
    if not isinstance(model, ProbabilityModel):
        raise HighProbError("derive expects a probability model")
    derived = derive_neighborhoods(model, _threshold(args.threshold))
    doc = model_to_dict(derived)
    return True, doc, json.dumps(doc, sort_keys=True)


def cmd_synthesize(args) -> tuple[bool, dict, str]:
    model = load_model(args.model)
    if not isinstance(model, NeighborhoodModel):
        raise HighProbError("synthesize expects a neighborhood model")
    result = synthesize_measure(model, _threshold(args.threshold))
    if result.feasible:
        doc = model_to_dict(result.model)
        return (True, {"feasible": True, "model": doc},
                json.dumps(doc, sort_keys=True))
    payload: dict = {"feasible": False, "cell": result.failed_cell}
    lines = ["INFEASIBLE"]
    w = result.witness
    if w is not None:
        payload["witness"] = {"condition": result.condition,
                              **_witness_payload(model.frame, w)}
        if isinstance(w, ScottWitness):
            payload["witness"]["m"] = len(w.xs)
        lines.append(_witness_line(model.frame, result.condition, w))
    return False, payload, "\n".join(lines)


def cmd_agree(args) -> tuple[bool, dict, str]:
    nbhd = load_model(args.nbhd)
    prob = load_model(args.prob)
    if not isinstance(nbhd, NeighborhoodModel) \
            or not isinstance(prob, ProbabilityModel):
        raise HighProbError("agree expects --nbhd neighborhood and "
                            "--prob probability models")
    verdict = check_agreement(nbhd, prob, _threshold(args.threshold))
    if verdict.holds:
        return True, {"holds": True}, "Holds"
    world, x = verdict.witness
    names = nbhd.frame.names(x)
    return (False, {"holds": False, "witness": {"world": world, "set": names}},
            f"Fails at world {world} on set {{{', '.join(names)}}}")


def cmd_countermodel(args) -> tuple[bool, dict, str]:
    formula = parse_kb(args.formula)
    if args.prob:
        result = sample_prob_countermodel(
            formula, _threshold(args.threshold), args.trials,
            args.max_worlds, args.seed)
    else:
        result = find_nbhd_countermodel(formula, args.max_worlds,
                                        args.mid_threshold)
    if not result.found:
        return False, {"found": False, "bound": result.bound}, "NONE"
    doc = model_to_dict(result.model)
    return (True, {"found": True, "world": result.world, "model": doc},
            f"false at {result.world} in\n" + json.dumps(doc, sort_keys=True))


def cmd_prove(args) -> tuple[bool, dict, str]:
    derivation = parse_proof(_read_text(args.proof, "proof"))
    result = check_derivation(derivation, args.theory,
                              cl_oracle=args.cl_oracle)
    if result.accepted:
        return True, {"accepted": True}, "Accepted"
    return (False,
            {"accepted": False, "line": result.line, "reason": result.reason},
            f"RejectedAt line {result.line}: {result.reason}")


def _parse_statements(text: str, worlds) -> ComparativeRelation:
    worlds = tuple(worlds)

    def event(token: str) -> EventSet:
        names = [] if token == "-" else token.split(",")
        for nm in names:
            if nm not in worlds:
                raise HighProbError(f"unknown world {nm!r} in statement")
        return EventSet.of((worlds.index(nm) for nm in names), len(worlds))

    statements = []
    for raw in text.splitlines():
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 3 or parts[1] not in ("<", "<=", "="):
            raise HighProbError(f"malformed statement {raw!r}; expected "
                                "`x,y REL z` with REL one of < <= =")
        statements.append((event(parts[0]), parts[1], event(parts[2])))
    return ComparativeRelation(worlds, tuple(statements))


def cmd_comparative(args) -> tuple[bool, dict, str]:
    worlds = tuple(args.universe.split())
    if args.statements:
        rel = _parse_statements(
            _read_text(args.statements, "statements file"), worlds)
    else:
        rel = ComparativeRelation(worlds, ())
    result = realize_comparative(rel)
    if not result.feasible:
        return False, {"feasible": False}, "INFEASIBLE"
    assignment = {v: str(q) for v, q in result.assignment}
    payload = {"feasible": True, "measure": assignment}
    lines = ["Feasible: " + json.dumps(assignment, sort_keys=True)]
    if args.definetti:
        weights = [Fraction(dict(result.assignment)[f"p_{w}"])
                   for w in worlds]
        report = check_definetti(
            measure_order(weights, len(worlds)), len(worlds))
        payload["definetti"] = {name: v.holds for name, v in report.verdicts}
        for name, v in report.verdicts:
            lines.append(f"definetti/{name}: "
                         + ("holds" if v.holds else "FAILS"))
    return True, payload, "\n".join(lines)


# ---------------------------------------------------------------------------
# Demos

def _demo_walley_fine():
    model = corpus.walley_fine_model()
    xs, ys = corpus.walley_fine_witness()
    xs2, ys2 = corpus.walley_fine_scott2_witness()
    frame = model.frame
    base = check_base_properties(model)
    witness_ok = verify_scott_witness(model, 0, xs, ys)
    # the model already fails Scott's condition at m = 2, the smallest m
    # that can fail; its stored witness is replayed too
    scott2_ok = verify_scott_witness(model, 0, xs2, ys2)
    thresholds = [Fraction(1, 3), Fraction(1, 2), Fraction(3, 5),
                  Fraction(2, 3), Fraction(3, 4)]
    synth = {str(c): synthesize_measure(model, Threshold(c))
             for c in thresholds}
    x_counts = [sum(1 for x in xs if i in x) for i in range(frame.size)]
    y_counts = [sum(1 for y in ys if i in y) for i in range(frame.size)]
    payload = {
        "base_properties_hold": base.all_hold,
        "counting_violation": {
            "verified": witness_ok,
            "xs": [frame.names(x) for x in xs],
            "ys": [frame.names(y) for y in ys]},
        "smallest_counting_violation": {
            "m": len(xs2),
            "verified": scott2_ok,
            "xs": [frame.names(x) for x in xs2],
            "ys": [frame.names(y) for y in ys2]},
        "synthesis_feasible": {c: r.feasible for c, r in synth.items()},
        "synthesis_condition": {c: r.condition for c, r in synth.items()},
        "x_occurrences": x_counts,
        "y_occurrences": y_counts,
    }

    def show(sets):
        return " ".join("".join(frame.names(x)) for x in sets)

    lines = [
        f"base properties: {'all hold' if base.all_hold else 'FAIL'}",
        "counting violation (m = 7): "
        + ("verified" if witness_ok else "NOT VERIFIED"),
        "  X: " + show(xs),
        "  Y: " + show(ys),
        "  each world in "
        + f"{x_counts[0]} X-members and {y_counts[0]} Y-members",
        f"smallest counting violation (m = {len(xs2)}): "
        + ("verified" if scott2_ok else "NOT VERIFIED"),
        "  X: " + show(xs2),
        "  Y: " + show(ys2),
    ]
    for c, r in synth.items():
        lines.append(f"synthesize at c = {c}: " + (
            "Feasible" if r.feasible else "INFEASIBLE, "
            + (f"{r.condition} fails" if r.condition else "by the LP")))
    ok = (base.all_hold and witness_ok and scott2_ok
          and not any(r.feasible for r in synth.values()))
    return ok, payload, "\n".join(lines)


def _demo_kps():
    rel = corpus.kps_relation()
    result = realize_comparative(rel)
    leq = corpus.kps_definetti_extension()
    report = check_definetti(leq, len(corpus.KPS_WORLDS))
    # an extension of the relation also puts each right side strictly above
    oriented = all(not leq(y, x) for x, _, y in rel.statements)
    payload = {
        "statements": [f"{x} < {y}" for x, _, y in corpus.KPS_STATEMENTS],
        "realizable": result.feasible,
        "extension_conditions": {name: v.holds
                                 for name, v in report.verdicts},
    }
    lines = ["statements:"]
    lines += [f"  {{{','.join(x)}}} < {{{','.join(y)}}}"
              for x, _, y in corpus.KPS_STATEMENTS]
    lines.append("realizable: "
                 + ("Feasible" if result.feasible else "INFEASIBLE"))
    lines.append("a condition-satisfying total extension exists; "
                 "its five classical conditions: "
                 + ("all hold" if report.all_hold else "FAIL"))
    if not oriented:
        lines.append("the extension does not orient every statement: FAIL")
    ok = not result.feasible and report.all_hold and oriented
    return ok, payload, "\n".join(lines)


def _demo_horses():
    half = Threshold(Fraction(1, 2))
    m1 = corpus.horses_common_prior()
    m2 = corpus.horses_cut()
    m3 = corpus.horses_uniform()
    checks = [
        ("P_w1({w1,w3}) = 2/3 in the common-prior model",
         eval_l(m1, "w1", parse_l("P(h1 | h3) = 2/3"))),
        ("P_w1({w3}) = 0 after cutting the third world",
         eval_l(m2, "w1", parse_l("P(h3) = 0"))),
        ("uniform model believes some horse wins",
         eval_kb_prob(m3, "w1", parse_kb("B (h1 | h2 | h3)"), half)),
        ("uniform model believes each horse loses",
         eval_kb_prob(m3, "w1",
                      parse_kb("B ~h1 & B ~h2 & B ~h3"), half)),
        ("yet does not believe horses 1 and 2 both lose",
         eval_kb_prob(m3, "w1", parse_kb("~ B (~h1 & ~h2)"), half)),
    ]
    payload = {desc: ok for desc, ok in checks}
    lines = [f"{'ok  ' if ok else 'FAIL'} {desc}" for desc, ok in checks]
    return all(ok for _, ok in checks), payload, "\n".join(lines)


_DEMOS = {"walley-fine": _demo_walley_fine, "kps": _demo_kps,
          "horses": _demo_horses}


# ---------------------------------------------------------------------------
# Entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="highprob",
        description="exact model checking and measure synthesis for "
                    "modal logics of high probability")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS,
                        help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: argparse.ArgumentParser(
                                    parents=[common], **kw))

    p = sub.add_parser("eval", help="evaluate a formula at a world")
    p.add_argument("--model", required=True)
    p.add_argument("--world", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--threshold")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("check-model",
                       help="verify neighborhood-system properties")
    p.add_argument("--model", required=True)
    p.add_argument("--mid-threshold", action="store_true")
    p.add_argument("--conjectured", metavar="C")
    p.add_argument("--m-max", type=int, default=DEFAULT_M_MAX,
                   help="longest list the counting searches try "
                        "(default %(default)s)")
    p.add_argument("--cell-budget", type=int, default=DEFAULT_CELL_BUDGET,
                   help="most worlds in a cell the counting searches "
                        "accept (default %(default)s)")
    p.set_defaults(func=cmd_check_model)

    p = sub.add_parser("derive",
                       help="neighborhood system induced by a measure")
    p.add_argument("--model", required=True)
    p.add_argument("--threshold", required=True)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("synthesize",
                       help="find an agreeing measure or INFEASIBLE")
    p.add_argument("--model", required=True)
    p.add_argument("--threshold", required=True)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("agree", help="test model agreement")
    p.add_argument("--nbhd", required=True)
    p.add_argument("--prob", required=True)
    p.add_argument("--threshold", required=True)
    p.set_defaults(func=cmd_agree)

    p = sub.add_parser("countermodel", help="search for a falsifying model")
    p.add_argument("--formula", required=True)
    p.add_argument("--max-worlds", type=int, default=3)
    p.add_argument("--mid-threshold", action="store_true")
    p.add_argument("--prob", action="store_true",
                   help="random search over probability models")
    p.add_argument("--threshold", default="1/2")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_countermodel)

    p = sub.add_parser("prove", help="check a derivation file")
    p.add_argument("--theory", required=True,
                   choices=("kb", "kb-half", "kb-half-minus"))
    p.add_argument("--proof", required=True)
    p.add_argument("--cl-oracle", action="store_true",
                   help="allow truth-table justification of classical lines")
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("comparative",
                       help="realize a comparative-probability relation")
    p.add_argument("--universe", required=True,
                   help="space-separated world names")
    p.add_argument("--statements",
                   help="file of lines `x,y REL z` with REL in {<, <=, =}")
    p.add_argument("--definetti", action="store_true",
                   help="also check the five classical conditions on the "
                        "witness measure's induced order")
    p.set_defaults(func=cmd_comparative)

    p = sub.add_parser("demo", help="run a built-in scenario")
    p.add_argument("scenario", choices=_DEMOS)
    p.set_defaults(func=lambda args: _DEMOS[args.scenario]())

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        ok, payload, text = args.func(args)
    except (HighProbError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: formula nested too deep", file=sys.stderr)
        return 2
    print(json.dumps(payload, sort_keys=True, separators=(",", ":"))
          if args.json else text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
