"""Hilbert-style proof checking for the knowledge-belief calculi.

The base theory pairs classical logic and S5 knowledge with five
knowledge-belief bridge schemes; the mid-threshold theory adds belief
consistency, strong commitment, and the counting-transfer family; the
reduced variant drops the two schemes that the added ones make redundant.
Axiom lines are verified by first-order structural matching against scheme
templates, derivations line by line against the two rules (detachment and
knowledge necessitation).

Classical lines are matched against a fixed finite basis:

    a1      phi -> (psi -> phi)
    a2      (phi -> (psi -> chi)) -> ((phi -> psi) -> (phi -> chi))
    a3      (~phi -> ~psi) -> (psi -> phi)
    and-i   phi -> (psi -> (phi & psi))
    and-e1  (phi & psi) -> phi
    and-e2  (phi & psi) -> psi
    top     true

A truth-table tautology test over a line's modal leaves is available
behind an explicit flag for shorter proofs; it is not part of the
matching core.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product

from .errors import ProofFormatError
from .formula import (
    And,
    Atom,
    B,
    Formula,
    K,
    Not,
    TOP,
    Top,
    b_dual,
    implies,
    k_dual,
    or_,
    parse_kb,
    scott_instance,
)

TAUT_LEAF_BUDGET = 12


# ---------------------------------------------------------------------------
# Templates and matching

@dataclass(frozen=True)
class Meta(Formula):
    """Metavariable leaf, used only inside scheme templates."""

    name: str


def match_template(template: Formula, formula: Formula,
                   subst: dict | None = None) -> dict | None:
    """Most general substitution making the template equal the formula,
    or None.  Matching is purely structural on desugared ASTs."""
    if subst is None:
        subst = {}
    if isinstance(template, Meta):
        bound = subst.get(template.name)
        if bound is None:
            subst[template.name] = formula
            return subst
        return subst if bound == formula else None
    if isinstance(template, Top):
        return subst if isinstance(formula, Top) else None
    if isinstance(template, Atom):
        return subst if template == formula else None
    if isinstance(template, Not) and isinstance(formula, Not):
        return match_template(template.sub, formula.sub, subst)
    if isinstance(template, K) and isinstance(formula, K):
        return match_template(template.sub, formula.sub, subst)
    if isinstance(template, B) and isinstance(formula, B):
        return match_template(template.sub, formula.sub, subst)
    if isinstance(template, And) and isinstance(formula, And):
        subst = match_template(template.left, formula.left, subst)
        if subst is None:
            return None
        return match_template(template.right, formula.right, subst)
    return None


def apply_substitution(template: Formula, subst: dict) -> Formula:
    if isinstance(template, Meta):
        return subst[template.name]
    if isinstance(template, (Top, Atom)):
        return template
    if isinstance(template, Not):
        return Not(apply_substitution(template.sub, subst))
    if isinstance(template, K):
        return K(apply_substitution(template.sub, subst))
    if isinstance(template, B):
        return B(apply_substitution(template.sub, subst))
    return And(apply_substitution(template.left, subst),
               apply_substitution(template.right, subst))


_P, _Q, _R = Meta("phi"), Meta("psi"), Meta("chi")

CL_BASIS: tuple[tuple[str, Formula], ...] = (
    ("a1", implies(_P, implies(_Q, _P))),
    ("a2", implies(implies(_P, implies(_Q, _R)),
                   implies(implies(_P, _Q), implies(_P, _R)))),
    ("a3", implies(implies(Not(_P), Not(_Q)), implies(_Q, _P))),
    ("and-i", implies(_P, implies(_Q, And(_P, _Q)))),
    ("and-e1", implies(And(_P, _Q), _P)),
    ("and-e2", implies(And(_P, _Q), _Q)),
    ("top", TOP),
)

SCHEME_TEMPLATES: dict[str, Formula] = {
    "KS5_K": implies(K(implies(_P, _Q)), implies(K(_P), K(_Q))),
    "KS5_T": implies(K(_P), _P),
    "KS5_4": implies(K(_P), K(K(_P))),
    "KS5_5": implies(Not(K(_P)), K(Not(K(_P)))),
    "BF": Not(B(Not(TOP))),
    "N": B(TOP),
    "Ap": implies(B(_P), K(B(_P))),
    "An": implies(Not(B(_P)), K(Not(B(_P)))),
    "KBM": implies(K(implies(_P, _Q)), implies(B(_P), B(_Q))),
    "D": implies(B(_P), b_dual(_P)),
    "SC": implies(And(b_dual(_P), k_dual(And(Not(_P), _Q))),
                  B(or_(_P, _Q))),
}

_SCOTT_RE = re.compile(r"Scott(\d+)$")


def scott_template(m: int) -> Formula:
    phis = [Meta(f"phi{i + 1}") for i in range(m)]
    psis = [Meta(f"psi{i + 1}") for i in range(m)]
    return scott_instance(phis, psis)


def scheme_template(scheme: str) -> Formula | None:
    if scheme in SCHEME_TEMPLATES:
        return SCHEME_TEMPLATES[scheme]
    hit = _SCOTT_RE.match(scheme)
    if hit:
        m = int(hit.group(1))
        if m < 1:
            return None
        return scott_template(m)
    return None


def match_axiom(formula: Formula, scheme: str) -> dict | None:
    """Substitution witnessing the formula as a scheme instance, or None.

    For classical lines the basis templates are tried in their listed
    order and the first match wins.
    """
    if scheme == "CL":
        for _, template in CL_BASIS:
            subst = match_template(template, formula)
            if subst is not None:
                return subst
        return None
    template = scheme_template(scheme)
    if template is None:
        return None
    return match_template(template, formula)


# ---------------------------------------------------------------------------
# Tautology oracle

def modal_leaves(formula: Formula) -> tuple[Formula, ...]:
    """Maximal subformulas opaque to propositional reasoning: atoms and
    modal formulas."""
    out: list[Formula] = []

    def walk(f: Formula):
        if isinstance(f, (Atom, K, B)):
            if f not in out:
                out.append(f)
        elif isinstance(f, Not):
            walk(f.sub)
        elif isinstance(f, And):
            walk(f.left)
            walk(f.right)

    walk(formula)
    return tuple(out)


def is_tautology(formula: Formula,
                 leaf_budget: int = TAUT_LEAF_BUDGET) -> bool:
    """Truth-table check treating modal subformulas as opaque letters."""
    leaves = modal_leaves(formula)
    if len(leaves) > leaf_budget:
        return False

    def ev(f: Formula, row: dict) -> bool:
        if isinstance(f, Top):
            return True
        if isinstance(f, (Atom, K, B)):
            return row[f]
        if isinstance(f, Not):
            return not ev(f.sub, row)
        return ev(f.left, row) and ev(f.right, row)

    for bits in product((False, True), repeat=len(leaves)):
        if not ev(formula, dict(zip(leaves, bits))):
            return False
    return True


# ---------------------------------------------------------------------------
# Theories and derivations

THEORIES: dict[str, frozenset[str]] = {
    "kb": frozenset({"CL", "KS5_K", "KS5_T", "KS5_4", "KS5_5",
                     "BF", "N", "Ap", "An", "KBM"}),
    "kb-half": frozenset({"CL", "KS5_K", "KS5_T", "KS5_4", "KS5_5",
                          "BF", "N", "Ap", "An", "KBM",
                          "D", "SC", "Scott"}),
    "kb-half-minus": frozenset({"CL", "KS5_K", "KS5_T", "KS5_4", "KS5_5",
                                "N", "Ap", "An", "D", "SC", "Scott"}),
}


def _scheme_in_theory(scheme: str, theory: frozenset[str]) -> bool:
    if _SCOTT_RE.match(scheme):
        return "Scott" in theory
    return scheme in theory


@dataclass(frozen=True)
class Justification:
    rule: str  # "AX" | "MP" | "MN"
    scheme: str | None = None
    subst: tuple[tuple[str, Formula], ...] | None = None
    premises: tuple[int, ...] = ()


@dataclass(frozen=True)
class Derivation:
    lines: tuple[tuple[Formula, Justification], ...]

    def conclusion(self) -> Formula:
        return self.lines[-1][0]


@dataclass(frozen=True)
class CheckResult:
    accepted: bool
    line: int | None = None
    reason: str | None = None


def check_derivation(derivation: Derivation, theory: str,
                     cl_oracle: bool = False) -> CheckResult:
    """Verify each line against the named theory.

    Axiom lines must match a scheme the theory contains; detachment needs
    an earlier line that is structurally the implication from the other
    premise to the current line; necessitation needs the current line to
    be K of an earlier line.  With the oracle flag, classical axiom lines
    may instead pass a truth-table tautology test over their modal leaves.
    """
    if theory not in THEORIES:
        raise ValueError(f"unknown theory {theory!r}")
    schemes = THEORIES[theory]
    lines = derivation.lines
    for no, (formula, just) in enumerate(lines, start=1):
        if just.rule == "AX":
            if just.scheme is None or not _scheme_in_theory(just.scheme,
                                                            schemes):
                return CheckResult(False, no,
                                   f"scheme {just.scheme} not in {theory}")
            if just.subst is not None and just.scheme != "CL":
                template = scheme_template(just.scheme)
                if template is None or \
                        apply_substitution(template,
                                           dict(just.subst)) != formula:
                    return CheckResult(False, no,
                                       "substitution does not produce line")
                continue
            if match_axiom(formula, just.scheme) is not None:
                continue
            if just.scheme == "CL" and cl_oracle and is_tautology(formula):
                continue
            return CheckResult(False, no,
                               f"not an instance of {just.scheme}")
        elif just.rule == "MP":
            i, j = just.premises
            if not (1 <= i < no and 1 <= j < no):
                return CheckResult(False, no, "premise index out of range")
            minor, major = lines[i - 1][0], lines[j - 1][0]
            if major != implies(minor, formula):
                return CheckResult(False, no,
                                   "major premise is not minor -> line")
        elif just.rule == "MN":
            (i,) = just.premises
            if not 1 <= i < no:
                return CheckResult(False, no, "premise index out of range")
            if formula != K(lines[i - 1][0]):
                return CheckResult(False, no, "line is not K of premise")
        else:
            return CheckResult(False, no, f"unknown rule {just.rule}")
    return CheckResult(True)


# ---------------------------------------------------------------------------
# Proof file format

_LINE_RE = re.compile(
    r"^\s*(\d+)\.\s*(.*?)\s*;\s*(AX|MP|MN)\b\s*(.*?)\s*$")
_SUBST_RE = re.compile(r"^\{(.*)\}$", re.S)


def _parse_subst(text: str):
    body = _SUBST_RE.match(text)
    if body is None:
        raise ProofFormatError(f"malformed substitution {text!r}")
    inner = body.group(1).strip()
    if not inner:
        return ()
    pairs = []
    depth = 0
    start = 0
    chunks = []
    for i, ch in enumerate(inner):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            chunks.append(inner[start:i])
            start = i + 1
    chunks.append(inner[start:])
    for chunk in chunks:
        if ":=" not in chunk:
            raise ProofFormatError(f"malformed binding {chunk!r}")
        name, body_text = chunk.split(":=", 1)
        pairs.append((name.strip(), parse_kb(body_text.strip())))
    return tuple(pairs)


def parse_proof(text: str) -> Derivation:
    """One step per line: `n. <formula> ; AX <scheme> [{x := f, ...}]`,
    `n. <formula> ; MP i j`, or `n. <formula> ; MN i`.  Blank lines and
    `#` comments are skipped; line numbers must count up from 1."""
    lines = []
    expected = 1
    for raw in text.splitlines():
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        hit = _LINE_RE.match(raw)
        if not hit:
            raise ProofFormatError(f"malformed proof line: {raw!r}")
        no, formula_text, rule, rest = hit.groups()
        if int(no) != expected:
            raise ProofFormatError(
                f"expected line number {expected}, found {no}")
        expected += 1
        formula = parse_kb(formula_text)
        if rule == "AX":
            parts = rest.split(None, 1)
            if not parts:
                raise ProofFormatError(f"AX without scheme: {raw!r}")
            scheme = parts[0]
            subst = _parse_subst(parts[1]) if len(parts) > 1 else None
            just = Justification("AX", scheme=scheme, subst=subst)
        elif rule == "MP":
            try:
                i, j = (int(t) for t in rest.split())
            except ValueError as exc:
                raise ProofFormatError(f"MP needs two indices: {raw!r}") \
                    from exc
            just = Justification("MP", premises=(i, j))
        else:
            try:
                (i,) = (int(t) for t in rest.split())
            except ValueError as exc:
                raise ProofFormatError(f"MN needs one index: {raw!r}") \
                    from exc
            just = Justification("MN", premises=(i,))
        lines.append((formula, just))
    if not lines:
        raise ProofFormatError("empty proof")
    return Derivation(tuple(lines))
