"""The object language: knowledge, belief and linear probability formulas.

One AST serves both languages.  Its primitive nodes are
``Top | Atom | Not | And | K | B | GeqZero``; every other connective
(including falsehood, disjunction, implication, biconditional, the dual
modalities and the term comparisons) is sugar expanded at construction
time.  The modal language uses ``K`` and ``B``; the linear probability
language uses ``t >= 0`` over rational-linear terms in ``P(phi)``
expressions instead.  One parser reads both, with ``parse_kb`` and
``parse_l`` as its two entry points, and one printer writes both.

Also here: the threshold translation from the modal language into the
probability language, the counting-notation expansion, and construction of
instances of the counting-transfer axiom scheme.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction

from .core import exact
from .errors import ExpansionTooLarge, FormulaSyntaxError

# ---------------------------------------------------------------------------
# Formulas


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class Top(Formula):
    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class K(Formula):
    sub: Formula


@dataclass(frozen=True)
class B(Formula):
    sub: Formula


@dataclass(frozen=True)
class GeqZero(Formula):
    """t >= 0, the only primitive comparison."""
    term: TermL


class TermL:
    __slots__ = ()


@dataclass(frozen=True)
class Const(TermL):
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", exact(self.value))


@dataclass(frozen=True)
class Scaled(TermL):
    """q * P(phi)."""
    coeff: Fraction
    sub: Formula

    def __post_init__(self):
        object.__setattr__(self, "coeff", exact(self.coeff))


@dataclass(frozen=True)
class TSum(TermL):
    left: TermL
    right: TermL


TOP = Top()


def bot() -> Formula:
    return Not(TOP)


def or_(left: Formula, right: Formula) -> Formula:
    return Not(And(Not(left), Not(right)))


def implies(left: Formula, right: Formula) -> Formula:
    return Not(And(left, Not(right)))


def iff(left: Formula, right: Formula) -> Formula:
    return And(implies(left, right), implies(right, left))


def k_dual(sub: Formula) -> Formula:
    return Not(K(Not(sub)))


def b_dual(sub: Formula) -> Formula:
    return Not(B(Not(sub)))


def conj(formulas) -> Formula:
    """Left-nested conjunction; Top for the empty list."""
    formulas = list(formulas)
    if not formulas:
        return TOP
    out = formulas[0]
    for f in formulas[1:]:
        out = And(out, f)
    return out


def disj(formulas) -> Formula:
    """Left-nested disjunction; Bot for the empty list."""
    formulas = list(formulas)
    if not formulas:
        return bot()
    out = formulas[0]
    for f in formulas[1:]:
        out = or_(out, f)
    return out


def atoms_of(formula: Formula) -> frozenset[str]:
    if isinstance(formula, Atom):
        return frozenset({formula.name})
    if isinstance(formula, (Not, K, B)):
        return atoms_of(formula.sub)
    if isinstance(formula, And):
        return atoms_of(formula.left) | atoms_of(formula.right)
    return frozenset()


# ---------------------------------------------------------------------------
# Term comparisons


def _neg_term(term: TermL) -> TermL:
    if isinstance(term, Const):
        return Const(-term.value)
    if isinstance(term, Scaled):
        return Scaled(-term.coeff, term.sub)
    return TSum(_neg_term(term.left), _neg_term(term.right))


def l_ge(left: TermL, right: TermL) -> Formula:
    """t >= s, expanded onto the primitive comparison."""
    if right == Const(Fraction(0)):
        return GeqZero(left)
    return GeqZero(TSum(left, _neg_term(right)))


def l_le(left: TermL, right: TermL) -> Formula:
    return l_ge(right, left)


def l_gt(left: TermL, right: TermL) -> Formula:
    return Not(l_ge(right, left))


def l_lt(left: TermL, right: TermL) -> Formula:
    return Not(l_ge(left, right))


def l_eq(left: TermL, right: TermL) -> Formula:
    return And(l_ge(left, right), l_ge(right, left))


def prob(sub: Formula, coeff=Fraction(1)) -> TermL:
    return Scaled(coeff, sub)


# ---------------------------------------------------------------------------
# Threshold translation


@dataclass(frozen=True)
class Threshold:
    value: Fraction

    def __post_init__(self):
        v = exact(self.value)
        object.__setattr__(self, "value", v)
        if not 0 < v < 1:
            raise ValueError("threshold must lie strictly between 0 and 1")


def translate(formula: Formula, c: Threshold) -> Formula:
    """Structural translation: K maps to P(.)=1 and B to P(.)>c; every
    other node is kept."""
    if isinstance(formula, K):
        return l_eq(prob(translate(formula.sub, c)), Const(Fraction(1)))
    if isinstance(formula, B):
        return l_gt(prob(translate(formula.sub, c)), Const(c.value))
    if isinstance(formula, Not):
        return Not(translate(formula.sub, c))
    if isinstance(formula, And):
        return And(translate(formula.left, c), translate(formula.right, c))
    return formula


# ---------------------------------------------------------------------------
# Counting notation and the counting-transfer scheme

DEFAULT_EXPANSION_GUARD = 4


def _counting_disjunct(phis, psis, i):
    """F_i: exactly i phis true, at least i psis true.

    Conjunctions are enumerated deterministically: the sign patterns for the
    phi block come first (by increasing set of un-negated positions, in
    lexicographic order), then the psi block patterns.
    """
    m = len(phis)
    disjuncts = []
    for pos_d in itertools.combinations(range(m), i):
        for j in range(i, m + 1):
            for pos_e in itertools.combinations(range(m), j):
                lits = []
                for k in range(m):
                    lits.append(phis[k] if k in pos_d else Not(phis[k]))
                for k in range(m):
                    lits.append(psis[k] if k in pos_e else Not(psis[k]))
                disjuncts.append(conj(lits))
    return disjuncts


def segerberg_expand(phis, psis, mode: str = "I") -> Formula:
    """Expand the counting notation into a plain modal formula.

    Mode ``I``: K(F_0 | ... | F_m) saying every accessible world satisfies
    at least as many psis as phis.  Mode ``E``: the conjunction of the two
    ``I`` directions.  The expansion is exponential in m, so m above
    DEFAULT_EXPANSION_GUARD raises ExpansionTooLarge; past it, use the
    direct semantic evaluator instead.
    """
    phis, psis = list(phis), list(psis)
    m = len(phis)
    if m != len(psis) or m < 1:
        raise ValueError("need equally many phis and psis, at least one each")
    if m > DEFAULT_EXPANSION_GUARD:
        raise ExpansionTooLarge(
            f"m={m} exceeds expansion guard {DEFAULT_EXPANSION_GUARD}")
    if mode == "E":
        return And(segerberg_expand(phis, psis, "I"),
                   segerberg_expand(psis, phis, "I"))
    if mode != "I":
        raise ValueError(f"unknown mode {mode!r}")
    disjuncts = []
    for i in range(m + 1):
        disjuncts.extend(_counting_disjunct(phis, psis, i))
    return K(disj(disjuncts))


def scott_instance(phis, psis) -> Formula:
    """[(phi_i I psi_i) & B phi_1 & AND_{i>=2} ~B~phi_i] -> OR_i B psi_i.

    For m = 1 the dual-belief conjunct block is empty and is omitted.
    """
    phis, psis = list(phis), list(psis)
    m = len(phis)
    if m != len(psis) or m < 1:
        raise ValueError("need equally many phis and psis, at least one each")
    antecedent = [segerberg_expand(phis, psis, "I"), B(phis[0])]
    antecedent.extend(b_dual(phi) for phi in phis[1:])
    return implies(conj(antecedent), disj([B(psi) for psi in psis]))


# ---------------------------------------------------------------------------
# Lexer and parser

_TOKEN_SPECS = [
    ("IFF", r"<->"),
    ("IMPL", r"->"),
    ("KDUAL", r"<K>"),
    ("BDUAL", r"<B>"),
    ("LE", r"<="),
    ("GE", r">="),
    ("LT", r"<"),
    ("GT", r">"),
    ("EQ", r"="),
    ("RAT", r"-?\d+(?:/\d+)?"),
    ("PLUS", r"\+"),
    ("STAR", r"\*"),
    ("NOT", r"~"),
    ("AND", r"&"),
    ("OR", r"\|"),
    ("LPAREN", r"\("),
    ("RPAREN", r"\)"),
    ("K", r"K"),
    ("B", r"B"),
    ("P", r"P"),
    ("IDENT", r"[a-z][a-zA-Z0-9_]*"),
    ("WS", r"\s+"),
]
_TOKEN_RE = re.compile("|".join(f"(?P<{n}>{p})" for n, p in _TOKEN_SPECS))


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    offset: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}",
                                     pos)
        kind = m.lastgroup
        if kind != "WS":
            tok = m.group()
            if kind == "IDENT" and tok in ("true", "false"):
                kind = tok.upper()
            tokens.append(_Token(kind, tok, pos))
        pos = m.end()
    tokens.append(_Token("EOF", "", len(text)))
    return tokens


class _Parser:
    """Both languages share the Boolean layer.  Precedence: ~ (and K, B
    and their duals in the modal language) binds tightest; then &; then |;
    then ->, <-> (right-associative, one level).  The probability language
    has term comparisons at the primary level instead of modalities."""

    def __init__(self, text: str, modal: bool):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.modal = modal

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise FormulaSyntaxError(
                f"expected {kind}, found {tok.text or 'end of input'}",
                tok.offset, expected={kind})
        return self.advance()

    def fail(self, expected):
        tok = self.peek()
        raise FormulaSyntaxError(
            f"unexpected {tok.text or 'end of input'}", tok.offset,
            expected=set(expected))

    def parse(self) -> Formula:
        out = self.formula()
        if self.peek().kind != "EOF":
            self.fail({"EOF"})
        return out

    def formula(self) -> Formula:
        left = self.or_()
        kind = self.peek().kind
        if kind == "IMPL":
            self.advance()
            return implies(left, self.formula())
        if kind == "IFF":
            self.advance()
            return iff(left, self.formula())
        return left

    def or_(self) -> Formula:
        out = self.and_()
        while self.peek().kind == "OR":
            self.advance()
            out = or_(out, self.and_())
        return out

    def and_(self) -> Formula:
        out = self.unary()
        while self.peek().kind == "AND":
            self.advance()
            out = And(out, self.unary())
        return out

    def unary(self) -> Formula:
        kind = self.peek().kind
        if kind == "NOT":
            self.advance()
            return Not(self.unary())
        if self.modal and kind in _MODAL_OPS:
            self.advance()
            return _MODAL_OPS[kind](self.unary())
        return self.primary()

    def primary(self) -> Formula:
        tok = self.peek()
        if not self.modal and tok.kind in ("RAT", "P"):
            return self.comparison()
        if tok.kind == "TRUE":
            self.advance()
            return TOP
        if tok.kind == "FALSE":
            self.advance()
            return bot()
        if tok.kind == "IDENT":
            self.advance()
            return Atom(tok.text)
        if tok.kind == "LPAREN":
            self.advance()
            out = self.formula()
            self.expect("RPAREN")
            return out
        self.fail({"TRUE", "FALSE", "IDENT", "LPAREN", "NOT"}
                  | ({"K", "B"} if self.modal else {"RAT", "P"}))

    def comparison(self) -> Formula:
        left = self.term()
        tok = self.peek()
        ops = {"GE": l_ge, "LE": l_le, "GT": l_gt, "LT": l_lt, "EQ": l_eq}
        if tok.kind not in ops:
            self.fail(set(ops))
        self.advance()
        right = self.term()
        return ops[tok.kind](left, right)

    def term(self) -> TermL:
        out = self.factor()
        while self.peek().kind == "PLUS":
            self.advance()
            out = TSum(out, self.factor())
        return out

    def factor(self) -> TermL:
        tok = self.peek()
        if tok.kind == "RAT":
            self.advance()
            q = Fraction(tok.text)
            if self.peek().kind == "STAR":
                self.advance()
                return Scaled(q, self.prob_app())
            return Const(q)
        if tok.kind == "P":
            return Scaled(Fraction(1), self.prob_app())
        self.fail({"RAT", "P"})

    def prob_app(self) -> Formula:
        self.expect("P")
        self.expect("LPAREN")
        out = self.formula()
        self.expect("RPAREN")
        return out


_MODAL_OPS = {"K": K, "B": B, "KDUAL": k_dual, "BDUAL": b_dual}


def parse_kb(text: str) -> Formula:
    """Parse the modal language: K, B and their duals, no P(.)."""
    return _Parser(text, modal=True).parse()


def parse_l(text: str) -> Formula:
    """Parse the probability language: P(.) comparisons, no K or B."""
    return _Parser(text, modal=False).parse()


# ---------------------------------------------------------------------------
# Printers (parse . print is the identity on ASTs)

_PREC_IMPL, _PREC_OR, _PREC_AND, _PREC_UNARY = 0, 1, 2, 3


def _wrap(text: str, prec: int, context: int) -> str:
    return f"({text})" if prec < context else text


def print_kb(formula: Formula, _context: int = 0) -> str:
    """Text that the parser of the formula's language reads back as the
    same AST; serves both languages."""
    if isinstance(formula, Top):
        return "true"
    if isinstance(formula, Atom):
        return formula.name
    if isinstance(formula, Not):
        return "~" + print_kb(formula.sub, _PREC_UNARY)
    if isinstance(formula, K):
        return "K " + print_kb(formula.sub, _PREC_UNARY)
    if isinstance(formula, B):
        return "B " + print_kb(formula.sub, _PREC_UNARY)
    if isinstance(formula, And):
        text = (print_kb(formula.left, _PREC_AND) + " & "
                + print_kb(formula.right, _PREC_UNARY))
        return _wrap(text, _PREC_AND, _context)
    if isinstance(formula, GeqZero):
        return _wrap(f"{print_term(formula.term)} >= 0", _PREC_AND, _context)
    raise TypeError(f"not a formula: {formula!r}")


print_l = print_kb


def print_term(term: TermL) -> str:
    if isinstance(term, Const):
        return str(term.value)
    if isinstance(term, Scaled):
        return f"{term.coeff}*P({print_kb(term.sub)})"
    return f"{print_term(term.left)} + {print_term(term.right)}"
