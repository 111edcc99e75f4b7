from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from highprob.errors import ExpansionTooLarge, FormulaSyntaxError
from highprob.formula import (
    DEFAULT_EXPANSION_GUARD,
    TOP,
    And,
    Atom,
    B,
    Const,
    GeqZero,
    K,
    Not,
    Scaled,
    Threshold,
    TSum,
    atoms_of,
    b_dual,
    bot,
    conj,
    disj,
    implies,
    l_eq,
    l_gt,
    or_,
    parse_kb,
    parse_l,
    print_kb,
    print_l,
    prob,
    scott_instance,
    segerberg_expand,
    translate,
)

p, q, r = Atom("p"), Atom("q"), Atom("r")
HALF = Threshold(Fraction(1, 2))


class TestConstruction:
    def test_sugar_desugars_at_build_time(self):
        assert implies(p, q) == Not(And(p, Not(q)))
        assert or_(p, q) == Not(And(Not(p), Not(q)))
        assert bot() == Not(TOP)
        assert b_dual(p) == Not(B(Not(p)))

    def test_conj_disj(self):
        assert conj([]) == TOP
        assert conj([p]) == p
        assert conj([p, q, r]) == And(And(p, q), r)
        assert disj([]) == bot()
        assert disj([p, q]) == or_(p, q)

    def test_atoms_of(self):
        assert atoms_of(implies(K(p), B(And(q, p)))) == frozenset({"p", "q"})
        assert atoms_of(TOP) == frozenset()

    def test_exact_terms_only(self):
        # prob(p, 0.1) would weigh P(p) by 3602879701896397/2**55
        for inexact in (0.1, True):
            for build in (Const, lambda v: Scaled(v, p),
                          lambda v: prob(p, v)):
                with pytest.raises(TypeError, match=repr(inexact)):
                    build(inexact)
        for value in (Fraction(1, 10), "1/10"):
            assert Const(value).value == prob(p, value).coeff \
                == Fraction(1, 10)
        assert Const(2).value == 2


class TestThreshold:
    def test_bounds(self):
        Threshold(Fraction(1, 2))
        Threshold(Fraction(99, 100))
        for bad in (0, 1, Fraction(3, 2), Fraction(-1, 4)):
            with pytest.raises(ValueError):
                Threshold(Fraction(bad))

    def test_exact_values_only(self):
        # 0.6 would become 5404319552844595/9007199254740992
        for inexact in (0.6, 0.5, True):
            with pytest.raises(TypeError, match=repr(inexact)):
                Threshold(inexact)
        for value in (Fraction(3, 5), "3/5"):
            assert Threshold(value).value == Fraction(3, 5)


class TestParsing:
    def test_precedence(self):
        assert parse_kb("~p & q") == And(Not(p), q)
        assert parse_kb("p | q & r") == or_(p, And(q, r))
        assert parse_kb("p -> q -> r") == implies(p, implies(q, r))
        assert parse_kb("K p & q") == And(K(p), q)
        assert parse_kb("B (p | q)") == B(or_(p, q))

    def test_dual_operators(self):
        assert parse_kb("<B> p") == Not(B(Not(p)))
        assert parse_kb("<K> p") == Not(K(Not(p)))

    def test_constants(self):
        assert parse_kb("true") == TOP
        assert parse_kb("false") == bot()

    def test_syntax_errors_carry_position(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_kb("p & & q")
        assert err.value.offset == 4
        assert err.value.expected
        with pytest.raises(FormulaSyntaxError):
            parse_kb("p q")
        with pytest.raises(FormulaSyntaxError):
            parse_kb("")

    def test_language_boundaries(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_kb("P(p) > 1/2")
        assert err.value.offset == 0
        assert err.value.expected == {"TRUE", "FALSE", "IDENT", "LPAREN",
                                      "NOT", "K", "B"}
        with pytest.raises(FormulaSyntaxError) as err:
            parse_l("K p")
        assert err.value.offset == 0
        assert err.value.expected == {"TRUE", "FALSE", "IDENT", "LPAREN",
                                      "NOT", "RAT", "P"}

    def test_parse_l(self):
        assert parse_l("P(p & q) > 1/3") == l_gt(
            prob(And(Atom("p"), Atom("q"))), Const(Fraction(1, 3)))
        got = parse_l("P(p) >= 1/2 & ~(P(q) < 1)")
        assert parse_l(print_l(got)) == got


KB_LEAVES = st.sampled_from([p, q, r, Atom("h12"), TOP])


def kb_formulas():
    return st.recursive(
        KB_LEAVES,
        lambda sub: st.one_of(
            sub.map(Not), sub.map(K), sub.map(B),
            st.tuples(sub, sub).map(lambda ab: And(*ab))),
        max_leaves=25)


RATS = st.tuples(st.integers(-40, 40), st.integers(1, 12)).map(
    lambda t: Fraction(*t))


def l_formulas(depth=2):
    atom = st.one_of(
        st.just(TOP),
        st.sampled_from(["p", "q", "r"]).map(Atom),
        l_terms(depth - 1).map(GeqZero) if depth > 0 else st.just(TOP))
    return st.recursive(
        atom,
        lambda sub: st.one_of(
            sub.map(Not),
            st.tuples(sub, sub).map(lambda ab: And(*ab))),
        max_leaves=8)


def l_terms(depth):
    base = st.one_of(
        RATS.map(Const),
        st.tuples(RATS.filter(bool), l_formulas(depth)).map(
            lambda t: prob(t[1], t[0])))
    # sums associate to the left in the grammar, so only build that shape
    def fold(parts):
        out = parts[0]
        for part in parts[1:]:
            out = TSum(out, part)
        return out

    return st.lists(base, min_size=1, max_size=4).map(fold)


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(kb_formulas())
    def test_kb_print_parse_identity(self, f):
        assert parse_kb(print_kb(f)) == f

    @settings(max_examples=200, deadline=None)
    @given(l_formulas())
    def test_l_print_parse_identity(self, f):
        assert parse_l(print_l(f)) == f


class TestTranslation:
    def test_knowledge_is_certainty(self):
        assert translate(K(p), HALF) == l_eq(prob(Atom("p")), Const(1))
        assert translate(B(p), HALF) == l_gt(prob(Atom("p")),
                                             Const(Fraction(1, 2)))

    def test_compositional(self):
        t = translate(And(Not(K(p)), B(q)), Threshold(Fraction(2, 3)))
        assert isinstance(t, And)
        assert isinstance(t.left, Not)

    def test_nesting_translates_inner_first(self):
        inner = translate(B(p), HALF)
        assert translate(K(B(p)), HALF) == l_eq(prob(inner), Const(1))


class TestCountingExpansion:
    def test_exact_mode_m2_width(self):
        from highprob.formula import _counting_disjunct
        d1 = _counting_disjunct([p, q], [p, q], 1)
        assert len(d1) == 6  # 2 "exactly one phi" patterns x 3 psi patterns

    def test_m1_shape(self):
        got = segerberg_expand([p], [q], "I")
        assert isinstance(got, K)
        # F_0 allows either psi value (2 disjuncts), F_1 forces psi (1)
        assert got == K(disj([And(Not(p), Not(q)), And(Not(p), q),
                              And(p, q)]))

    def test_e_mode_is_both_directions(self):
        assert segerberg_expand([p], [q], "E") == And(
            segerberg_expand([p], [q], "I"),
            segerberg_expand([q], [p], "I"))

    def test_guard(self):
        assert DEFAULT_EXPANSION_GUARD == 4
        phis = [Atom(f"a{i}") for i in range(5)]
        segerberg_expand(phis[:4], phis[:4], "I")
        with pytest.raises(ExpansionTooLarge):
            segerberg_expand(phis, phis, "I")

    def test_scott_instance_m1(self):
        got = scott_instance([p], [q])
        assert got == implies(
            And(segerberg_expand([p], [q], "I"), B(p)), B(q))

    def test_scott_instance_m2_shape(self):
        got = scott_instance([p, q], [q, r])
        s = print_kb(got)
        assert "<B>" not in s  # duals are stored desugared
        assert got == implies(
            conj([segerberg_expand([p, q], [q, r], "I"), B(p), b_dual(q)]),
            disj([B(q), B(r)]))
