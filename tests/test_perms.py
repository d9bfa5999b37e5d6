"""Permutation arithmetic and BSGS basics."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vangraph import caps
from vangraph.caps import CapExceeded
from vangraph.perms import Perm, PermGroup, parse_cycles, read_generator_file


def p(text, degree):
    return parse_cycles(text, degree)


def perm_order(x):
    """The order of a permutation: the lcm of its cycle lengths."""
    return math.lcm(*map(len, x.cycles()))


def test_composition_applies_left_factor_first():
    # (a*b)(x) = b(a(x)): (1 2) then (2 3) sends 1 -> 2 -> 3.
    a = p("(1 2)", 3)
    b = p("(2 3)", 3)
    assert a * b == p("(1 3 2)", 3)
    assert b * a == p("(1 2 3)", 3)
    # multi-cycle strings compose left-to-right the same way
    assert p("(1 2)(2 3)", 3) == a * b


def test_identity_and_inverse():
    g = p("(1 4 2)(3 5)", 5)
    e = Perm.identity(5)
    assert g * g.inverse() == e
    assert g.inverse() * g == e
    assert e.is_identity()
    assert not g.is_identity()


def test_conjugation_is_inverse_g_h_g():
    h = p("(1 2 3)", 4)
    g = p("(3 4)", 4)
    assert g.inverse() * h * g == p("(1 2 4)", 4)


def test_sign_order_cycle_type():
    assert p("(1 2)", 4).sign() == -1
    assert p("(1 2 3)", 4).sign() == 1
    assert p("(1 2)(3 4)", 4).sign() == 1
    assert perm_order(p("(1 2 3 4 5 6)", 6)) == 6
    assert perm_order(p("(1 2)(3 4 5)", 5)) == 6
    assert p("(1 2)(3 4)", 5).cycle_type() == (2, 2, 1)
    assert Perm.identity(3).cycle_type() == (1, 1, 1)


def test_cycle_string_round_trip():
    for text, degree in [("(1 2 3)", 5), ("(1 5)(2 4)", 5), ("()", 4)]:
        g = p(text, degree)
        assert parse_cycles(g.cycle_string(), degree) == g
    # cycles() lists fixed points; the cycle string leaves them out
    g = p("(2 4)", 5)
    assert g.cycles() == [(0,), (1, 3), (2,), (4,)]
    assert g.cycle_string() == "(2 4)"


def test_parse_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_cycles("(1 2 9)", 4)          # point out of range
    with pytest.raises(ValueError):
        parse_cycles("(1 2 1)", 4)          # repeated point in one cycle
    with pytest.raises(ValueError):
        parse_cycles("(0 1)", 4)            # points are 1-based
    with pytest.raises(ValueError):
        parse_cycles("(1 2", 4)             # unbalanced


def test_group_orders():
    s4 = PermGroup([p("(1 2)", 4), p("(1 2 3 4)", 4)])
    assert s4.order == 24
    a5 = PermGroup([p("(1 2 3)", 5), p("(1 2 3 4 5)", 5)])
    assert a5.order == 60
    c6 = PermGroup([p("(1 2 3 4 5 6)", 6)])
    assert c6.order == 6
    trivial = PermGroup([], degree=5)
    assert trivial.order == 1
    assert trivial.generators == ()
    # above the enumeration cap, so only the chain can give these
    s9 = PermGroup([p("(1 2)", 9), p("(1 2 3 4 5 6 7 8 9)", 9)])
    assert s9.order == math.factorial(9)
    a10 = PermGroup([p("(1 2 3)", 10), p("(2 3 4 5 6 7 8 9 10)", 10)])
    assert a10.order == math.factorial(10) // 2
    s12 = PermGroup([p("(1 2)", 12), p("(1 2 3 4 5 6 7 8 9 10 11 12)", 12)])
    assert s12.order == math.factorial(12)
    assert s9.order > caps.ENUM_CAP


def test_degree_inference_and_empty_group():
    g = PermGroup([p("(1 2)", 7)])
    assert g.degree == 7
    with pytest.raises(ValueError):
        PermGroup([])


def test_membership():
    s4 = PermGroup([p("(1 2)", 4), p("(1 2 3 4)", 4)])
    assert p("(1 3)(2 4)", 4) in s4
    a4 = PermGroup([p("(1 2 3)", 4), p("(2 3 4)", 4)])
    assert p("(1 2)", 4) not in a4
    assert p("(1 2)(3 4)", 4) in a4


def test_enumeration_ids_and_cap(monkeypatch):
    s4 = PermGroup([p("(1 2)", 4), p("(1 2 3 4)", 4)])
    ids = s4.element_ids()
    assert list(ids.values()) == list(range(24))
    assert next(iter(ids)) == tuple(range(4))
    elems = s4.elements()
    assert len(set(elems)) == 24
    assert [g.images for g in elems] == list(ids)
    assert all(g in s4 for g in elems)
    monkeypatch.setenv("VG_ENUM_CAP", "10")
    with pytest.raises(CapExceeded):
        s4.element_ids()
    with pytest.raises(CapExceeded):
        s4.elements()


def test_enumeration_certifies_the_chain_order():
    # doctored chain orders: the enumeration finds 24 elements
    s4 = PermGroup([p("(1 2)", 4), p("(1 2 3 4)", 4)])
    s4.__dict__["order"] = 23
    with pytest.raises(ArithmeticError,
                       match="more elements than the chain order 23"):
        s4.element_ids()
    s4 = PermGroup([p("(1 2)", 4), p("(1 2 3 4)", 4)])
    s4.__dict__["order"] = 25
    with pytest.raises(ArithmeticError, match="24 elements, chain order 25"):
        s4.element_ids()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.permutations(range(n)), min_size=1, max_size=3)))
def test_enumeration_tables_and_words(gens):
    g = PermGroup([Perm(tuple(im)) for im in gens], degree=len(gens[0]))
    enumeration = g.enumeration()
    elems = g.elements()
    for h, gen in enumerate(g.generators):
        assert [elems[y] for y in enumeration.right[h]] == \
            [x * gen for x in elems]
    # the products x * g_h in the order the search formed them
    products = [table[x] for x in range(len(elems))
                for table in enumeration.right]
    for x, elem in enumerate(elems):
        word = enumeration.word(x)
        product = Perm.identity(g.degree)
        for h in word:
            product = product * g.generators[h]
        assert product == elem
        y = 0
        for table in enumeration.steps(x):
            y = table[y]
        assert y == x
        if x:
            assert products.index(x) == enumeration.origin[x] \
                < x * len(g.generators)


def test_order_divides_degree_factorial():
    for gens, degree in [(["(1 2)", "(1 2 3 4 5)"], 5), (["(1 2 3)"], 3)]:
        g = PermGroup([p(t, degree) for t in gens])
        assert math.factorial(degree) % g.order == 0


def test_lagrange_on_random_members():
    s5 = PermGroup([p("(1 2)", 5), p("(1 2 3 4 5)", 5)])
    rng = random.Random(7)
    elems = s5.elements()
    for g in rng.sample(elems, 100):
        assert s5.order % perm_order(g) == 0


def test_generator_file_round_trip(tmp_path):
    text = "degree: 5\n(1 2)\n\n(1 2 3 4 5)\n"
    g = read_generator_file(text)
    assert g.degree == 5
    assert g.order == 120
    with pytest.raises(ValueError):
        read_generator_file("(1 2)\n")
    with pytest.raises(ValueError):
        read_generator_file("")
    with pytest.raises(ValueError):
        read_generator_file("degree: 3\n(1 4)\n")


perm_images = st.integers(3, 7).flatmap(
    lambda n: st.permutations(list(range(n))))


@given(perm_images)
def test_inverse_law_random(images):
    g = Perm(tuple(images))
    assert (g * g.inverse()).is_identity()
    assert g.inverse().inverse() == g


@given(st.integers(3, 6).flatmap(lambda n: st.tuples(
    st.permutations(list(range(n))), st.permutations(list(range(n))),
    st.permutations(list(range(n))))))
def test_composition_associative_and_sign_multiplicative(triple):
    a, b, c = (Perm(tuple(t)) for t in triple)
    assert (a * b) * c == a * (b * c)
    assert (a * b).sign() == a.sign() * b.sign()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.lists(st.permutations(range(n)), min_size=1, max_size=3),
    st.lists(st.permutations(range(n)), min_size=1, max_size=10))))
def test_chain_matches_enumeration(case):
    # the Schreier-Sims chain and the breadth-first enumeration are two
    # independent derivations of the same group
    gens, xs = case
    g = PermGroup([Perm(tuple(im)) for im in gens], degree=len(gens[0]))
    ids = g.element_ids()
    assert g.order == len(ids)
    assert all(Perm(e) in g for e in list(ids)[-5:])
    for images in xs:
        x = Perm(tuple(images))
        assert (x in g) == (x.images in ids)
