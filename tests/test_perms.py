"""Permutation arithmetic and BSGS basics."""

import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vangraph import caps
from vangraph.caps import CapExceeded
from vangraph.catalog import catalog_group, cyclic_group, symmetric_group
from vangraph.perms import (Perm, PermGroup, _sift, normal_closure,
                            parse_cycles, read_generator_file)
from vangraph.structure import conjugacy_classes
from vangraph.symchar import symmetric_classes


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
    enumeration = s4.enumeration()
    ids = enumeration.ids
    assert list(ids.values()) == list(range(24))
    assert next(iter(ids)) == bytes(range(4))
    elems = s4.elements()
    assert len(set(elems)) == 24
    assert [g.images for g in elems] == list(map(tuple, ids))
    assert [enumeration.id_of(g.images) for g in elems] == list(range(24))
    assert all(g in s4 for g in elems)
    monkeypatch.setenv("VG_ENUM_CAP", "10")
    with pytest.raises(CapExceeded):
        s4.enumeration()
    with pytest.raises(CapExceeded):
        s4.elements()


def test_enumeration_certifies_the_chain_order():
    # doctored chain orders: the enumeration finds 24 elements
    s4 = PermGroup([p("(1 2)", 4), p("(1 2 3 4)", 4)])
    s4.__dict__["order"] = 23
    with pytest.raises(ArithmeticError,
                       match="more elements than the chain order 23"):
        s4.enumeration()
    s4 = PermGroup([p("(1 2)", 4), p("(1 2 3 4)", 4)])
    s4.__dict__["order"] = 25
    with pytest.raises(ArithmeticError, match="24 elements, chain order 25"):
        s4.enumeration()


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


def test_groups_of_degree_at_most_two():
    # operator.itemgetter with one index returns a bare value, not a
    # 1-tuple, and with none it raises; degrees 0 and 1 have no
    # permutation but the identity, so no such product is ever formed
    empty = PermGroup([], degree=0)
    assert list(empty.enumeration().ids) == [b""]
    assert empty.elements() == (Perm(()),)
    classes = conjugacy_classes(empty)
    assert empty.class_noncommuting_connected(classes.reps[0])
    for group in (PermGroup([], degree=1), cyclic_group(1),
                  symmetric_group(1)):
        assert list(group.enumeration().ids) == [b"\x00"]
        assert group.elements() == (Perm.identity(1),)
        assert Perm.identity(1) in group
    trivial = PermGroup([], degree=1)
    closure = normal_closure(trivial, [Perm.identity(1)])
    assert (closure.order, closure.generators) == (1, ())
    classes = conjugacy_classes(trivial)
    assert (classes.count, classes.sizes) == (1, (1,))
    assert trivial.class_noncommuting_connected(classes.reps[0])
    # degree 2: the smallest where the products run
    swap = Perm((1, 0))
    for group in (cyclic_group(2), symmetric_group(2)):
        assert list(group.enumeration().ids) == [b"\x00\x01", b"\x01\x00"]
        assert group.elements() == (Perm.identity(2), swap)
        assert swap in group
        assert _sift(group._chain, (1, 0), 0) == ((0, 1), 1)
        assert _sift(group._chain, (0, 1), 0) == ((0, 1), 1)
        assert normal_closure(group, [swap]).order == 2
        assert conjugacy_classes(group).sizes == (1, 1)


NAMED_CHAIN_GROUPS = [catalog_group(spec)
                      for spec in ("PSL(2,31)", "S3 x PSL(2,31)")]


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.integers(1, 10).flatmap(lambda n: st.lists(
        st.permutations(range(n)), min_size=1, max_size=3)).map(
        lambda gens: PermGroup([Perm(tuple(im)) for im in gens],
                               degree=len(gens[0]))),
    st.sampled_from(NAMED_CHAIN_GROUPS)).flatmap(lambda g: st.tuples(
        st.just(g), st.lists(st.permutations(range(g.degree)), max_size=4),
        st.lists(st.lists(st.integers(0, 2), max_size=12), max_size=4))))
def test_chain_levels_and_sift(case):
    group, perms, words = case
    chain = group._chain
    identity = Perm.identity(group.degree)
    base = [b for b, _ in chain]
    assert len(set(base)) == len(base)
    # level i holds u_p^-1 for each p in the orbit of b_i under the
    # stabilizer of b_0, ..., b_(i-1): it sends p to b_i and fixes those
    for i, (b, inverses) in enumerate(chain):
        assert inverses[b] == identity.images
        for p, inverse in inverses.items():
            assert inverse[p] == b
            assert all(inverse[c] == c for c in base[:i])
    # elements of the group, as words in its generators
    members = []
    for word in words:
        x = identity
        for h in word:
            if group.generators:
                x = x * group.generators[h % len(group.generators)]
        members.append(x)
    for x in [*map(Perm, map(tuple, perms)), *members]:
        # strip x by u^-1 level by level, with Perm products
        residue, level = x, 0
        while level < len(chain):
            b, inverses = chain[level]
            inverse = inverses.get(residue.images[b])
            if inverse is None:
                break
            residue = residue * Perm(inverse)
            level += 1
        assert _sift(chain, x.images, 0) == (residue.images, level)
        assert (residue == identity) == (x in group)
    for x in members:
        assert x in group


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
    with pytest.raises(ValueError,
                       match=f"degree {caps.DEGREE_CAP + 1} exceeds degree cap"):
        read_generator_file(f"degree: {caps.DEGREE_CAP + 1}\n(1 2)\n")


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
    enumeration = g.enumeration()
    ids = enumeration.ids
    assert g.order == len(ids)
    assert all(Perm(tuple(e)) in g for e in list(ids)[-5:])
    keys = list(ids)
    for images in xs:
        x = Perm(tuple(images))
        assert (x in g) == (bytes(x.images) in ids)
        if x in g:
            assert tuple(keys[enumeration.id_of(x.images)]) == x.images


def tuple_enumeration(group):
    """The breadth-first enumeration on image tuples, the reference for
    both key types: (ids, right, origin), ids mapping image tuples."""
    ids = {tuple(range(group.degree)): 0}
    frontier = list(ids)
    k = len(group.generators)
    right = [[] for _ in range(k)]
    origin = [0]
    for x, e in enumerate(frontier):
        for h, g in enumerate(group.generators):
            f = tuple(g.images[i] for i in e)
            if f not in ids:
                ids[f] = len(frontier)
                frontier.append(f)
                origin.append(x * k + h)
            right[h].append(ids[f])
    return ids, right, origin


def padded(group, degree, offset):
    return PermGroup([g.embed(degree, offset) for g in group.generators],
                     degree=degree)


@pytest.mark.parametrize("group, key", [
    (cyclic_group(256), bytes),
    (padded(symmetric_group(4), 256, 252), bytes),
    (cyclic_group(257), tuple),
    (padded(symmetric_group(4), 300, 290), tuple),
], ids=["C256", "S4 on 256 points", "C257", "S4 on 300 points"])
def test_both_key_types_match_the_tuple_oracle(group, key):
    # up to 256 points an element is keyed by its image bytes, above
    # that by its image tuple; ids, tables and origins are the same
    enumeration = group.enumeration()
    ids, right, origin = tuple_enumeration(group)
    assert {type(e) for e in enumeration.ids} == {key}
    assert [(tuple(e), x) for e, x in enumeration.ids.items()] == \
        list(ids.items())
    assert list(map(list, enumeration.right)) == right
    assert list(enumeration.origin) == origin
    assert [enumeration.id_of(e) for e in ids] == list(range(len(ids)))
    assert [g.images for g in group.elements()] == list(ids)
    assert len(enumeration) == len(ids)


@pytest.mark.parametrize("group, layer", [
    (PermGroup([], degree=0), conjugacy_classes),
    (symmetric_group(4), conjugacy_classes),
    (catalog_group("A5"), conjugacy_classes),
    (catalog_group("D8"), conjugacy_classes),
    (catalog_group("C2 x S3"), conjugacy_classes),
    (padded(symmetric_group(4), 300, 290), conjugacy_classes),
    (catalog_group("A6"), symmetric_classes),
], ids=["degree 0", "S4", "A5", "D8", "C2 x S3", "S4 on 300 points",
        "A6 partition layer"])
def test_commuting_test_matches_perm_products(group, layer):
    # the oracle joins two members of the enumerated class k when their
    # Perm products differ and walks the components; the test builds
    # class k from the representative of the layer under test, which
    # numbers the classes as the enumerated layer does
    classes = conjugacy_classes(group)
    reps = layer(group).reps
    assert len(reps) == classes.count
    keys = list(classes.enumeration.ids)
    for k, ys in enumerate(classes.members):
        xs = [Perm(tuple(keys[y])) for y in ys]
        reached = {0}
        frontier = [0]
        while frontier:
            a = xs[frontier.pop()]
            joined = {j for j, b in enumerate(xs)
                      if j not in reached and a * b != b * a}
            reached |= joined
            frontier.extend(joined)
        assert reps[k] in xs
        assert group.class_noncommuting_connected(reps[k]) == \
            (len(reached) == len(xs))


@pytest.mark.parametrize("group", [
    PermGroup([], degree=0), symmetric_group(1), cyclic_group(2),
    catalog_group("A5"), catalog_group("S3 x A5"), cyclic_group(256),
    padded(symmetric_group(4), 300, 290),
], ids=["degree 0", "S1", "C2", "A5", "S3 x A5", "C256", "S4 on 300 points"])
def test_walk_is_the_enumeration_order(group):
    # the early-stopped walk numbers elements as the enumeration does,
    # for bytes and tuple keys alike
    assert list(group.walk()) == \
        [tuple(key) for key in group.enumeration().ids]


def test_enumeration_memory_stays_on_bytes_keys():
    # the tracemalloc peak of PSL(2,31)'s enumeration (order 14,880,
    # degree 32) is about 5.6 MiB with image-tuple keys and 2.3 MiB
    # with image-bytes keys, right tables as lists of 8-byte entries
    group = catalog_group("PSL(2,31)")
    assert group.order == 14880
    tracemalloc.start()
    try:
        group.enumeration()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 2 ** 20, peak
