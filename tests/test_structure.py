"""Conjugacy classes, normal structure, solvability machinery."""

import random
from collections import Counter
from itertools import combinations, product
from math import gcd, prod
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_dixon import class_matrix, two_generator_groups
from test_perms import padded, perm_order

from vangraph import caps, catalog
from vangraph.caps import CapExceeded
from vangraph.dixon import character_table
from vangraph.harness import DEFAULT_CORPUS, report_dict
from vangraph.numth import prime_divisors
from vangraph.perms import (Perm, PermGroup, _inverse, normal_closure,
                            parse_cycles)
from vangraph.structure import (ConjugacyClasses, GroupStructure,
                                conjugacy_classes, joint_stabilizer_index,
                                separating_subsets)


def grp(spec):
    return catalog.catalog_group(spec)


def enumerated_classes(analysis):
    """The enumerated class layer of an analysed group: analyze takes
    the classes of S_n and A_n from partitions, so those are rebuilt."""
    classes = analysis.classes
    if isinstance(classes, ConjugacyClasses):
        return classes
    return conjugacy_classes(analysis.group)


def test_class_orders_are_element_orders(analyses):
    # perm_order reads the cycle lengths; orders reads the power maps
    for spec in DEFAULT_CORPUS + ("S7", "A8", "S8"):
        classes = analyses(spec).classes
        assert classes.orders == tuple(map(perm_order, classes.reps)), spec


def test_class_sizes_frozen():
    assert conjugacy_classes(grp("S3")).sizes == (1, 3, 2)
    assert conjugacy_classes(grp("S4")).sizes == (1, 6, 6, 8, 3)
    assert conjugacy_classes(grp("A4")).sizes == (1, 4, 4, 3)
    assert conjugacy_classes(grp("A5")).sizes == (1, 20, 12, 12, 15)
    assert conjugacy_classes(grp("D8")).sizes == (1, 2, 2, 1, 2)
    assert conjugacy_classes(grp("D12")).sizes == (1, 2, 3, 2, 3, 1)


def test_class_zero_is_identity_and_equation_holds():
    for spec in ("S3", "S4", "A5", "D12", "C6", "PSL(2,7)"):
        cls = conjugacy_classes(grp(spec))
        assert cls.reps[0].is_identity()
        assert cls.sizes[0] == 1
        order = cls.group.order
        assert sum(cls.sizes) == order
        for s in cls.sizes:
            assert order % s == 0
        for j, rep in enumerate(cls.reps):
            assert cls.class_of(rep) == j


def test_class_of_rejects_elements_outside_group():
    # A4 keys its elements by image bytes, and on 300 points by image
    # tuples; neither takes a permutation of another degree
    a4 = grp("A4")
    wide = PermGroup([g.embed(300, 290) for g in a4.generators])
    for group, outside in (
            (a4, [parse_cycles("(1 2)", 4), Perm.identity(3),
                  Perm.identity(5), Perm.identity(300)]),
            (wide, [parse_cycles("(291 292)", 300), Perm.identity(4),
                    Perm.identity(257), Perm.identity(301)])):
        cls = conjugacy_classes(group)
        assert cls.class_of(Perm.identity(group.degree)) == 0
        for x in outside:
            with pytest.raises(ValueError, match="^element not in group$"):
                cls.class_of(x)


def test_class_of_is_conjugation_invariant():
    g = grp("S5")
    cls = conjugacy_classes(g)
    elems = g.elements()
    rng = random.Random(11)
    for _ in range(100):
        x = rng.choice(elems)
        h = rng.choice(elems)
        assert cls.class_of(x) == cls.class_of(h.inverse() * x * h)


def centralizer_order(g, x):
    return sum(1 for y in g.elements() if x * y == y * x)


def test_centralizer_orbit_stabilizer():
    g = grp("S4")
    cls = conjugacy_classes(g)
    for j, rep in enumerate(cls.reps):
        assert centralizer_order(g, rep) == g.order // cls.sizes[j]
    assert centralizer_order(g, parse_cycles("(1 2 3 4)", 4)) == 4


def test_power_and_inverse_class_maps():
    cls = conjugacy_classes(grp("S4"))
    for j, rep in enumerate(cls.reps):
        assert cls.inverse_class(j) == cls.class_of(rep.inverse())
        assert cls.power_class(j, 2) == cls.class_of(rep * rep)
        assert cls.power_class(j, 1) == j
    # real group: every class is its own inverse class
    assert all(cls.inverse_class(j) == j for j in range(cls.count))


def test_rational_classes_match_brute_force():
    # j and j' share a rational class iff rep_j' ~ rep_j ** s for some s
    # prime to m = |rep_j|; A4 on 300 points keys by image tuples
    a4 = grp("A4")
    wide = PermGroup([g.embed(300, 290) for g in a4.generators])
    for group in (grp("S5"), grp("PSL(2,7)"), grp("C12"), grp("C6 x A5"),
                  wide):
        cls = conjugacy_classes(group)
        # galois[j][j'] is the smallest s prime to m with rep_j ** s in j'
        galois = []
        for rep, m in zip(cls.reps, cls.orders):
            images = {}
            power = Perm.identity(group.degree)
            for s in range(1, m + 1):
                power = power * rep
                if gcd(s, m) == 1:
                    images.setdefault(cls.class_of(power), s)
            galois.append(images)
        for j, images in enumerate(galois):
            i = min(images)
            assert galois[i].keys() == images.keys()
            assert cls.rational_classes[j] == (i, galois[i][j]), j
            if i == j:
                assert cls.rational_classes[j] == (j, 1)


def tuple_classes(group):
    """The class data computed on image tuples, the reference for the
    id tables: the breadth-first enumeration, the class search by
    conjugating tuples, the power maps by tuple products, and every
    class-matrix row.  Returns (ids, members, reps, power, rows), where rows[r][i]
    is row r of M_i: entry c counts the y in the inverse class of i
    with y * rep_r in class c."""
    ids = {tuple(range(group.degree)): 0}
    frontier = list(ids)
    gens = [g.images for g in group.generators]
    for e in frontier:
        for g in gens:
            f = tuple(map(g.__getitem__, e))
            if f not in ids:
                ids[f] = len(ids)
                frontier.append(f)
    class_of = [-1] * len(ids)
    members = []
    # on image tuples, g^-1 * x * g maps i to g[x[g^-1[i]]]
    gen_invs = [(g, _inverse(g)) for g in gens]
    for eid in range(len(frontier)):
        if class_of[eid] >= 0:
            continue
        class_of[eid] = len(members)
        orbit = [eid]
        for xid in orbit:
            x = frontier[xid]
            for g, ginv in gen_invs:
                yid = ids[tuple(g[x[i]] for i in ginv)]
                if class_of[yid] < 0:
                    class_of[yid] = len(members)
                    orbit.append(yid)
        members.append(orbit)
    reps = [frontier[orbit[0]] for orbit in members]
    power = []
    for rep in reps:
        acc, row = rep, [0]
        while acc != frontier[0]:
            row.append(class_of[ids[acc]])
            acc = tuple(map(rep.__getitem__, acc))
        power.append(tuple(row))
    # y * rep maps i to rep[y[i]], so it is itemgetter(*y)(rep), a
    # tuple whenever the degree is at least 2
    times = [itemgetter(*y) for y in frontier] if group.degree > 1 \
        else [tuple]
    k = len(members)
    rows = []
    for rep in reps:
        counts = Counter(zip(class_of, (class_of[ids[y_times(rep)]]
                                        for y_times in times)))
        rows.append([[counts[power[i][-1], c] for c in range(k)]
                     for i in range(k)])
    return ids, members, reps, power, rows


def assert_matches_tuple_classes(cls):
    ids, members, reps, power, rows = tuple_classes(cls.group)
    assert [(tuple(key), x) for key, x in cls.enumeration.ids.items()] \
        == list(ids.items())
    assert all(cls.enumeration.id_of(e) == x for e, x in ids.items())
    assert [list(ys) for ys in cls.members] == members
    assert [rep.images for rep in cls.reps] == reps
    assert [[cls.power_class(j, e) for e in range(len(row))]
            for j, row in enumerate(power)] == list(map(list, power))
    assert cls.orders == tuple(map(len, power))
    assert [[cls.class_matrix_row(i, r) for i in range(cls.count)]
            for r in range(cls.count)] == rows


def test_classes_match_the_tuple_oracle(analyses):
    for spec in DEFAULT_CORPUS + ("S7", "A8", "S8"):
        assert_matches_tuple_classes(enumerated_classes(analyses(spec)))
    for spec in ("PSL(2,29)", "PSL(2,31)"):
        assert_matches_tuple_classes(conjugacy_classes(grp(spec)))
    # above 256 points the enumeration keys elements by image tuples
    s5 = padded(grp("S5"), 300, 295)
    assert type(next(iter(s5.enumeration().ids))) is tuple
    assert_matches_tuple_classes(conjugacy_classes(s5))


@settings(max_examples=40, deadline=None)
@given(two_generator_groups)
def test_random_classes_match_the_tuple_oracle(group):
    assert_matches_tuple_classes(conjugacy_classes(group))


@pytest.mark.parametrize("group", [
    grp("S6"), padded(grp("S6"), 300, 294),
], ids=["S6 on 6 points", "S6 on 300 points"])
def test_id_tables_hold_the_enumerations_own_ints(group):
    # reading an id above 256 from an array('i') allocates a new int;
    # the right and conjugation tables hold the objects in the id dict,
    # for image-bytes and image-tuple keys alike
    enumeration = group.enumeration()
    values = list(enumeration.ids.values())
    assert len(values) == 720
    tables = list(enumeration.right) + enumeration.conjugations()
    for table in tables:
        assert len(table) == 720
        assert all(y is values[y] for y in table)


def structure(spec):
    return GroupStructure(character_table(conjugacy_classes(grp(spec))))


def commute(gens):
    return all(a * b == b * a for a in gens for b in gens)


def test_normal_closure_in_s4():
    g = grp("S4")
    assert normal_closure(g, [parse_cycles("(1 2)", 4)]).order == 24
    assert normal_closure(g, [parse_cycles("(1 2 3)", 4)]).order == 12
    v4 = normal_closure(g, [parse_cycles("(1 2)(3 4)", 4)])
    assert v4.order == 4
    assert commute(v4.generators)


@settings(max_examples=40, deadline=None)
@given(two_generator_groups, st.data())
def test_normal_closure_walk(group, data):
    # the closure keeps its walk's chain; a fresh walk on its generators
    # and its enumeration must agree with that chain
    elements = group.elements()
    seeds = [elements[i] for i in data.draw(
        st.lists(st.integers(0, len(elements) - 1), max_size=3))]
    closure = normal_closure(group, seeds)
    fresh = PermGroup(closure.generators, degree=group.degree)
    assert closure.order == fresh.order == len(closure.enumeration().ids)
    assert all(x in closure for x in seeds)
    for x in closure.generators:
        assert x in group
        for g in group.generators:
            assert g.inverse() * x * g in closure


def test_class_closures_match_normal_closures(analyses):
    # the kernel intersection of each class against the permutation-level
    # closure, over the whole default corpus
    for spec in DEFAULT_CORPUS:
        a = analyses(spec)
        gs, cls = a.structure, a.classes
        for j, rep in enumerate(cls.reps):
            closed = normal_closure(a.group, [rep])
            want = frozenset(k for k, r in enumerate(cls.reps) if r in closed)
            assert gs.closure({0, j}) == want, (spec, j)
            assert gs.order(want) == closed.order, (spec, j)


def test_class_closures_match_class_products(analyses):
    # close {0, j} under products: C_k lies in C_a C_b iff a_abk > 0
    for spec in DEFAULT_CORPUS:
        a = analyses(spec)
        cls = enumerated_classes(a)
        mats = {}

        def products(x, y):
            if x not in mats:
                mats[x] = class_matrix(cls, x)
            return {k for k in range(cls.count) if mats[x][k][y] > 0}

        for j in range(cls.count):
            closed = {0, j}
            while True:
                grown = closed.union(*(products(x, y)
                                       for x in closed for y in closed))
                if grown == closed:
                    break
                closed = grown
            assert frozenset(closed) == a.structure.class_closures[j], (spec, j)


def test_chief_factors_agree_with_derived_series(analyses):
    for spec in DEFAULT_CORPUS:
        gs = analyses(spec).structure
        assert prod(gs.chief_factors) == gs.group.order, spec
        series = gs.chief_series
        assert series[0] == frozenset({0})
        assert len(series[-1]) == gs.classes.count
        assert all(a < b for a, b in zip(series, series[1:])), spec
        derived = gs.derived_series
        assert all(gs.closure(n) == n for n in derived), spec
        assert all(a > b for a, b in zip(derived, derived[1:-1])), spec
        assert gs.is_solvable() == (derived[-1] == frozenset({0})), spec
        assert derived[1] == gs.derived_subgroup, spec


def test_structure_certificates_raise():
    # S4 has 5 classes of sizes 1, 6, 6, 8, 3 and G' = A4; widening the
    # linear characters' kernels to everything claims G' = G
    gs = structure("S4")
    everything = frozenset(range(5))
    gs.kernels = tuple(everything if d == 1 else ker
                       for d, ker in zip(gs.table.degrees, gs.kernels))
    with pytest.raises(ArithmeticError, match="derived term"):
        gs.derived_series
    # G' read as V4 = {0, 4}: every term has its order, but G' is not
    # the kernels' derived subgroup
    gs = structure("S4")
    gs.derived_subgroup = frozenset({0, 4})
    with pytest.raises(ArithmeticError, match="derived subgroup"):
        gs.derived_series
    # a kernel of classes 0 and 1 is a "normal subgroup" of order 7
    gs = structure("S4")
    gs.kernels = (everything, frozenset({0, 1}))
    with pytest.raises(ArithmeticError):
        gs.chief_factors


def test_derived_terms_are_checked_by_order():
    # the kernel {0, 1} in place of the degree-2 character's V4 = {0, 4}
    # leaves G' = A4 = {0, 3, 4} alone, but the closure of the classes
    # of V4's generators becomes {0, 3, 4}, of order 12, not 4
    gs = structure("S4")
    gs.kernels = tuple(frozenset({0, 1}) if d == 2 else ker
                       for d, ker in zip(gs.table.degrees, gs.kernels))
    assert gs.derived_subgroup == frozenset({0, 3, 4})
    with pytest.raises(ArithmeticError, match="derived term"):
        gs.derived_series


def brute_derived_series(group):
    """Each term is generated by the commutators of all pairs of the
    previous term's elements, on image tuples; stops as derived_series
    does."""
    def mul(a, b):
        return tuple(b[i] for i in a)

    def inv(a):
        out = [0] * len(a)
        for i, j in enumerate(a):
            out[j] = i
        return tuple(out)

    term = {g.images for g in group.elements()}
    series = [term]
    while True:
        comms = {mul(mul(inv(a), inv(b)), mul(a, b))
                 for a in term for b in term}
        sub = {tuple(range(group.degree))}
        frontier = list(sub)
        for x in frontier:
            for c in comms:
                y = mul(x, c)
                if y not in sub:
                    sub.add(y)
                    frontier.append(y)
        series.append(sub)
        if len(sub) == 1 or len(sub) == len(term):
            return series
        term = sub


@settings(max_examples=30, deadline=None)
@given(two_generator_groups.filter(lambda g: g.degree <= 5))
def test_derived_series_matches_brute_force(group):
    gs = GroupStructure(character_table(conjugacy_classes(group)))
    classes = gs.classes
    want = [frozenset(classes.class_of_element[classes.enumeration.id_of(x)]
                      for x in term)
            for term in brute_derived_series(group)]
    assert list(gs.derived_series) == want


def test_center_orders():
    for spec, want in [("S4", 1), ("D8", 2), ("D12", 2), ("C6", 6),
                       ("A5", 1)]:
        gs = structure(spec)
        assert gs.order(gs.center) == want
        reps = [gs.classes.reps[j] for j in gs.center]
        assert all(z * g == g * z for z in reps for g in gs.group.generators)


def test_minimal_normal_subgroups():
    cases = {
        "S4": [(4, True)],
        "A5": [(60, False)],
        "S5": [(60, False)],
        "C6": [(2, True), (3, True)],
        "D12": [(2, True), (3, True)],
        "C2 x A5": [(2, True), (60, False)],
        "A5 x A5": [(60, False), (60, False)],
        "S4 x A5": [(4, True), (60, False)],
    }
    for spec, want in cases.items():
        gs = structure(spec)
        got = []
        for m in gs.minimal_normal_subgroups:
            sub = normal_closure(gs.group, [gs.classes.reps[j] for j in m])
            assert sub.order == gs.order(m), spec
            got.append((sub.order, commute(sub.generators)))
        assert sorted(got) == sorted(want), spec
        flags = [(gs.order(m), m not in gs.nonabelian_minimal_normals)
                 for m in gs.minimal_normal_subgroups]
        assert sorted(flags) == sorted(want), spec


def test_minimal_normals_are_minimal():
    for spec in ("S4", "S5", "C6", "D12", "C2 x A5"):
        gs = structure(spec)
        mins = gs.minimal_normal_subgroups
        for m in mins:
            for other in mins:
                if other is not m:
                    assert not other <= m
            # closure of any nontrivial class is the whole subgroup
            for j in m - {0}:
                assert gs.closure({j}) == m
                closed = normal_closure(gs.group, [gs.classes.reps[j]])
                assert closed.order == gs.order(m)


def test_fitting_subgroup():
    for spec, want in [("S4", 4), ("S3", 3), ("D8", 8), ("D12", 6),
                       ("A5", 1), ("A4", 4), ("C12", 12),
                       ("S4 x S3", 12), ("D8 x S3", 24), ("A4 x C3", 12),
                       ("C2 x C2 x S3", 12), ("PSL(2,11)", 1)]:
        gs = structure(spec)
        assert gs.order(gs.fitting_subgroup) == want, spec


def test_fitting_is_nilpotent_and_normal():
    for spec in ("S4", "D12", "S3 x A5"):
        g = grp(spec)
        gs = structure(spec)
        fit = gs.fitting_subgroup
        members = [x for x in g.elements() if gs.classes.class_of(x) in fit]
        sub = PermGroup(members, degree=g.degree)
        # the class set is a subgroup, normal because it is a union of
        # classes
        assert sub.order == len(members) == gs.order(fit)
        for x in sub.generators:
            for h in g.generators:
                assert h.inverse() * x * h in sub
        # nilpotent: the subgroup is its own Fitting subgroup
        inner = GroupStructure(character_table(conjugacy_classes(sub)))
        assert inner.order(inner.fitting_subgroup) == sub.order


def test_derived_series():
    def terms(spec):
        gs = structure(spec)
        series = gs.derived_series
        assert series[1] == gs.derived_subgroup
        return [(gs.order(s), sorted(s)) for s in series]

    # S4 classes: 1, (1 2), (1 2 3 4), (1 3 4), (1 3)(2 4)
    assert terms("S4") == [(24, [0, 1, 2, 3, 4]), (12, [0, 3, 4]),
                           (4, [0, 4]), (1, [0])]
    assert terms("S3") == [(6, [0, 1, 2]), (3, [0, 2]), (1, [0])]
    assert terms("A5") == [(60, [0, 1, 2, 3, 4])] * 2
    assert terms("C6") == [(6, list(range(6))), (1, [0])]


def test_solvability():
    solvable = {"S3": True, "S4": True, "A4": True, "D12": True, "C12": True,
                "A5": False, "S5": False, "PSL(2,7)": False}
    for spec, want in solvable.items():
        assert structure(spec).is_solvable() is want, spec


def test_p_nilpotency():
    cases = {
        "S3": {2: True, 3: False},
        "A4": {2: False, 3: True},
        "D12": {2: True, 3: False},
        "A5": {2: False, 3: False, 5: False},
        "C6": {2: True, 3: True},
    }
    for spec, want in cases.items():
        gs = structure(spec)
        got = {p: gs.normal_p_complement(p) is not None
               for p in prime_divisors(gs.group.order)}
        assert got == want, spec


def test_p_solvability():
    for spec, want in [("S4", {2: True, 3: True}),
                       ("A5", {2: False, 3: False, 5: False}),
                       ("S5", {2: False, 3: False, 5: False}),
                       ("C2 x A5", {2: False, 3: False, 5: False}),
                       ("PSL(2,7)", {2: False, 3: False, 7: False}),
                       ("S4 x A5", {2: False, 3: False, 5: False}),
                       ("C7 x A5", {2: False, 3: False, 5: False, 7: True})]:
        gs = structure(spec)
        got = {p: gs.p_solvable(p) for p in prime_divisors(gs.group.order)}
        assert got == want, spec


def test_solvable_iff_p_solvable_for_all_p():
    for spec in ("S3", "S4", "A4", "A5", "S5", "D12", "C12", "PSL(2,5)"):
        gs = structure(spec)
        assert gs.is_solvable() == all(
            gs.p_solvable(p) for p in prime_divisors(gs.group.order)), spec


def test_p_not_dividing_order_is_trivially_good():
    gs = structure("S4")
    assert gs.p_solvable(7)
    comp = gs.normal_p_complement(7)
    assert comp is not None and gs.order(comp) == 24


def test_quotient_classes(quotient_classes):
    # S4 / V4 is S3, read off the rows whose kernel contains V4
    gs = structure("S4")
    (v4,) = gs.minimal_normal_subgroups
    assert gs.order(v4) == 4
    quotient = quotient_classes(gs, v4)
    assert sorted(size for _, size, _ in quotient) == [1, 2, 3]
    # size of (xN)^(G/N) divides the size of x^G
    for members, size, _ in quotient:
        for j in members:
            assert gs.classes.sizes[j] % size == 0


def test_structure_report_shape(analyses):
    # the structural fields of the JSON report, read off GroupStructure
    rep = report_dict(analyses("S3"), ())
    assert rep["order"] == 6
    assert rep["degree"] == 3
    assert rep["primes"] == [2, 3]
    assert rep["center_order"] == 1
    assert rep["fitting_order"] == 3
    assert rep["minimal_normals"] == [[3, True]]
    assert rep["derived_series"] == [6, 3, 1]
    assert rep["is_solvable"] is True
    assert rep["p_nilpotent"] == {"2": True, "3": False}
    assert rep["p_solvable"] == {"2": True, "3": True}
    assert rep["verdicts"] == []


def joint_stabilizer_order(g, g1, g2):
    set1, set2 = set(g1), set(g2)
    return sum(1 for x in g.elements()
               if {x.images[i] for i in g1} == set1
               and {x.images[i] for i in g2} == set2)


def enumeration_separating_subsets(g, p, q):
    """The search before pair orbits: the same order, with each joint
    stabilizer counted over every element of G."""
    targets = [r for r in (p, q) if g.order % r == 0]
    n = g.degree
    for total in range(2, 2 * n + 1):
        for s1 in range(max(1, total - n), total):
            for g1 in combinations(range(n), s1):
                rest = [x for x in range(n) if x not in g1]
                for g2 in combinations(rest, total - s1):
                    index = g.order // joint_stabilizer_order(g, g1, g2)
                    if all(index % r == 0 for r in targets):
                        return g1, g2
    return None


def test_separating_subsets_contract():
    for spec in ("S3", "S4", "A5", "D12", "PSL(2,5)"):
        g = grp(spec)
        primes = prime_divisors(g.order)
        for p, q in combinations(primes, 2):
            g1, g2 = separating_subsets(g, p, q)
            assert g1 and g2
            assert not set(g1) & set(g2)
            index = g.order // joint_stabilizer_order(g, g1, g2)
            assert index % p == 0 and index % q == 0, (spec, p, q, g1, g2)


@settings(max_examples=40, deadline=None)
@given(two_generator_groups.filter(lambda g: g.degree >= 2))
def test_separating_subsets_match_enumeration(g):
    for p, q in ((2, 3), (2, 5), (3, 5), (5, 7)):
        assert separating_subsets(g, p, q) == \
            enumeration_separating_subsets(g, p, q), (g, p, q)


def test_joint_stabilizer_index_matches_enumeration():
    for spec in ("S4", "A5", "D12"):
        g = grp(spec)
        n = g.degree
        for labels in product(range(3), repeat=n):
            g1 = tuple(x for x in range(n) if labels[x] == 1)
            g2 = tuple(x for x in range(n) if labels[x] == 2)
            assert joint_stabilizer_index(g, g1, g2) * \
                joint_stabilizer_order(g, g1, g2) == g.order, (spec, g1, g2)


def test_joint_stabilizer_index_rejects_bad_points():
    s4 = grp("S4")
    # bit 5 of the first mask would alias point 1 of the second subset,
    # and a repeated point 0 would alias point 1
    for g1, g2 in (((5,), ()), ((9,), ()), ((0,), (4,)), ((-1,), (2,)),
                   ((0, 0), ()), ((), (2, 2))):
        with pytest.raises(ValueError):
            joint_stabilizer_index(s4, g1, g2)


def test_separating_subsets_trivial_targets():
    g = grp("S3")
    # primes outside pi(G) impose no constraint but a witness still returns
    g1, g2 = separating_subsets(g, 7, 11)
    assert g1 and g2 and not set(g1) & set(g2)


def test_separating_subsets_caps(monkeypatch):
    # only the point count bounds the search; G is never enumerated
    with pytest.raises(CapExceeded):
        separating_subsets(grp("C13"), 13, 2)
    s7 = grp("S7")
    want = separating_subsets(s7, 2, 3)
    s9 = grp("S9")
    assert s9.order > caps.ENUM_CAP
    monkeypatch.setenv("VG_ENUM_CAP", "10")
    assert separating_subsets(s7, 2, 3) == want
    g1, g2 = separating_subsets(s9, 2, 3)
    assert (g1, g2) == ((0,), (1,))
    assert joint_stabilizer_index(s9, g1, g2) == 72


def test_caps_raise_cap_exceeded(monkeypatch):
    g = grp("S5")
    monkeypatch.setenv("VG_ENUM_CAP", "10")
    with pytest.raises(CapExceeded):
        conjugacy_classes(g)


def test_table_cap_is_read_before_the_power_maps():
    # C61 has one class per element: refused once the class BFS is done
    with pytest.raises(CapExceeded, match="61 classes exceeds table cap 60"):
        conjugacy_classes(grp("C61"))
