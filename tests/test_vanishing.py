"""Vanishing classes, prime graphs, and where vanishing elements sit."""

from hypothesis import given
from hypothesis import strategies as st
from test_perms import perm_order

from vangraph import catalog
from vangraph.dixon import character_table
from vangraph.structure import conjugacy_classes
from vangraph.vanishing import (PrimeGraph, dot_text, prime_graph,
                                vanishing_class_indices)


def is_subgraph(small, big):
    return (set(small.vertices) <= set(big.vertices)
            and set(small.edges) <= set(big.edges))


def is_complete(g):
    return not g.non_edges(g.vertices)


def test_prime_graph_oracle():
    g = prime_graph([1, 6, 6, 8, 3])
    assert g.vertices == (2, 3)
    assert g.edges == ((2, 3),)
    assert g.has_edge(2, 3) and g.has_edge(3, 2)
    # 2 and 3 both divide sizes but no single size is divisible by 6
    h = prime_graph([1, 3, 2])
    assert h.vertices == (2, 3)
    assert h.edges == ()
    assert not h.has_edge(2, 3)
    assert prime_graph([1]) == PrimeGraph((), ())


def test_subgraph_and_complete():
    empty = PrimeGraph((), ())
    one = PrimeGraph((2,), ())
    path = PrimeGraph((2, 3, 5), ((2, 3), (3, 5)))
    tri = PrimeGraph((2, 3, 5), ((2, 3), (2, 5), (3, 5)))
    assert is_subgraph(empty, tri)
    assert is_subgraph(one, tri)
    assert is_subgraph(path, tri)
    assert not is_subgraph(tri, path)
    assert not is_subgraph(PrimeGraph((7,), ()), tri)
    assert is_complete(empty)
    assert is_complete(one)
    assert is_complete(tri)
    assert not is_complete(path)


def test_non_edges():
    path = PrimeGraph((2, 3, 5), ((2, 3), (3, 5)))
    assert path.non_edges(path.vertices) == [(2, 5)]
    # any vertex order; primes outside the graph are joined to nothing
    assert path.non_edges((7, 3, 2)) == [(2, 7), (3, 7)]
    assert path.non_edges((3,)) == []
    tri = PrimeGraph((2, 3, 5), ((2, 3), (2, 5), (3, 5)))
    assert tri.non_edges(tri.vertices) == []


def test_dot_text():
    g = prime_graph([1, 6, 6, 8, 3])
    assert dot_text(g) == "graph G {\n  2;\n  3;\n  2 -- 3;\n}\n"
    assert dot_text(g, bold_edges=[(2, 3)]) == \
        "graph G {\n  2;\n  3;\n  2 -- 3 [style=bold];\n}\n"
    assert dot_text(PrimeGraph((), ())) == "graph G {}\n"


def report_for(spec, analyses):
    a = analyses(spec)
    return a.table, a.vanishing


def test_s3_report(analyses):
    table, rep = report_for("S3", analyses)
    assert rep.vanishing_classes == (1,)
    sizes = table.classes.sizes
    assert sizes == (1, 3, 2)
    assert [sizes[j] for j in rep.vanishing_classes] == [3]
    assert rep.size_primes == (2, 3)
    assert rep.vanishing_size_primes == (3,)
    assert rep.graph == PrimeGraph((2, 3), ())
    assert rep.vanishing_graph == PrimeGraph((3,), ())
    assert vanishing_class_indices(table) == (1,)


def test_a5_report(analyses):
    _, rep = report_for("A5", analyses)
    assert rep.vanishing_classes == (1, 2, 3, 4)
    assert rep.vanishing_size_primes == (2, 3, 5)
    assert is_complete(rep.vanishing_graph)
    assert rep.vanishing_graph.vertices == (2, 3, 5)


def test_identity_class_never_vanishes(analyses):
    for spec in ("S3", "S4", "A5", "D12", "C6", "PSL(2,7)"):
        _, rep = report_for(spec, analyses)
        assert 0 not in rep.vanishing_classes


def test_vanishing_data_are_subsets(analyses):
    for spec in ("S3", "S4", "S5", "A4", "A5", "D8", "D12", "PSL(2,7)",
                 "C2 x A5"):
        table, rep = report_for(spec, analyses)
        # sub-multiset of sizes
        sizes = table.classes.sizes
        rest = list(sizes)
        for s in (sizes[j] for j in rep.vanishing_classes):
            assert s in rest
            rest.remove(s)
        assert set(rep.vanishing_size_primes) <= set(rep.size_primes)
        assert is_subgraph(rep.vanishing_graph, rep.graph)


def vanishing_elements(group, cls, table):
    cols = set(vanishing_class_indices(table))
    return [x for x in group.elements()
            if cls.class_of(x) in cols]


def test_quotient_graph_is_subgraph(analyses, quotient_classes):
    # vanishing classes and class sizes both descend to quotients
    for spec in ("S4", "D12", "S3"):
        a = analyses(spec)
        for m in a.structure.minimal_normal_subgroups:
            quotient = quotient_classes(a.structure, m)
            graph = prime_graph([size for _, size, _ in quotient])
            van_graph = prime_graph([size for _, size, van in quotient
                                     if van])
            assert is_subgraph(graph, a.vanishing.graph)
            assert is_subgraph(van_graph, a.vanishing.vanishing_graph)


def test_direct_product_vanishing_small(analyses):
    # a vanishing element of one factor stays vanishing after pairing with
    # anything from the other factor
    a = analyses("C2 x A5")
    c2 = catalog.catalog_group("C2")
    a5 = catalog.catalog_group("A5")
    cls5 = conjugacy_classes(a5)
    t5 = character_table(cls5)
    van5 = vanishing_elements(a5, cls5, t5)
    assert van5
    gcols = set(a.vanishing.vanishing_classes)
    for m in van5:
        for n in c2.elements():
            prod = n.embed(7, 0) * m.embed(7, 2)
            assert a.classes.class_of(prod) in gcols


def test_defect_zero_forces_vanishing(analyses):
    # elements whose order is divisible by q vanish when a q-defect-zero
    # character exists; first with N = G
    a = analyses("A5")
    for q in (2, 3, 5):
        assert a.table.defect_zero_rows(q)
        for x in a.group.elements():
            if perm_order(x) % q == 0:
                assert a.classes.class_of(x) in a.vanishing.vanishing_classes
    # then with N a direct factor of C2 x A5
    prod = analyses("C2 x A5")
    for x in catalog.catalog_group("A5").elements():
        if perm_order(x) % 5 == 0:
            lifted = x.embed(7, 2)
            assert prod.classes.class_of(lifted) in \
                prod.vanishing.vanishing_classes


def test_large_prime_socle_elements_vanish(analyses):
    # nonabelian minimal normal M and p >= 5 dividing |M|: every element
    # of M with order divisible by p vanishes in G
    for spec in ("S5", "PSL(2,7)", "C2 x A5"):
        a = analyses(spec)
        socles = a.structure.nonabelian_minimal_normals
        assert socles, spec
        for m in socles:
            for p in (5, 7):
                if a.structure.order(m) % p:
                    continue
                for x in a.group.elements():
                    if (a.classes.class_of(x) in m
                            and perm_order(x) % p == 0):
                        assert a.classes.class_of(x) in \
                            a.vanishing.vanishing_classes, (spec, p)


def test_direct_product_class_sizes_multiply(analyses):
    # |(gh)^(CxM)| = |g^C| * |h^M|, hence divisible by both
    pairs = [("C2", "A5", "C2 x A5", 2), ("S3", "A5", "S3 x A5", 3)]
    for left, right, prod, offset in pairs:
        lg = catalog.catalog_group(left)
        rg = catalog.catalog_group(right)
        lcls = conjugacy_classes(lg)
        rcls = conjugacy_classes(rg)
        a = analyses(prod)
        degree = a.group.degree
        for i, g in enumerate(lcls.reps):
            for j, h in enumerate(rcls.reps):
                combined = g.embed(degree, 0) * h.embed(degree, offset)
                size = a.classes.sizes[a.classes.class_of(combined)]
                assert size == lcls.sizes[i] * rcls.sizes[j]


sizes_strategy = st.lists(st.integers(1, 400), min_size=1, max_size=8)


@given(sizes_strategy)
def test_prime_graph_matches_bruteforce(sizes):
    g = prime_graph(sizes)
    verts = set()
    for s in sizes:
        if s > 1:
            d = 2
            n = s
            while d * d <= n:
                if n % d == 0:
                    verts.add(d)
                    while n % d == 0:
                        n //= d
                d += 1
            if n > 1:
                verts.add(n)
    assert set(g.vertices) == verts
    for p in g.vertices:
        for q in g.vertices:
            if p < q:
                want = any(s % (p * q) == 0 for s in sizes)
                assert g.has_edge(p, q) == want
    for p, q in g.edges:
        assert p < q
        assert p in g.vertices and q in g.vertices
