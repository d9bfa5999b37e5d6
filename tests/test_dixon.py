"""Exact character tables via eigenvector splitting over F_l."""

import dataclasses
from collections import Counter
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_perms import perm_order

from vangraph import caps, catalog, dixon, symchar
from vangraph.cyclo import Cyc
from vangraph.dixon import character_table, dixon_prime
from vangraph.numth import (charpoly, nullspace, poly_mul, poly_roots,
                            primitive_root, rref)
from vangraph.perms import Enumeration, Perm, PermGroup
from vangraph.structure import ConjugacyClasses, conjugacy_classes
from vangraph.vanishing import vanishing_class_indices

DEGREES = {
    "S3": (1, 1, 2),
    "S4": (1, 1, 2, 3, 3),
    "S5": (1, 1, 4, 4, 5, 5, 6),
    "A4": (1, 1, 1, 3),
    "A5": (1, 3, 3, 4, 5),
    "D8": (1, 1, 1, 1, 2),
    "D12": (1, 1, 1, 1, 2, 2),
    "PSL(2,7)": (1, 3, 3, 6, 7, 8),
}


def table_for(spec):
    return character_table(conjugacy_classes(catalog.catalog_group(spec)))


def class_matrix(classes, i):
    """Multiplication by the class sum K_i on the class-sum basis, as
    the stack of its k rows: |C_i| * k products."""
    return [classes.class_matrix_row(i, r) for r in range(classes.count)]


def test_degree_multisets_frozen():
    for spec, want in DEGREES.items():
        t = table_for(spec)
        assert tuple(sorted(t.degrees)) == want, spec


def test_degree_square_sum_and_row_count():
    for spec in DEGREES:
        t = table_for(spec)
        assert sum(d * d for d in t.degrees) == t.group_order
        assert len(t.values) == t.classes.count
        for i, d in enumerate(t.degrees):
            assert t.row(i)[0].as_int() == d > 0


def psl2_degrees(p):
    """The degrees of PSL(2,p), p an odd prime >= 5, in closed form
    (Fulton and Harris, Representation Theory, section 5.2)."""
    eps = 1 if p % 4 == 1 else -1
    plus = (p - 5) // 4 if eps == 1 else (p - 3) // 4
    minus = (p - 1) // 4 if eps == 1 else (p - 3) // 4
    return sorted([1, p] + [p + 1] * plus + [p - 1] * minus
                  + [(p + eps) // 2] * 2)


def alternating_degrees(n):
    """The degrees of A_n read off the S_n table: chi_lambda restricts
    irreducibly once for each pair lambda != lambda', and splits into
    two halves for a self-associate lambda."""
    labels, columns, values = symchar.sn_table(n)
    one = columns.index((1,) * n)
    degrees = []
    for lam, row in zip(labels, values):
        associate = symchar.conjugate(lam)
        if lam == associate:
            degrees += [row[one] // 2] * 2
        elif lam > associate:
            degrees.append(row[one])
    return sorted(degrees)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_psl2_degrees_match_the_closed_form(analyses, p):
    table = analyses(f"PSL(2,{p})").table
    assert table.classes.count == (p + 5) // 2
    assert sorted(table.degrees) == psl2_degrees(p)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_alternating_degrees_match_symmetric_characters(analyses, n):
    assert sorted(analyses(f"A{n}").table.degrees) == alternating_degrees(n)


def test_s3_table_frozen():
    t = table_for("S3")
    # canonical row order: sign, trivial, standard
    rows = [[v.as_int() for v in t.row(i)] for i in range(3)]
    assert rows == [[1, -1, 1], [1, 1, 1], [2, 0, -1]]
    assert t.modulus == 7


def test_a5_irrational_values():
    t = table_for("A5")
    reps = t.classes.reps
    five_cols = [j for j, r in enumerate(reps) if perm_order(r) == 5]
    assert len(five_cols) == 2
    golden = Cyc.make(5, (0, 0, 1)) + Cyc.make(5, (0, 0, 0, 1))  # (-1-sqrt5)/2
    rows3 = [i for i, d in enumerate(t.degrees) if d == 3]
    vals = {(i, j): t.row(i)[j] for i in rows3 for j in five_cols}
    # each degree-3 row carries both golden-ratio conjugates
    for i in rows3:
        got = sorted(str(vals[(i, j)]) for j in five_cols)
        want = sorted([str(Cyc.integer(1) + golden),
                       str(Cyc.integer(0) - golden)])
        assert got == want
    assert t.modulus == 31


def test_row_orthogonality_exact():
    for spec in ("S4", "A5"):
        t = table_for(spec)
        cls = t.classes
        n = cls.count
        for i in range(n):
            for j in range(n):
                total = Cyc.integer(0)
                for k in range(n):
                    inv = cls.inverse_class(k)
                    total = total + (Cyc.integer(cls.sizes[k])
                                     * t.row(i)[k] * t.row(j)[inv])
                want = t.group_order if i == j else 0
                assert (total - Cyc.integer(want)).is_zero(), (spec, i, j)


def test_column_orthogonality_exact():
    for spec in ("S4", "A5"):
        t = table_for(spec)
        cls = t.classes
        n = cls.count
        for k in range(n):
            for l in range(n):
                total = Cyc.integer(0)
                for i in range(n):
                    total = total + t.row(i)[k] * t.row(i)[cls.inverse_class(l)]
                want = t.group_order // cls.sizes[k] if k == l else 0
                assert (total - Cyc.integer(want)).is_zero(), (spec, k, l)


def test_orthogonality_certificate_raises(monkeypatch):
    # a nullspace that repeats its first answer gives both lines of C2
    # the same character: the degrees still square-sum to |G|, but the
    # two rows are not orthogonal
    first = []

    def repeat_first(mat, ell):
        if not first:
            first.append(nullspace(mat, ell))
        return first[0]

    monkeypatch.setattr(dixon, "nullspace", repeat_first)
    with pytest.raises(ArithmeticError, match="orthogonality"):
        character_table(conjugacy_classes(catalog.catalog_group("C2")))


def test_one_root_non_scalar_restriction_raises(monkeypatch):
    # a restriction with one eigenvalue is diagonalisable only when it is
    # scalar; a characteristic polynomial (x - c)^d for S4's first,
    # non-scalar restriction must reach the diagonalisability certificate
    # rather than keep the space whole
    def one_root(mat, ell):
        assert any(x for a, row in enumerate(mat)
                   for c, x in enumerate(row) if a != c)
        return reduce(lambda f, _: poly_mul(f, (-mat[0][0] % ell, 1), ell),
                      mat, (1,))

    monkeypatch.setattr(dixon, "charpoly", one_root)
    with pytest.raises(ArithmeticError, match="not diagonalisable"):
        table_for("S4")


def test_one_root_search_per_characteristic_polynomial(monkeypatch):
    # a space that is already an eigenspace restricts to a scalar, and a
    # direct product repeats its factors' polynomials: a root search on
    # every restriction took 6, 31 and 43 searches for these tables
    searches = []

    def counted(f, p):
        searches.append(f)
        return poly_roots(f, p)

    monkeypatch.setattr(dixon, "poly_roots", counted)
    for spec in ("A5 x A5", "C6 x A5", "S5 x C7"):
        searches.clear()
        table_for(spec)
        assert 0 < len(searches) <= 2, (spec, len(searches))
        assert len(set(searches)) == len(searches), spec


def test_linear_table_past_the_class_cap(monkeypatch):
    # C11 x C11 has 121 classes, past the table cap, so only here does
    # splitting run at k > 60.  The group is abelian, so every row has
    # degree 1 and is a homomorphism into the 11th roots of unity:
    # chi(rep_a rep_b) = chi(rep_a) chi(rep_b), checked on exponents
    monkeypatch.setattr(caps, "TABLE_CLASS_CAP", 200)
    t = table_for("C11 x C11")
    cls = t.classes
    assert t.degrees == (1,) * 121 == (1,) * cls.count
    exponent = {Cyc.make(11, (0,) * e + (1,)).key(): e for e in range(11)}
    exponent[Cyc.integer(1).key()] = 0
    products = [(a, b, cls.class_of(x * y))
                for a, x in enumerate(cls.reps) for b, y in enumerate(cls.reps)]
    for row in t.values:
        e = [exponent[v.key()] for v in row]
        assert all(e[c] == (e[a] + e[b]) % 11 for a, b, c in products)


def test_non_square_degree_raises(monkeypatch):
    # for C2, l = 3 and the line (1, 0) has norm 1, so d^2 = |G| = 2,
    # which is not a square mod 3: no degree exists, an internal failure
    monkeypatch.setattr(dixon, "_eigenlines",
                        lambda classes, ell: [[1, 0], [1, 1]])
    with pytest.raises(ArithmeticError, match="impossible character degree"):
        character_table(conjugacy_classes(catalog.catalog_group("C2")))


def test_lift_certificate_raises():
    # swapping the classes of rep^2 and rep^3 keeps rep^-1, so the
    # splitting and the orthogonality certificate still pass, but the
    # inverse DFT over the powers of rep no longer gives multiplicities
    for spec in ("C5", "C7"):
        cls = conjugacy_classes(catalog.catalog_group(spec))
        row = list(cls._power[1])
        row[2], row[3] = row[3], row[2]
        doctored = dataclasses.replace(
            cls, _power=(cls._power[0], tuple(row), *cls._power[2:]))
        with pytest.raises(ArithmeticError, match="invalid multiplicity"):
            character_table(doctored)


def test_galois_image_certificate_raises():
    # C6: class 5 is rep_1 ** 5, read off class 1 as a Galois image.  A
    # power map of class 5 that claims order 3 (keeping its inverse
    # class, so the orthogonality certificate passes) puts that image
    # at the wrong conductor, and it no longer gives chi(rep_5) mod l
    cls = conjugacy_classes(catalog.catalog_group("C6"))
    assert cls.rational_classes[5] == (1, 5)
    doctored = dataclasses.replace(cls, _power=(*cls._power[:5], (0, 5, 1)))
    assert doctored.rational_classes[5] == (1, 5)
    with pytest.raises(ArithmeticError, match="Galois image"):
        character_table(doctored)


def test_burnside_certificate_raises(monkeypatch):
    # every nonlinear row of A5 vanishes somewhere; reducing each zero
    # value to 1 leaves the rows of degree 3, 4 and 5 without a zero
    make = Cyc.make

    def no_zeros(m, raw):
        value = make(m, raw)
        return make(m, (1,)) if value.is_zero() else value

    monkeypatch.setattr(Cyc, "make", staticmethod(no_zeros))
    with pytest.raises(ArithmeticError, match="nonlinear character has no zero"):
        table_for("A5")


def dft_lift(classes, ell, exponent, degrees, ratios):
    """Reference lift: one m x m inverse DFT over the powers of each
    class representative, every class and every character on its own,
    one reduction per value."""
    root_e = pow(primitive_root(ell), (ell - 1) // exponent, ell)
    rows = [[] for _ in degrees]
    for j, m in enumerate(classes.orders):
        columns = [classes.power_class(j, s) for s in range(m)]
        powers = [pow(root_e, exponent // m * t, ell) for t in range(m)]
        m_inv = pow(m, -1, ell)
        dft = [[m_inv * powers[-t * s % m] % ell for s in range(m)]
               for t in range(m)]
        for d, ratio, row in zip(degrees, ratios, rows):
            theta = [d * ratio[c] for c in columns]
            mults = [sum(a * b for a, b in zip(coeffs, theta)) % ell
                     for coeffs in dft]
            assert max(mults) <= d and sum(mults) == d
            row.append(Cyc.make(m, tuple(mults)))
    return rows


def table_checked_by_dft_oracle(classes):
    """The engine's table, after checking that its lift gives the same
    values as the full inverse DFT from the same degrees and ratios."""
    lift = dixon._lift
    calls = []

    def checked(*args):
        rows = lift(*args)
        assert ([[v.key() for v in row] for row in rows]
                == [[v.key() for v in row] for row in dft_lift(*args)])
        calls.append(args)
        return rows

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dixon, "_lift", checked)
        table = character_table(classes)
    assert len(calls) == 1
    return table


def test_lift_matches_dft_oracle():
    # C15: every power its own class; S5 x C7 and C6 x A5: many rational
    # classes of several power classes each
    for spec in ("C15", "S5 x C7", "C6 x A5", "PSL(2,13)", "A5 x A5"):
        table_checked_by_dft_oracle(
            conjugacy_classes(catalog.catalog_group(spec)))


def test_tables_are_deterministic():
    a = table_for("S5")
    b = table_for("S5")
    assert a.degrees == b.degrees
    assert [[str(v) for v in row] for row in a.values] == \
           [[str(v) for v in row] for row in b.values]
    assert a.modulus == b.modulus


def test_dixon_prime_choice():
    # l = 1 (mod exponent), l^2 > 4|G|
    assert table_for("S3").modulus == 7
    assert table_for("A5").modulus == 31
    assert dixon_prime(60, 30) == 31


def test_trivial_group_table():
    # one class: the general path gives the trivial character mod 3
    for group in (catalog.catalog_group("C1"), PermGroup([], degree=3)):
        t = character_table(conjugacy_classes(group))
        assert t.degrees == (1,)
        assert t.values == ((Cyc.integer(1),),)
        assert t.modulus == 3


def structure_constants(cls):
    """a[i][j][k] for every i, j, k, read off the class matrices."""
    mats = [class_matrix(cls, i) for i in range(cls.count)]
    return lambda i, j, k: mats[i][k][j]


def test_class_matrix_row_sums():
    cls = conjugacy_classes(catalog.catalog_group("S4"))
    a = structure_constants(cls)
    n = cls.count
    elements = cls.group.elements()
    for i in range(n):
        for j in range(n):
            total = sum(a(i, j, k) * cls.sizes[k] for k in range(n))
            assert total == cls.sizes[i] * cls.sizes[j]
        # each x in class i sends rep_k to exactly one class
        for k in range(n):
            assert sum(a(i, j, k) for j in range(n)) == cls.sizes[i]
    # independent count: pairs (x, y) in C_i x C_j with x * y = rep_k
    for i in range(n):
        for j in range(n):
            for k in range(n):
                want = sum(1 for x in elements if cls.class_of(x) == i
                           for y in elements if cls.class_of(y) == j
                           and x * y == cls.reps[k])
                assert a(i, j, k) == want, (i, j, k)


def test_class_matrix_match_characters():
    # |C_i| x_i * |C_j| x_j = deg * sum_k a_ijk |C_k| x_k on every row
    spec = "A5"
    cls = conjugacy_classes(catalog.catalog_group(spec))
    a = structure_constants(cls)
    t = character_table(cls)
    n = cls.count
    for i in range(n):
        for j in range(n):
            for r in range(n):
                row = t.row(r)
                left = (Cyc.integer(cls.sizes[i]) * row[i]
                        * Cyc.integer(cls.sizes[j]) * row[j])
                right = Cyc.integer(0)
                for k in range(n):
                    right = right + Cyc.integer(a(i, j, k)
                                                * cls.sizes[k]) * row[k]
                right = Cyc.integer(t.degrees[r]) * right
                assert (left - right).is_zero(), (i, j, r)


two_generator_groups = st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.permutations(range(n)), st.permutations(range(n)))).map(
    lambda images: PermGroup([Perm(tuple(im)) for im in images],
                             degree=len(images[0])))


@settings(max_examples=25, deadline=None)
@given(two_generator_groups)
def test_random_two_generator_tables(group):
    t = table_checked_by_dft_oracle(conjugacy_classes(group))
    assert len(t.degrees) == len(t.values) == t.classes.count
    assert all(group.order % d == 0 for d in t.degrees)
    assert sum(d * d for d in t.degrees) == group.order


@settings(max_examples=25, deadline=None)
@given(two_generator_groups)
def test_random_two_generator_classes(group):
    # brute force with Perm products: class j is every conjugate of
    # rep_j, and rep_j ** e is a repeated product
    cls = conjugacy_classes(group)
    elements = group.elements()
    brute = {}
    for j, rep in enumerate(cls.reps):
        conjugates = {(h.inverse() * rep * h).images for h in elements}
        assert len(conjugates) == cls.sizes[j]
        assert not conjugates & brute.keys()
        brute.update(dict.fromkeys(conjugates, j))
    assert len(brute) == group.order
    assert all(cls.class_of(x) == brute[x.images] for x in elements)
    assert sum(map(len, cls.members)) == group.order
    keys = list(cls.enumeration.ids)
    assert {tuple(keys[y]): j for j, ys in enumerate(cls.members)
            for y in ys} == brute
    first = {}
    for x in elements:
        first.setdefault(brute[x.images], x)
    assert list(first.values()) == list(cls.reps)
    assert cls.orders == tuple(perm_order(rep) for rep in cls.reps)
    for j, rep in enumerate(cls.reps):
        power = inverse_power = Perm.identity(group.degree)
        for e in range(2 * perm_order(rep) + 1):
            assert cls.power_class(j, e) == brute[power.images]
            assert cls.power_class(j, -e) == brute[inverse_power.images]
            power = power * rep
            inverse_power = inverse_power * rep.inverse()


def full_matrix_eigenlines(classes, ell):
    """Reference splitting: whole class matrices in index order, each
    space restricted by solving B R = M B over all k coordinates."""
    k = classes.count
    spaces = [[[int(a == b) for a in range(k)] for b in range(k)]]
    for i in range(1, k):
        if all(len(s) == 1 for s in spaces):
            break
        mat = class_matrix(classes, i)
        nxt = []
        for space in spaces:
            d = len(space)
            if d == 1:
                nxt.append(space)
                continue
            aug = [[b[t] for b in space]
                   + [sum(m * x for m, x in zip(mat[t], b)) % ell
                      for b in space]
                   for t in range(k)]
            red, pivots = rref(aug, ell)
            assert pivots[:d] == list(range(d))
            rt = [red[a][d:] for a in range(d)]
            roots = poly_roots(charpoly(rt, ell), ell)
            if len(roots) <= 1:
                nxt.append(space)
                continue
            parts = []
            for lam in roots:
                shifted = [[(rt[a][b] - (lam if a == b else 0)) % ell
                            for b in range(d)] for a in range(d)]
                parts.append([[sum(c * b[t] for c, b in zip(coords, space))
                               % ell for t in range(k)]
                              for coords in nullspace(shifted, ell)])
            assert sum(map(len, parts)) == d
            nxt.extend(parts)
        spaces = nxt
    assert all(len(s) == 1 for s in spaces)
    return [s[0] for s in spaces]


def oracle_and_engine(classes):
    """(degrees, values, modulus) from the engine and from the
    full-matrix splitting; the lift and the certificates are shared."""
    def fields(t):
        return t.degrees, [[v.key() for v in row] for row in t.values], t.modulus
    engine = fields(character_table(classes))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dixon, "_eigenlines", full_matrix_eigenlines)
        oracle = fields(character_table(classes))
    return oracle, engine


def test_row_splitting_matches_full_matrix_oracle():
    for spec in ("A8", "S8", "S7", "A7", "PSL(2,11)", "PSL(2,13)",
                 "A5 x A5", "C6 x A5", "S3 x A5", "S5 x C7"):
        oracle, engine = oracle_and_engine(
            conjugacy_classes(catalog.catalog_group(spec)))
        assert oracle == engine, spec


@settings(max_examples=25, deadline=None)
@given(two_generator_groups)
def test_random_row_splitting_matches_full_matrix_oracle(group):
    oracle, engine = oracle_and_engine(conjugacy_classes(group))
    assert oracle == engine


class CountingIds(dict):
    """An element-id map that counts lookups."""

    def __init__(self, ids):
        super().__init__(ids)
        self.lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


class CountingTable:
    """A right table that counts its lookups in a shared tally."""

    def __init__(self, table, tally):
        self.table = table
        self.tally = tally

    def __getitem__(self, x):
        self.tally["steps"] += 1
        return self.table[x]


def test_table_products_are_bounded_by_pivot_rows(monkeypatch):
    # whole class matrices took 238,216 products for S8 and 148,064 for
    # A8; pivot rows, smallest class first, take 931 and 33,480.  Each
    # product y * rep_r is one table step per letter of rep_r's word,
    # and no row looks up an image tuple.
    rows = []
    row = ConjugacyClasses.class_matrix_row

    def recorded(self, i, r):
        rows.append((i, r))
        return row(self, i, r)

    monkeypatch.setattr(ConjugacyClasses, "class_matrix_row", recorded)
    for spec, bound in (("S8", 5_000), ("A8", 50_000)):
        cls = conjugacy_classes(catalog.catalog_group(spec))
        tally = Counter()
        enumeration = Enumeration(
            CountingIds(cls.enumeration.ids),
            tuple(CountingTable(t, tally) for t in cls.enumeration.right),
            cls.enumeration.origin)
        counted = dataclasses.replace(
            cls, enumeration=enumeration,
            _rep_steps=tuple(enumeration.steps(ys[0]) for ys in cls.members))
        rows.clear()
        t = character_table(counted)
        products = sum(cls.sizes[i] for i, _ in rows)
        words = [len(cls.enumeration.word(ys[0])) for ys in cls.members]
        assert 0 < products <= bound, (spec, products)
        assert tally["steps"] == sum(cls.sizes[i] * words[r] for i, r in rows)
        assert enumeration.ids.lookups == 0
        assert t.degrees == character_table(cls).degrees


PRODUCT_ATOMS = ("C2", "C3", "C4", "C5", "C6", "C7", "S3", "D8", "D12",
                 "A4", "S4", "A5", "PSL(2,7)")


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(PRODUCT_ATOMS), st.sampled_from(PRODUCT_ATOMS))
@example("S3", "A5")
@example("C6", "A5")
@example("A5", "A5")
@example("D8", "S3")
@example("C7", "A5")
@example("S4", "PSL(2,7)")
@example("C5", "C7")
@example("C4", "C6")
@example("D12", "C3")
def test_direct_product_table_is_the_factors_tensor(analyses, h, k):
    # Irr(H x K) is every psi x phi over Irr(H) x Irr(K).  Each class of
    # H x K is matched to a pair of factor classes by restricting its
    # representative to each factor's points; the product's table and
    # the factors' tables are independent Dixon runs, with their own
    # primes and splitting paths
    product = analyses(f"{h} x {k}").table
    factors = (analyses(h).table, analyses(k).table)
    pairs = []
    for rep in product.classes.reps:
        pair, offset = [], 0
        for factor in factors:
            degree = factor.classes.group.degree
            part = rep.images[offset:offset + degree]
            pair.append(factor.classes.class_of(
                Perm(tuple(x - offset for x in part))))
            offset += degree
        pairs.append(pair)
    want = sorted(tuple((a[i] * b[j]).key() for i, j in pairs)
                  for a in factors[0].values for b in factors[1].values)
    assert sorted(tuple(v.key() for v in row)
                  for row in product.values) == want


def zero_columns(t, i):
    return {j for j, v in enumerate(t.values[i]) if v.is_zero()}


def vanishing_columns(t):
    return set().union(*(zero_columns(t, i) for i in range(len(t.degrees))))


def test_vanishing_column_set():
    t = table_for("S3")
    assert zero_columns(t, 2) == {1}
    assert vanishing_columns(t) == {1}
    t5 = table_for("A5")
    assert vanishing_columns(t5) == {1, 2, 3, 4}
    manual = {j for j in range(t5.classes.count)
              if any(t5.row(i)[j].is_zero() for i in range(len(t5.degrees)))}
    assert vanishing_columns(t5) == manual
    for table in (t, t5):
        assert vanishing_columns(table) == set(vanishing_class_indices(table))


def test_defect_zero_rows():
    s4 = table_for("S4")
    assert s4.defect_zero_rows(2) == ()
    assert {s4.degrees[i] for i in s4.defect_zero_rows(3)} == {3}
    a5 = table_for("A5")
    assert {a5.degrees[i] for i in a5.defect_zero_rows(2)} == {4}
    assert {a5.degrees[i] for i in a5.defect_zero_rows(3)} == {3}
    assert {a5.degrees[i] for i in a5.defect_zero_rows(5)} == {5}


def test_burnside_vanishing_gate_small():
    # Van(G) empty exactly when G is abelian
    for spec in ("C2", "C6", "C12", "S3", "A4", "D8", "A5"):
        t = table_for(spec)
        cls = t.classes
        abelian = all(s == 1 for s in cls.sizes)
        assert (not vanishing_columns(t)) == abelian, spec
