"""Symmetric-group characters by the Murnaghan-Nakayama rule on bead
sets, checked against the hook length formula, the sign character and
both orthogonality relations, whose oracles live here; and the classes
and tables of S_n and A_n from partitions, checked against the
enumerated classes and Dixon's tables."""

import math
from collections import Counter
from itertools import islice

import pytest

from vangraph import caps, harness, symchar
from vangraph.catalog import catalog_group
from vangraph.dixon import character_table
from vangraph.perms import Perm, PermGroup, parse_cycles
from vangraph.structure import (ConjugacyClasses, GroupStructure,
                                conjugacy_classes)
from vangraph.symchar import (SymmetricClasses, check_partition, conjugate,
                              is_self_associate, mn_value, partition_family,
                              partitions, sn_table, symmetric_classes,
                              symmetric_table, witness_cycle_type,
                              witness_partition)
from vangraph.vanishing import vanishing_report


def hook_lengths(lam):
    conj = conjugate(lam)
    # cell (i,j): arm lam[i]-j, leg conj[j-1]-i-1, plus the cell itself
    return tuple(
        tuple(lam[i] - j + conj[j - 1] - i for j in range(1, lam[i] + 1))
        for i in range(len(lam)))


def degree(lam):
    """Hook length formula; exact division."""
    hooks = math.prod(h for row in hook_lengths(lam) for h in row)
    d, r = divmod(math.factorial(sum(lam)), hooks)
    assert r == 0, lam
    return d


def cycle_type_sign(mu):
    """Sign of any permutation with this cycle type."""
    return -1 if (sum(mu) - len(mu)) % 2 else 1


def centralizer_order(mu):
    """|C_{S_n}(x)| for x of type mu: prod over lengths l of l^m * m!."""
    return math.prod(length ** m * math.factorial(m)
                     for length, m in Counter(mu).items())


def test_partition_counts():
    want = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert [len(list(partitions(n))) for n in range(1, 11)] == want


def test_partitions_order_and_shape():
    parts = list(partitions(5))
    assert parts[0] == (5,)
    assert parts[-1] == (1, 1, 1, 1, 1)
    for lam in parts:
        assert sum(lam) == 5
        assert all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))
    # reverse lexicographic
    assert parts == sorted(parts, reverse=True)


def test_conjugate():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((5,)) == (1, 1, 1, 1, 1)
    for n in range(1, 9):
        for lam in partitions(n):
            assert conjugate(conjugate(lam)) == lam


def test_self_associate():
    assert is_self_associate((2, 1))
    assert is_self_associate((3, 2, 1))
    assert not is_self_associate((3, 1))
    assert not is_self_associate((4,))


def test_hook_lengths_and_degree():
    assert hook_lengths((3, 1)) == ((4, 2, 1), (1,))
    assert hook_lengths((2, 2)) == ((3, 2), (2, 1))
    assert degree((2, 1)) == 2
    assert degree((5,)) == 1
    assert degree((1, 1, 1, 1)) == 1
    assert degree((3, 2)) == 5


def test_degree_squares_sum_to_factorial():
    for n in range(1, 9):
        total = sum(degree(lam) ** 2 for lam in partitions(n))
        assert total == math.factorial(n)


def test_cycle_type_sign_and_centralizer():
    assert cycle_type_sign((1, 1, 1)) == 1
    assert cycle_type_sign((2, 1)) == -1
    assert cycle_type_sign((3,)) == 1
    assert cycle_type_sign((2, 2)) == 1
    assert centralizer_order((1, 1, 1)) == 6
    assert centralizer_order((3,)) == 3
    assert centralizer_order((2, 1)) == 2
    for n in range(1, 9):
        # class sizes n!/z sum to n!
        total = sum(math.factorial(n) // centralizer_order(mu)
                    for mu in partitions(n))
        assert total == math.factorial(n)


def test_mn_value_oracles():
    assert mn_value((2, 1), (3,)) == -1
    assert mn_value((5, 2, 1), (2, 2, 2, 2)) == 0
    assert mn_value((2,), (1, 1)) == 1
    assert mn_value((1, 1), (2,)) == -1
    # no hook of length 5 in (3,2), so the value collapses to 0
    assert mn_value((3, 2), (5,)) == 0
    with pytest.raises(ValueError):
        mn_value((2, 1), (2, 2))


@pytest.mark.parametrize("lam", [(2.7,), ("2",), (3.9, 1.2), (2, 1.0)])
def test_parts_that_are_not_integers_are_refused(lam):
    # a float or a string part is refused, never truncated
    with pytest.raises(ValueError, match="parts must be integers"):
        check_partition(lam)
    with pytest.raises(ValueError, match="parts must be integers"):
        mn_value(lam, (1,) * 2)
    assert check_partition((True, 1)) == (1, 1)   # an int subclass


def test_mn_identity_column_is_degree():
    for n in range(1, 11):
        one = (1,) * n
        for lam in partitions(n):
            assert mn_value(lam, one) == degree(lam)


def test_mn_trivial_and_sign_rows():
    for n in range(1, 9):
        for mu in partitions(n):
            assert mn_value((n,), mu) == 1
            assert mn_value((1,) * n, mu) == cycle_type_sign(mu)


def test_mn_conjugate_symmetry():
    for n in range(1, 9):
        parts = list(partitions(n))
        for lam in parts:
            for mu in parts:
                assert mn_value(conjugate(lam), mu) == \
                    cycle_type_sign(mu) * mn_value(lam, mu)


def test_mn_column_orthogonality():
    for n in range(1, 7):
        parts = list(partitions(n))
        for mu in parts:
            for nu in parts:
                total = sum(mn_value(lam, mu) * mn_value(lam, nu)
                            for lam in parts)
                want = centralizer_order(mu) if mu == nu else 0
                assert total == want


def test_sn_table_row_orthogonality():
    # sum over mu of (n!/z_mu) chi_lam(mu) chi_nu(mu) = n! delta
    for n in range(1, 9):
        labels, cols, values = sn_table(n)
        sizes = [math.factorial(n) // centralizer_order(mu) for mu in cols]
        for i in range(len(labels)):
            for j in range(len(labels)):
                total = sum(s * a * b for s, a, b
                            in zip(sizes, values[i], values[j]))
                assert total == (math.factorial(n) if i == j else 0), (n, i, j)


def test_mn_value_on_long_identity_column():
    # chi_(m,m)(1) counts standard tableaux of shape (m,m): the Catalan
    # number C(2m,m)/(m+1); 600 cycles, far deeper than a recursion goes
    assert mn_value((300, 300), (1,) * 600) == math.comb(600, 300) // 301
    assert mn_value((600,), (1,) * 600) == 1
    assert mn_value((1,) * 600, (2,) * 300) == 1


def test_sn_table_matches_mn_value():
    # sn_table shares its rim-hook removals across rows and columns;
    # mn_value runs the rule alone for each pair
    for n in range(10):
        rows, cols, values = sn_table(n)
        assert [[mn_value(lam, mu) for mu in cols] for lam in rows] == \
            [list(row) for row in values], n


def test_sn_table_shape():
    rows, cols, values = sn_table(5)
    assert rows == cols == tuple(partitions(5))
    assert len(values) == 7
    assert values[0][-1] == 1  # trivial character at the identity column
    again = sn_table(5)
    assert again == (rows, cols, values)


def test_witness_partitions_frozen():
    assert witness_partition(8, 2, False) == (5, 2, 1)
    assert witness_partition(9, 2, True) == (8, 1)
    assert witness_partition(12, 3, False) == (8, 3, 1)
    assert witness_partition(14, 7, False) == (11, 2, 1)
    assert witness_partition(13, 3, True) == (12, 1)


def test_witness_partition_contract_exhaustive():
    # every valid (n, t): a non-self-associate partition whose character
    # vanishes on the witness cycle type
    for n in range(7, 15):
        for t in range(2, n + 1):
            for fixed in (False, True):
                size = n - 1 if fixed else n
                if size % t:
                    continue
                lam = witness_partition(n, t, fixed)
                assert sum(lam) == n
                assert not is_self_associate(lam)
                mu = witness_cycle_type(n, t, fixed)
                assert sum(mu) == n
                assert sorted(set(mu)) in ([t], [1, t])
                assert mn_value(lam, mu) == 0


def test_witness_partition_rejections():
    with pytest.raises(ValueError):
        witness_partition(6, 2, False)   # n too small
    with pytest.raises(ValueError):
        witness_partition(8, 1, False)   # t too small
    with pytest.raises(ValueError):
        witness_partition(8, 3, False)   # t does not divide n
    with pytest.raises(ValueError):
        witness_partition(8, 3, True)    # t does not divide n-1


# The partition path against the enumerated one: the class search and
# Dixon's table are the oracle wherever both run.

SYMMETRIC_ATOMS = [f"S{n}" for n in range(1, 9)] + [f"A{n}" for n in range(3, 10)]

# S_n and A_n on other generating sets than the catalog's, and the
# trivial group, which is S_0, S_1 and A_2 on 0, 1 and 2 points
GENERATED = {
    "S5 on (1 3 5 2 4), (2 5)": (5, ["(1 3 5 2 4)", "(2 5)"]),
    "A6 on (1 2 3), (2 3 4 5 6)": (6, ["(1 2 3)", "(2 3 4 5 6)"]),
    "A5 on (1 2)(3 4), (1 3 5)": (5, ["(1 2)(3 4)", "(1 3 5)"]),
    "A7 on three generators": (7, ["(1 2 3)", "(3 4 5)", "(1 4 6 7 5)"]),
    "S6 on three generators": (6, ["(1 2)(3 4 5)", "(2 3 4 5 6)", "(1 6)"]),
    "S0, the trivial group": (0, []),
    "S1, the trivial group": (1, []),
    "A2, the trivial group": (2, []),
}


def group_of(spec):
    """The group of a catalog description or of a key of GENERATED."""
    if spec not in GENERATED:
        return catalog_group(spec)
    degree, cycles = GENERATED[spec]
    return PermGroup([parse_cycles(c, degree) for c in cycles], degree=degree)


def partition_path(spec):
    classes = symmetric_classes(group_of(spec))
    return classes, symmetric_table(classes)


def table_key(table):
    return (table.degrees,
            tuple(tuple(c.key() for c in row) for row in table.values),
            table.modulus)


@pytest.mark.parametrize("spec", SYMMETRIC_ATOMS + list(GENERATED))
def test_partition_path_matches_the_enumerated_path(spec):
    enumerated = conjugacy_classes(group_of(spec))
    assert partition_family(enumerated.group) == spec[0]
    classes, table = partition_path(spec)
    assert classes.count == enumerated.count
    assert classes.sizes == enumerated.sizes
    assert classes.orders == enumerated.orders
    assert [[classes.power_class(j, e) for e in range(m)]
            for j, m in enumerate(classes.orders)] == \
        [[enumerated.power_class(j, e) for e in range(m)]
         for j, m in enumerate(enumerated.orders)]
    assert classes.rational_classes == enumerated.rational_classes
    assert [r.images for r in classes.reps] == \
        [r.images for r in enumerated.reps]
    # class_of on every element up to S6 and A6; above, on every
    # representative's powers and on the first and last members the
    # class search reached, both halves of each split pair among them
    if enumerated.group.order <= 720:
        ids = range(enumerated.group.order)
    else:
        ids = {y for ys in enumerated.members for y in (*ys[:20], *ys[-20:])}
    keys = list(enumerated.enumeration.ids)
    for y in ids:
        g = Perm(tuple(keys[y]))
        assert classes.class_of(g) == enumerated.class_of_element[y]
    for j, rep in enumerate(classes.reps):
        power = rep
        for e in range(1, classes.orders[j] + 1):
            assert classes.class_of(power) == classes.power_class(j, e)
            power = power * rep
    assert table_key(table) == table_key(character_table(enumerated))


def enumerated_analysis(spec):
    """``harness.analyze``'s enumerated path, taken explicitly."""
    group = catalog_group(spec) if isinstance(spec, str) else spec
    classes = conjugacy_classes(group)
    table = character_table(classes)
    structure = GroupStructure(table)
    structure.chief_factors
    structure.derived_series
    return harness.Analysis(
        spec=spec if isinstance(spec, str) else "<group>", group=group,
        classes=classes, structure=structure, table=table,
        vanishing=vanishing_report(table))


def assert_reports_match(spec):
    fast = harness.analyze(spec)
    slow = enumerated_analysis(spec)
    assert isinstance(fast.classes, SymmetricClasses)
    assert isinstance(slow.classes, ConjugacyClasses)
    assert fast.spec == slow.spec
    assert harness.report_dict(fast, harness.check_theorems(fast)) == \
        harness.report_dict(slow, harness.check_theorems(slow))


# C2, C3, D6 and PSL(2,3) are S2, A3, S3 and A4 on their points
@pytest.mark.parametrize("spec", SYMMETRIC_ATOMS + ["C2", "C3", "D6", "PSL(2,3)"])
def test_partition_path_reports_match(spec):
    assert_reports_match(spec)


@pytest.mark.parametrize("spec", GENERATED)
def test_generated_groups_take_the_partition_path(spec, tmp_path):
    # as a PermGroup, and as a generator file, which needs a point
    assert_reports_match(group_of(spec))
    degree, cycles = GENERATED[spec]
    if degree:
        path = tmp_path / "group.grp"
        path.write_text("\n".join([f"degree: {degree}", *cycles]) + "\n")
        assert_reports_match(f"file:{path}")


def test_other_groups_are_neither_sn_nor_an():
    # index 3, 6, 6, 12, 20 and 4 (S3 with a fixed point) in S_n
    for spec in ("D8", "C4", "C2 x C2", "PSL(2,5)", "S3 x S3", "S3 x S1"):
        assert partition_family(catalog_group(spec)) is None
    with pytest.raises(ValueError, match="neither S_n nor A_n"):
        symmetric_classes(catalog_group("D8"))


def test_partition_path_never_enumerates(monkeypatch):
    def refuse(group):
        raise AssertionError("the group was enumerated")

    monkeypatch.setattr(PermGroup, "_enumeration", property(refuse))
    for spec in ("S8", "A9"):
        analysis = harness.analyze(spec)
        verdicts = harness.check_theorems(analysis)
        assert {v.status for v in verdicts} <= {"PASS", "VACUOUS"}
        harness.report_dict(analysis, verdicts)
        socle = harness._unique_nonabelian_minimal(analysis)
        assert harness._is_simple(analysis, socle)
    other_a9 = PermGroup([parse_cycles("(1 2 3 4 5)", 9),
                          parse_cycles("(5 6 7 8 9)", 9)])
    for spec in ("C2", "C3", "D6", "PSL(2,3)", other_a9):
        analysis = harness.analyze(spec)
        assert isinstance(analysis.classes, SymmetricClasses)
        harness.report_dict(analysis, harness.check_theorems(analysis))


def test_partition_class_of_refuses_other_permutations():
    classes, _ = partition_path("A5")
    with pytest.raises(ValueError, match="element not in group"):
        classes.class_of(Perm((1, 0, 2, 3, 4)))
    with pytest.raises(ValueError, match="element not in group"):
        classes.class_of(Perm.identity(6))


@pytest.mark.parametrize("enum_cap, class_cap", [
    ("100", 60), ("1000", 4), ("100", 4)])
def test_partition_path_refuses_at_the_same_caps(monkeypatch, enum_cap,
                                                 class_cap):
    # the order against the enumeration cap first, then the class count
    monkeypatch.setenv("VG_ENUM_CAP", enum_cap)
    monkeypatch.setattr(caps, "TABLE_CLASS_CAP", class_cap)
    messages = []
    for path in (harness.analyze, enumerated_analysis):
        with pytest.raises(caps.CapExceeded) as exc:
            path("S5")
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def test_partition_certificates(monkeypatch):
    # a class size off by a factor of two: the sizes miss |G|
    centralizer = symchar._centralizer_order
    monkeypatch.setattr(symchar, "_centralizer_order", lambda mu: centralizer(
        mu) * (2 if mu == (3, 1, 1) else 1))
    with pytest.raises(ArithmeticError, match="class sizes do not sum"):
        partition_path("A5")
    monkeypatch.undo()
    # the walk stopped short of the last class
    walk = PermGroup.walk
    monkeypatch.setattr(PermGroup, "walk",
                        lambda group: islice(walk(group), 10))
    with pytest.raises(ArithmeticError, match="the walk reached"):
        partition_path("S6")
    monkeypatch.undo()
    # one value of S_6's (4,2) row flipped in sign
    labels, cols, values = sn_table(6)
    doctored = [list(row) for row in values]
    i, j = labels.index((4, 2)), cols.index((2, 1, 1, 1, 1))
    assert doctored[i][j]
    doctored[i][j] = -doctored[i][j]
    monkeypatch.setattr(symchar, "sn_table", lambda n: (
        labels, cols, tuple(map(tuple, doctored))))
    with pytest.raises(ArithmeticError, match="orthogonality"):
        partition_path("S6")
    with pytest.raises(ArithmeticError, match="orthogonality"):
        partition_path("A6")
