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
from vangraph.harness import DEFAULT_C44_CONFIGS
from vangraph.perms import Perm, PermGroup
from vangraph.structure import ConjugacyClasses, conjugacy_classes
from vangraph.symchar import (SymmetricClasses, conjugate, is_self_associate,
                              mn_value, partitions, sn_table,
                              symmetric_classes, symmetric_table,
                              witness_cycle_type, witness_partition)


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


def partition_path(spec):
    group = catalog_group(spec)
    classes = symmetric_classes(group, alternating=spec[0] == "A")
    return classes, symmetric_table(classes)


def table_key(table):
    return (table.degrees,
            tuple(tuple(c.key() for c in row) for row in table.values),
            table.modulus)


@pytest.mark.parametrize("spec", SYMMETRIC_ATOMS)
def test_partition_path_matches_the_enumerated_path(spec):
    enumerated = conjugacy_classes(catalog_group(spec))
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
    for y in ids:
        g = Perm(enumerated.enumeration.images(y))
        assert classes.class_of(g) == enumerated.class_of_element[y]
    for j, rep in enumerate(classes.reps):
        power = rep
        for e in range(1, classes.orders[j] + 1):
            assert classes.class_of(power) == classes.power_class(j, e)
            power = power * rep
    assert table_key(table) == table_key(character_table(enumerated))


@pytest.mark.parametrize("spec", SYMMETRIC_ATOMS)
def test_partition_path_reports_match(spec):
    # analyze(PermGroup) takes the enumerated path; CHK-C44's
    # configurations are keyed by the spec, so they are renamed to it
    configs = [dict(c, group="<group>") for c in DEFAULT_C44_CONFIGS
               if c["group"] == spec]
    fast = harness.analyze(spec)
    slow = harness.analyze(catalog_group(spec))
    assert isinstance(fast.classes, SymmetricClasses)
    assert isinstance(slow.classes, ConjugacyClasses)
    fast_report = harness.report_dict(fast, harness.check_theorems(fast))
    slow_report = harness.report_dict(slow, harness.check_theorems(
        slow, c44_configs=configs))
    assert fast_report.pop("spec") == spec
    assert slow_report.pop("spec") == "<group>"
    assert fast_report == slow_report


def test_partition_path_never_enumerates(monkeypatch):
    def refuse(group):
        raise AssertionError("the group was enumerated")

    monkeypatch.setattr(PermGroup, "_enumeration", property(refuse))
    for spec in ("S8", "A9"):
        analysis = harness.analyze(spec)
        verdicts = harness.check_theorems(analysis)
        assert {v.status for v in verdicts} <= {"PASS", "VACUOUS"}
        harness.report_dict(analysis, verdicts)
        assert analysis.group.class_noncommuting_connected(
            analysis.classes.reps[1])


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
    for spec in ("S5", catalog_group("S5")):
        with pytest.raises(caps.CapExceeded) as exc:
            harness.analyze(spec)
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
