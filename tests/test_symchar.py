"""Symmetric-group characters by the Murnaghan-Nakayama rule on bead
sets, checked against the hook length formula, the sign character and
both orthogonality relations, whose oracles live here."""

import math
from collections import Counter

import pytest

from vangraph.symchar import (conjugate, is_self_associate, mn_value,
                              partitions, sn_table, witness_cycle_type,
                              witness_partition)


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
