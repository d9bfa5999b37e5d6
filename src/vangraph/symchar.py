"""Symmetric group characters from partition combinatorics.

Character values come from the Murnaghan-Nakayama rule, run on the
beta-number (abacus) encoding: a partition lambda with l parts is the
bead set {lambda_i + l - 1 - i}, removing a rim hook of length r is
moving one bead b to the empty slot b - r, and the sign of the move is
(-1)^(number of beads passed).  The rule is one loop over the cycle
lengths that keeps a signed count per bead set reached; a bead set
reached along several paths is carried once.  Everything is exact
integer arithmetic.

Partitions are plain tuples of weakly decreasing positive integers;
cycle types are the same shape (fixed points written as parts of 1).
"""
from __future__ import annotations

from functools import cache
from typing import Iterator


def partitions(n: int, largest: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of n in reverse lexicographic order, (n) first."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield ()
        return
    if largest is None or largest > n:
        largest = n
    for first in range(largest, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def check_partition(lam) -> tuple[int, ...]:
    lam = tuple(int(p) for p in lam)
    if any(p <= 0 for p in lam):
        raise ValueError(f"parts must be positive: {lam}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {lam}")
    return lam


def conjugate(lam) -> tuple[int, ...]:
    """Transpose of the Young diagram.

    >>> conjugate((3, 1))
    (2, 1, 1)
    """
    lam = check_partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


def is_self_associate(lam) -> bool:
    lam = check_partition(lam)
    return lam == conjugate(lam)


def mn_value(lam, mu) -> int:
    """Character value chi_lambda on cycle type mu, |lam| = |mu|.

    >>> mn_value((2, 1), (3,))
    -1
    >>> mn_value((5, 2, 1), (2, 2, 2, 2))
    0
    """
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"sizes differ: |{lam}| != |{mu}|")
    ell = len(lam)
    counts = {frozenset(p + ell - 1 - i for i, p in enumerate(lam)): 1}
    for r in mu:   # largest cycle first
        after: dict[frozenset[int], int] = {}
        for beads, count in counts.items():
            for b in beads:
                if b < r or b - r in beads:
                    continue
                passed = sum(1 for c in beads if b - r < c < b)   # leg length
                moved = beads - {b} | {b - r}
                after[moved] = after.get(moved, 0) + (-1) ** passed * count
        counts = after
    return sum(counts.values())


def witness_partition(n: int, t: int,
                      has_fixed_point: bool) -> tuple[int, ...]:
    """A non-self-associate partition of n whose character vanishes on
    permutations of type (t,...,t) (no fixed point) or (t,...,t,1).

    The witness is (n-1,1) when a fixed point is present; otherwise
    (n-t-1,t,1) when the type has at least three cycles, and (n-3,2,1)
    when it has one or two.  Both claimed properties are re-verified on
    every call, so a wrong witness can never escape silently.
    """
    if n < 7 or t < 2:
        raise ValueError("need n >= 7 and t >= 2")
    mu = witness_cycle_type(n, t, has_fixed_point)
    if has_fixed_point:
        wit = (n - 1, 1)
    else:
        wit = (n - t - 1, t, 1) if len(mu) >= 3 else (n - 3, 2, 1)
    if mn_value(wit, mu) != 0:
        raise AssertionError(f"witness {wit} does not vanish on {mu}")
    if is_self_associate(wit):
        raise AssertionError(f"witness {wit} is self-associate")
    return wit


def witness_cycle_type(n: int, t: int,
                       has_fixed_point: bool) -> tuple[int, ...]:
    if has_fixed_point:
        if (n - 1) % t:
            raise ValueError(f"t must divide n-1: t={t}, n={n}")
        return (t,) * ((n - 1) // t) + (1,)
    if n % t:
        raise ValueError(f"t must divide n: t={t}, n={n}")
    return (t,) * (n // t)


@cache
def sn_table(n: int) -> tuple[tuple[tuple[int, ...], ...],
                              tuple[tuple[int, ...], ...],
                              tuple[tuple[int, ...], ...]]:
    """Full S_n character table by the Murnaghan-Nakayama rule.

    Returns (row labels, column labels, values): rows and columns are
    both indexed by partitions of n in reverse lexicographic order,
    columns read as cycle types.
    """
    labels = tuple(partitions(n))
    values = tuple(tuple(mn_value(lam, mu) for mu in labels)
                   for lam in labels)
    return labels, labels, values
