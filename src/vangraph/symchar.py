"""Symmetric group characters from partition combinatorics, and the
class layer and character table of S_n and A_n read off partitions.

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

``symmetric_classes`` and ``symmetric_table`` give any group that is
S_n or A_n on its n points, as ``partition_family`` reads off its
order, the same classes, in the same order, and the same table as
``structure.conjugacy_classes`` and ``dixon.character_table``, without
enumerating the group or splitting a Dixon table.  The classes of S_n
are the cycle types; those of A_n are the even types, a type of
distinct odd parts split in two (James and Kerber, *The Representation
Theory of the Symmetric Group*, 1.2.10).  They are numbered by the
breadth-first walk of the enumeration, stopped once every class is
reached.  S_n's rows are ``sn_table``'s; A_n's are the restrictions of
one character of each associate pair, and two constituents of each
self-associate one, with the values of James and Kerber, Theorem
2.5.13, on the split pair of its diagonal hook type.
"""
from __future__ import annotations

import operator
from collections import Counter
from functools import cache
from math import factorial, lcm, prod
from operator import mul
from typing import Iterator

from . import caps
from .cyclo import Cyc
from .dixon import CharacterTable, sorted_table
from .numth import dixon_prime, factorint
from .perms import Perm, PermGroup, cycle_type_of, cycles_of, parity_of
from .structure import ClassFacts


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
    try:
        lam = tuple(map(operator.index, lam))
    except TypeError:
        raise ValueError(f"parts must be integers: {lam!r}") from None
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

    The rim-hook removals are shared across rows and columns: every
    partition is held as the bit mask of its n beads, so a partition
    has one mask whichever row it was reached from, and the value of
    (mask, remaining cycle lengths) is computed once.
    """
    labels = tuple(partitions(n))
    removals: dict[tuple[int, tuple[int, ...]], int] = {}

    def value(beads: int, mu: tuple[int, ...]) -> int:
        if not mu:
            return 1
        got = removals.get((beads, mu))
        if got is None:
            r, rest = mu[0], mu[1:]
            got = 0
            for b in range(r, beads.bit_length()):
                if beads >> b & 1 and not beads >> (b - r) & 1:
                    moved = value(beads ^ (1 << b) ^ (1 << (b - r)), rest)
                    # the beads passed count the rim hook's leg length
                    passed = beads >> (b - r + 1) & ((1 << (r - 1)) - 1)
                    got += -moved if passed.bit_count() & 1 else moved
            removals[beads, mu] = got
        return got

    masks = [sum(1 << (p + n - 1 - i)
                 for i, p in enumerate(lam + (0,) * (n - len(lam))))
             for lam in labels]
    values = tuple(tuple(value(beads, mu) for mu in labels) for beads in masks)
    return labels, labels, values


def _sequence_parity(cycles) -> int:
    """The parity of i -> s[i], for s the points of these cycles, whose
    lengths are distinct, listed cycle by cycle in length order.  For
    x and g of one such type, a permutation conjugating x to g maps the
    sequence of x to that of g, so its parity is the sum of theirs; a
    cycle's starting point does not matter, since every length is odd
    on a split type."""
    sequence = [p for cycle in sorted(cycles, key=len) for p in cycle]
    return parity_of(cycles_of(sequence))


def _centralizer_order(mu) -> int:
    """|C_{S_n}(x)| for x of cycle type mu."""
    return prod(length ** m * factorial(m) for length, m in Counter(mu).items())


@cache
def _splits(mu) -> bool:
    """Whether the S_n class of an even type mu is two A_n classes: its
    parts are odd and distinct."""
    return all(p % 2 for p in mu) and len(set(mu)) == len(mu)


def partition_family(group: PermGroup) -> str | None:
    """"S" when the group is S_n on its n points, "A" when it is A_n,
    else None, read off its index in S_n: a subgroup of index 1 is S_n,
    and one of index 2 is A_n, S_n's only subgroup of index 2 (James
    and Kerber, ch. 1).  The order is the chain's, and divides n!."""
    return {1: "S", 2: "A"}.get(factorial(group.degree) // group.order)


def _classify(images, alternating: bool) -> tuple[tuple[int, ...], int]:
    """The (type, half) of the element with these images: on a split
    type of A_n the half is its sequence parity, so half 0 is the A_n
    class of the element whose cycles are runs of consecutive points in
    length order; on any other type it is 0."""
    cycles = cycles_of(images)
    mu = cycle_type_of(cycles)
    if alternating and _splits(mu):
        return mu, _sequence_parity(cycles)
    return mu, 0


class SymmetricClasses(ClassFacts):
    """The class layer of a group that is S_n or A_n on its n points,
    read off cycle types; the facts it provides are those listed by
    ``structure.ClassFacts``, in the enumerated layer's class order.

    ``types[k]`` is the cycle type of class k, and ``_index`` maps the
    (type, half) that ``_classify`` gives an element to its class.
    """

    def __init__(self, group: PermGroup, reps: tuple[Perm, ...],
                 sizes: tuple[int, ...], power: tuple[tuple[int, ...], ...],
                 alternating: bool, types: tuple[tuple[int, ...], ...],
                 index: dict):
        self.group = group
        self.reps = reps
        self.sizes = sizes
        self._power = power
        self.alternating = alternating
        self.types = types
        self._index = index

    def class_of(self, g: Perm) -> int:
        if g.degree != self.group.degree:
            raise ValueError("element not in group")
        try:
            return self._index[_classify(g.images, self.alternating)]
        except KeyError:   # an odd permutation, when the group is A_n
            raise ValueError("element not in group") from None


def symmetric_classes(group: PermGroup) -> SymmetricClasses:
    """The classes of ``group``, which ``partition_family`` must read as
    S_n or A_n, else ValueError.  Refuses as the enumerated path does:
    by the enumeration cap on the order, then by the table cap on the
    class count.  Raises ArithmeticError when the walk ends before it
    reaches every class, or when the class sizes do not sum to the
    order of the group's chain."""
    family = partition_family(group)
    if family is None:
        raise ValueError(f"{group!r} is neither S_n nor A_n on its points")
    alternating = family == "A"
    n = group.degree
    caps.check_enumerable(group.order)
    cycle_types = [mu for mu in partitions(n)
                   if not alternating or (n - len(mu)) % 2 == 0]
    split = {mu for mu in cycle_types if alternating and _splits(mu)}
    count = len(cycle_types) + len(split)
    caps.check_table_classes(count)

    # classes are numbered as the class search numbers them: in the
    # enumeration order of their first elements, the order of index
    index = {}
    reps = []
    for images in group.walk():
        key = _classify(images, alternating)
        if key not in index:
            index[key] = len(reps)
            reps.append(images)
            if len(reps) == count:
                break
    else:
        raise ArithmeticError(f"the walk reached {len(reps)} of {count} classes")
    types = tuple(mu for mu, _ in index)
    sizes = tuple(factorial(n) // _centralizer_order(mu)
                  // (1 + (mu in split)) for mu in types)
    if sum(sizes) != group.order:
        raise ArithmeticError("class sizes do not sum to the group order")
    # row k lists the classes of rep_k ** 0, 1, ... until the powers
    # return to the identity, rep_0
    power = []
    for r in reps:
        row = [0]
        x = r
        while x != reps[0]:
            row.append(index[_classify(x, alternating)])
            x = tuple(map(r.__getitem__, x))
        power.append(tuple(row))
    return SymmetricClasses(group, tuple(map(Perm, reps)), sizes,
                            tuple(power), alternating, types, index)


def _split_values(eps: int, mu: tuple[int, ...], m: int) -> tuple[Cyc, Cyc]:
    """(eps + r) / 2 and (eps - r) / 2 at conductor m, for r a square
    root of eps * prod(mu), which is 1 mod 4: with prod(mu) = s^2 q, q
    squarefree, r is s times the product of the Gauss sums
    sum_t (t/p) zeta_p^t over the primes p of q, whose squares
    (-1)^((p-1)/2) p multiply to eps q.  Every p divides m, the order
    of a permutation of type mu."""
    root = [0] * m
    root[0] = 1
    s = 1
    for p, e in factorint(prod(mu)).items():
        s *= p ** (e // 2)
        if e % 2:
            step = m // p
            product = [0] * m
            for t in range(1, p):
                legendre = 1 if pow(t, (p - 1) // 2, p) == 1 else -1
                for a, c in enumerate(root):
                    if c:
                        product[(a + t * step) % m] += legendre * c
            root = product
    values = []
    for sign in (s, -s):
        raw = [sign * c for c in root]
        raw[0] += eps
        twice = Cyc.make(m, raw)
        if any(c % 2 for c in twice.coeffs):
            raise ArithmeticError("a split character value is not an algebraic integer")
        values.append(Cyc(m, tuple(c // 2 for c in twice.coeffs)))
    return values[0], values[1]


def symmetric_table(classes: SymmetricClasses) -> CharacterTable:
    """The character table of S_n or A_n on these classes, rows sorted
    as ``dixon.character_table`` sorts them, each value at the conductor
    of its class's order, and the modulus the Dixon prime of |G| and the
    exponent.  Raises ArithmeticError unless ``sn_table``'s rows are
    orthonormal, every halved value is an integer, the degree squares
    sum to |G|, there is one row per class and every nonlinear row has
    a zero."""
    n = classes.group.degree
    order = classes.group.order
    labels, cols, values = sn_table(n)
    sizes = [factorial(n) // _centralizer_order(mu) for mu in cols]
    for a, chi in enumerate(values):
        weighted = list(map(mul, sizes, chi))
        for b in range(a + 1):
            if sum(map(mul, weighted, values[b])) != factorial(n) * (a == b):
                raise ArithmeticError("the S_n characters fail the orthogonality relations")

    column = {mu: c for c, mu in enumerate(cols)}
    at = [column[mu] for mu in classes.types]
    one = column[(1,) * n]
    orders = classes.orders
    cyc = {}

    def row_of(chi, divisor=1):
        row = []
        for m, c in zip(orders, at):
            v, odd = divmod(chi[c], divisor)
            if odd:
                raise ArithmeticError("a halved character value is not an integer")
            if (m, v) not in cyc:
                cyc[m, v] = Cyc.make(m, (v,))
            row.append(cyc[m, v])
        return row

    degrees, rows = [], []
    taken = set()
    for lam, chi in zip(labels, values):
        if classes.alternating:
            dual = conjugate(lam)
            if dual in taken:   # chi_lambda and chi_dual restrict alike
                continue
            taken.add(lam)
            if dual == lam:
                # chi restricts to two constituents, equal off the split
                # pair of lambda's diagonal hook type, where chi is eps
                hooks = tuple(2 * (p - i) + 1
                              for i, p in enumerate(lam, 1) if p >= i)
                j, k = classes._index[hooks, 0], classes._index[hooks, 1]
                eps = (-1) ** ((n - len(hooks)) // 2)
                a, b = _split_values(eps, hooks, orders[j])
                off_pair = list(chi)
                off_pair[column[hooks]] = 0
                for x, y in ((a, b), (b, a)):
                    row = row_of(off_pair, 2)
                    row[j], row[k] = x, y
                    degrees.append(chi[one] // 2)
                    rows.append(row)
                continue
        degrees.append(chi[one])
        rows.append(row_of(chi))
    if len(rows) != classes.count:
        raise ArithmeticError(f"{len(rows)} characters for {classes.count} classes")
    if sum(d * d for d in degrees) != order:
        raise ArithmeticError("degree squares do not sum to the group order")
    modulus = dixon_prime(order, lcm(*orders))
    return sorted_table(classes, degrees, rows, modulus)
