"""Conjugacy classes and the normal structure read off them.

Covers: class enumeration by conjugation orbits, power maps and
class-matrix rows, all stepped through the enumeration's tables on
element ids (how an element is stored, spelled and multiplied is
``perms.Enumeration``'s alone), so the Dixon table and the checks read
class-indexed data only; and GroupStructure, which reads
the centre, minimal normal subgroups, the Fitting subgroup, normal
p-complements, a chief series, p-solvability and the derived subgroup
off the character table as sets of class indices.  Also separating
point subsets for small degrees, found by counting pair orbits.

Everything is deterministic: classes are discovered in element
enumeration order (identity first, so class 0 is always the identity
class), and searches iterate in fixed sorted orders.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import gcd, prod
from typing import TYPE_CHECKING

from . import caps
from .numth import is_prime, prime_divisors
from .perms import Enumeration, Perm, PermGroup, commutator, normal_closure

if TYPE_CHECKING:
    from .dixon import CharacterTable


@dataclass(frozen=True)
class ConjugacyClasses:
    """Conjugacy classes of a fully enumerated permutation group, on the
    element ids of ``enumeration``, which alone reads an element.

    ``class_of_element[id]`` is the element's class, ``members[k]`` the
    ids of class k as the class search reached them and ``sizes[k]``
    their count; ``reps[k]``, the element at ``members[k][0]``, is the
    first of class k in enumeration order, and class 0 is the identity
    class.  ``power_class(k, e)`` gives the class of rep_k ** e for any
    integer e, and ``orders[k]`` the order of rep_k.
    ``rational_classes[k]`` is ``(i, s)``: class k is the Galois image
    rep_i ** s, s prime to the order, of the smallest class i of its
    rational class.  The power maps and the class-matrix rows step
    through the right tables along each representative's word, its
    ``_rep_steps``, and build no element.
    """

    group: PermGroup
    enumeration: Enumeration
    members: tuple[array, ...]
    reps: tuple[Perm, ...]
    class_of_element: array
    _power: tuple[tuple[int, ...], ...]
    _rep_steps: tuple[tuple[list[int], ...], ...]

    @property
    def count(self) -> int:
        return len(self.reps)

    def class_of(self, g: Perm) -> int:
        try:
            return self.class_of_element[self.enumeration.id_of(g.images)]
        except KeyError:
            raise ValueError("element not in group") from None

    def power_class(self, k: int, e: int) -> int:
        row = self._power[k]
        return row[e % len(row)]

    def inverse_class(self, k: int) -> int:
        return self.power_class(k, -1)

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        return tuple(map(len, self.members))

    @cached_property
    def orders(self) -> tuple[int, ...]:
        """The element order of each class: the period of its power map."""
        return tuple(map(len, self._power))

    @cached_property
    def rational_classes(self) -> tuple[tuple[int, int], ...]:
        """For each class j, ``(i, s)``: i is the smallest class of j's
        rational class (the classes of rep_j ** s for s prime to m =
        |rep_j|), and s is the smallest exponent prime to m with
        ``power_class(i, s) == j``.  A leader reads ``(j, 1)``.  Read off
        the power maps only."""
        out = [None] * self.count
        for i, row in enumerate(self._power):
            if out[i] is not None:
                continue
            out[i] = (i, 1)
            m = len(row)
            for s in range(2, m):
                if out[row[s]] is None and gcd(s, m) == 1:
                    out[row[s]] = (i, s)
        return tuple(out)

    def class_matrix_row(self, i: int, r: int) -> list[int]:
        """Row r of the class matrix M_i: entry c counts the x in class i
        with x^-1 * rep_r in class c, which is the class constant
        a[i][c][r].  Walks the inverse class of i through the right
        tables along rep_r's word: |C_i| * |word| table steps."""
        ys = self.members[self.inverse_class(i)]
        for table in self._rep_steps[r]:
            ys = [table[y] for y in ys]
        class_of = self.class_of_element
        row = [0] * self.count
        for y in ys:
            row[class_of[y]] += 1
        return row


def conjugacy_classes(group: PermGroup) -> ConjugacyClasses:
    enumeration = group.enumeration()
    class_of, members = _class_search(enumeration)
    # the table cap, read before the power maps, which walk each
    # representative's powers
    if len(members) > caps.TABLE_CLASS_CAP:
        raise caps.CapExceeded(f"{len(members)} classes exceeds table cap {caps.TABLE_CLASS_CAP}")
    # images lists every key on its first call, so call it only after
    # the class search has freed its tables
    reps = tuple(Perm(enumeration.images(ys[0])) for ys in members)
    rep_steps = tuple(enumeration.steps(ys[0]) for ys in members)
    # row k lists the classes of rep_k ** 0, 1, ... until the powers
    # return to the identity, so its length is the order of rep_k
    power = []
    for ys, steps in zip(members, rep_steps):
        x = ys[0]
        row = [0]
        while x:
            row.append(class_of[x])
            for table in steps:
                x = table[x]
        power.append(tuple(row))
    return ConjugacyClasses(group, enumeration, tuple(members), reps,
                            class_of, tuple(power), rep_steps)


def _class_search(enumeration: Enumeration) -> tuple[array, list[array]]:
    """Each element's class and each class's members, classes numbered
    in enumeration order of their first element, members in the order
    the orbit search reached them.  The orbit search reads the
    conjugation tables, lists of the enumeration's own ints, so a read
    allocates nothing.  Both results are ``array('i')``, four bytes an
    entry: a class index below 257 is a cached small int, so reading
    ``class_of`` allocates nothing either, and ``members`` as lists did
    not make the character table measurably faster."""
    conjugations = enumeration.conjugations()
    class_of = array("i", [-1]) * len(enumeration)
    members = []
    for eid in range(len(class_of)):
        if class_of[eid] >= 0:
            continue
        k = len(members)
        class_of[eid] = k
        orbit = [eid]
        for x in orbit:
            for conjugate in conjugations:
                y = conjugate[x]
                if class_of[y] < 0:
                    class_of[y] = k
                    orbit.append(y)
        members.append(array("i", orbit))
    return class_of, members


def _is_abelian_chief_order(order: int) -> bool:
    """Whether a chief factor or minimal normal subgroup of this order is
    abelian: abelian ones are elementary abelian p-groups, nonabelian
    ones are powers of a nonabelian simple group, whose order has at
    least three prime divisors (Burnside's p^a q^b theorem)."""
    return len(prime_divisors(order)) == 1


class GroupStructure:
    """Normal structure of a group, read off its character table.

    A normal subgroup is a frozenset of class indices, always holding
    class 0.  Every normal subgroup is the intersection of the kernels
    of the irreducible characters whose kernels contain it, so the
    normal closure of a class set is such an intersection, and every
    search here runs over the k class indices, never over elements.
    Each derived term is a normal closure of commutators on
    permutations, read back as the closure of its generators' classes
    and checked against its order.
    """

    def __init__(self, table: CharacterTable):
        self.table = table
        self.classes = table.classes
        self.group = table.classes.group
        self.kernels = tuple(
            frozenset(j for j, v in enumerate(row) if v == d)
            for d, row in zip(table.degrees, table.values))

    def order(self, normal: frozenset[int]) -> int:
        return sum(self.classes.sizes[j] for j in normal)

    @cached_property
    def primes(self) -> tuple[int, ...]:
        """The prime divisors of |G|, increasing."""
        return prime_divisors(self.group.order)

    def closure(self, seeds) -> frozenset[int]:
        """Smallest normal subgroup containing the given classes.  The
        trivial character's kernel holds every class, so the
        intersection is never empty."""
        seeds = frozenset(seeds)
        return frozenset.intersection(
            *(ker for ker in self.kernels if seeds <= ker))

    @cached_property
    def class_closures(self) -> tuple[frozenset[int], ...]:
        """The normal closure of each single class."""
        return tuple(self.closure((j,)) for j in range(self.classes.count))

    @cached_property
    def center(self) -> frozenset[int]:
        return frozenset(j for j, s in enumerate(self.classes.sizes) if s == 1)

    @cached_property
    def minimal_normal_subgroups(self) -> tuple[frozenset[int], ...]:
        """Inclusion-minimal among the closures of single nontrivial
        classes; every minimal normal subgroup arises this way.  Sorted
        by order, then by smallest class index."""
        closures = set(self.class_closures[1:])
        minimal = [n for n in closures if not any(m < n for m in closures)]
        return tuple(sorted(minimal, key=lambda n: (self.order(n), sorted(n))))

    @cached_property
    def nonabelian_minimal_normals(self) -> tuple[frozenset[int], ...]:
        """The minimal normal subgroups that are not abelian, in the
        order of ``minimal_normal_subgroups``."""
        return tuple(n for n in self.minimal_normal_subgroups
                     if not _is_abelian_chief_order(self.order(n)))

    @cached_property
    def fitting_subgroup(self) -> frozenset[int]:
        """F(G), the join of the class closures of prime-power order:
        each is a normal p-subgroup, so lies in O_p(G), and O_p(G) is
        the join of the closures of its own classes."""
        parts = [n for n in self.class_closures
                 if len(prime_divisors(self.order(n))) <= 1]
        return self.closure(frozenset().union(*parts))

    @cached_property
    def derived_subgroup(self) -> frozenset[int]:
        """G', the intersection of the kernels of the linear characters."""
        return frozenset.intersection(
            *(ker for ker, d in zip(self.kernels, self.table.degrees)
              if d == 1))

    @cached_property
    def derived_series(self) -> tuple[frozenset[int], ...]:
        """G >= G' >= G'' >= ... as class sets; stops at 1 or at the
        first repeat (a perfect term), which is included so the stall
        is visible.  Raises ArithmeticError when a term's class set does
        not have the term's order, or when G' is not the table's
        derived subgroup."""
        terms = [self.group]
        while True:
            current = terms[-1]
            comms = [commutator(a, b)
                     for i, a in enumerate(current.generators)
                     for b in current.generators[i + 1:]]
            nxt = normal_closure(current, comms)
            terms.append(nxt)
            if nxt.order == 1 or nxt.order == current.order:
                break
        class_of = self.classes.class_of
        series = tuple(self.closure(class_of(g) for g in term.generators)
                       for term in terms)
        if any(self.order(s) != t.order for s, t in zip(series, terms)):
            raise ArithmeticError(
                "a derived term's class set disagrees with its order")
        if series[1] != self.derived_subgroup:
            raise ArithmeticError(
                "derived subgroup disagrees with the kernels of the"
                " linear characters")
        return series

    @cached_property
    def chief_series(self) -> tuple[frozenset[int], ...]:
        """1 = N_0 < N_1 < ... < N_r = G.  Each N_i is the smallest
        closure of N_(i-1) plus one class, so no normal subgroup lies
        strictly between the two and N_i / N_(i-1) is a chief factor."""
        k = self.classes.count
        series = [self.closure(())]
        while len(series[-1]) < k:
            current = series[-1]
            series.append(min(
                (self.closure(current | {j})
                 for j in range(k) if j not in current),
                key=self.order))
        return tuple(series)

    @cached_property
    def chief_factors(self) -> tuple[int, ...]:
        """Orders of the chief factors, bottom up.  Raises
        ArithmeticError unless they multiply to |G|, which also
        certifies that each term's order divides the next."""
        orders = [self.order(n) for n in self.chief_series]
        factors = tuple(b // a for a, b in zip(orders, orders[1:]))
        if prod(factors) != self.group.order:
            raise ArithmeticError(
                "chief factor orders do not multiply to the group order")
        return factors

    def is_solvable(self) -> bool:
        return all(_is_abelian_chief_order(f) for f in self.chief_factors)

    def p_solvable(self, p: int) -> bool:
        """Every chief factor of order divisible by p is a p-group."""
        return all(_is_abelian_chief_order(f)
                   for f in self.chief_factors if f % p == 0)

    def normal_p_complement(self, p: int) -> frozenset[int] | None:
        """The normal p-complement when the group is p-nilpotent, else
        None.  The subgroup generated by all p'-elements is normal and
        equals the complement exactly when p does not divide its order."""
        seeds = [j for j, m in enumerate(self.classes.orders) if m % p != 0]
        k_sub = self.closure(seeds)
        return k_sub if self.order(k_sub) % p != 0 else None

    def has_abelian_sylow(self, p: int) -> bool | None:
        """For p-nilpotent groups: Sylow p is isomorphic to G/K, which is
        abelian iff the derived subgroup lands in the complement K.
        Returns None when the group is not p-nilpotent."""
        comp = self.normal_p_complement(p)
        if comp is None:
            return None
        return self.derived_subgroup <= comp


def _mask_tables(group: PermGroup) -> list[list[int]]:
    """For each generator g, the table m -> m^g over all 2^n point masks
    (bit x of m is point x)."""
    tables = []
    for g in group.generators:
        bits = [1 << y for y in g.images]
        table = [0] * (1 << group.degree)
        for m in range(1, len(table)):
            low = m & -m
            table[m] = table[m ^ low] | bits[low.bit_length() - 1]
        tables.append(table)
    return tables


def _pair_orbit(tables: list[list[int]], n: int, pair: int) -> list[int]:
    """G-orbit of the ordered pair of subsets encoded as a | b << n, by
    breadth-first search over the generator tables."""
    low = (1 << n) - 1
    orbit = [pair]
    seen = {pair}
    for key in orbit:
        a, b = key & low, key >> n
        for table in tables:
            image = table[a] | table[b] << n
            if image not in seen:
                seen.add(image)
                orbit.append(image)
    return orbit


def _mask(points: tuple[int, ...]) -> int:
    return sum(1 << x for x in points)


def joint_stabilizer_index(group: PermGroup, g1: tuple[int, ...],
                           g2: tuple[int, ...]) -> int:
    """Index of the joint setwise stabilizer of g1 and g2 in the group:
    the length of the G-orbit of the pair (g1, g2) (orbit-stabilizer).
    Raises ValueError unless g1 and g2 each hold distinct points of
    0..n-1."""
    n = group.degree
    if not all(0 <= x < n for x in g1 + g2) or \
            len(set(g1)) + len(set(g2)) < len(g1) + len(g2):
        raise ValueError(f"subsets must hold distinct points of 0..{n - 1}")
    return len(_pair_orbit(_mask_tables(group), n, _mask(g1) | _mask(g2) << n))


def separating_subsets(group: PermGroup, p: int,
                       q: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """First pair of disjoint nonempty point subsets (by total size, then
    size of the first, then lexicographic order) whose joint setwise
    stabilizer has index divisible by every one of p, q that divides the
    group order.

    The index of a pair is the length of its G-orbit, counted by
    breadth-first search over 2^n-entry mask tables of the generators;
    G is never enumerated.  Every pair of one orbit gets that length at
    once, so each pair is visited at most once: at most 3^n * |gens|
    steps for any |G|.  Only ``caps.SEPSET_POINTS_CAP`` bounds the
    search, through the degree n.

    Raises ValueError unless p and q are both prime, and
    SeparationAnomaly if the search exhausts without a witness: that
    contradicts the expected behaviour and must never be silent.
    """
    if not (is_prime(p) and is_prime(q)):
        raise ValueError(f"p and q must be prime, got {p} and {q}")
    n = group.degree
    if n > caps.SEPSET_POINTS_CAP:
        raise caps.CapExceeded(f"degree {n} exceeds separating-subset cap")
    if n < 2:
        raise ValueError("need at least two points")
    targets = [r for r in (p, q) if group.order % r == 0]
    tables = _mask_tables(group)
    points = range(n)

    for total in range(2, 2 * n + 1):
        for s1 in range(max(1, total - n), min(total, n + 1)):
            # orbits keep both sizes, so each size class has its own memo
            index: dict[int, int] = {}
            for g1 in combinations(points, s1):
                m1 = _mask(g1)
                rest = [x for x in points if not m1 >> x & 1]
                for g2 in combinations(rest, total - s1):
                    pair = m1 | _mask(g2) << n
                    if pair not in index:
                        orbit = _pair_orbit(tables, n, pair)
                        index.update(dict.fromkeys(orbit, len(orbit)))
                    if all(index[pair] % r == 0 for r in targets):
                        return g1, g2
    raise SeparationAnomaly(group, p, q)


class SeparationAnomaly(Exception):
    """Exhaustive separating-subset search found no witness; this is
    flagged loudly because it would contradict the point-stabilizer
    separation property."""

    def __init__(self, group, p, q):
        super().__init__(f"no separating subsets for primes {p},{q} in {group!r}")
