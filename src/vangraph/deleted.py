"""Zero-sum vectors over F_q under scalars times alternating group.

The module D is the set of length-n vectors over F_q with coordinate
sum zero, acted on by G = F_q^x X A_n: the scalar multiplies, the
permutation shuffles coordinates, (v.(l,x))_i = l * v[x^-1(i)].  The
characteristic must exceed n so D is irreducible and the action story
is clean.

The orbit census counts orbits from coordinate multisets instead of
visiting vectors.  An orbit of S = F_q^x X S_n is the scalar class
{lM} of a multiset M of n values with sum zero; it holds
n!/prod(m_c!) * |{lM}| vectors, m_c the multiplicity of c in M.  G has
index 2 in S, so an S-orbit is one G-orbit, or two G-orbits of half the
size exactly when Stab_S(v) lies in G.  A repeated coordinate puts a
transposition in the stabilizer, so that orbit stays whole.  With
distinct coordinates the stabilizer is cyclic of order
d = (q-1)/|{lM}|; its generator permutes the n-z nonzero coordinates
(z = 1 if 0 is in M, else 0) in cycles of length d, so the orbit splits
iff (d-1)(n-z)/d is even.  The zero-sum multisets are listed by their
n-1 smallest values, which fix the largest, so the loop runs
C(q+n-2, n-1) <= q^(n-1) times and the vector cap bounds the work.
The census is certified by its sizes covering all q^(n-1) vectors.
Everything else is exhaustive and checked.
"""
from __future__ import annotations

from collections import Counter
from itertools import (chain, combinations_with_replacement, permutations,
                       product, repeat)
from math import factorial, prod

from . import caps
from .catalog import alternating_group
from .numth import is_prime, primitive_root
from .perms import Perm


def _check_field(n: int, q: int, factors=(), cap: int = 0,
                 what: str = "") -> int:
    """Check q > n, then that the product of ``factors`` is at most
    ``cap`` (stopping as soon as it passes), then that q is prime, so
    oversize input is refused in bounded time; return the product."""
    if q <= n:
        raise ValueError(f"need q > n (got q = {q}, n = {n})")
    size = 1
    for f in factors:
        size *= f
        if size > cap:
            raise caps.CapExceeded(f"{what} exceeds the bound {cap}")
    if not is_prime(q):
        raise ValueError(f"q = {q} is not prime")
    return size


def check_vector(v, n: int, q: int) -> tuple[int, ...]:
    v = tuple(int(c) % q for c in v)
    if len(v) != n:
        raise ValueError(f"vector has length {len(v)}, expected {n}")
    if sum(v) % q:
        raise ValueError("coordinates must sum to zero")
    return v


def group_order(n: int, q: int) -> int:
    """Order of F_q^x X A_n."""
    return (q - 1) * factorial(n) // 2


def distinct_coordinate_vector(n: int, q: int) -> tuple[int, ...]:
    """(1, 2, ..., n-1, b) with b forced by the zero-sum constraint;
    the first n-1 coordinates are pairwise distinct units.

    >>> distinct_coordinate_vector(7, 11)
    (1, 2, 3, 4, 5, 6, 1)
    >>> distinct_coordinate_vector(3, 5)
    (1, 2, 2)
    """
    _check_field(n, q)
    beta = (-(n - 1) * n // 2) % q
    return tuple(range(1, n)) + (beta,)


def stabilizer(v, n: int, q: int) -> list[tuple[int, Perm]]:
    """Every (scalar, even permutation) pair fixing v, sorted.  (l, x)
    fixes v iff l * v[i] = v[x(i)] for every i: l keeps the multiset of
    coordinates, and x sends the positions of each value c onto those
    of l * c.  The pairs are the even products of those bijections."""
    # |F_q^x X A_n| = (q-1) * 3 * 4 * ... * n
    _check_field(n, q, chain((q - 1,), range(3, n + 1)),
                 caps.STABILIZER_PAIRS_CAP, f"{q - 1} * {n}!/2 pairs")
    v = check_vector(v, n, q)
    positions = {c: [i for i, d in enumerate(v) if d == c] for c in set(v)}
    sources = list(chain(*positions.values()))
    even: dict[tuple[int, ...], list[Perm]] = {}
    hits = []
    for scalar in range(1, q):
        if sorted(scalar * c % q for c in v) != sorted(v):
            continue
        targets = tuple(scalar * c % q for c in positions)
        if targets not in even:     # every scalar fixes the zero vector
            blocks = product(*(permutations(positions[t]) for t in targets))
            perms = (Perm(tuple(j for _, j in sorted(zip(sources, chain(*b)))))
                     for b in blocks)
            even[targets] = sorted((x for x in perms if x.sign() == 1),
                                   key=lambda x: x.images)
        hits += [(scalar, x) for x in even[targets]]
    return hits


def module_generators(n: int, q: int) -> list[tuple[int, Perm]]:
    """Generators of F_q^x X A_n: one generating scalar, and the
    generators of ``alternating_group(n)``.  The permutation part is
    order-checked."""
    _check_field(n, q)
    if n < 3:
        raise ValueError("need n >= 3")
    alternating = alternating_group(n)
    if alternating.order != factorial(n) // 2:
        raise AssertionError("alternating generators are wrong")
    return [(primitive_root(q), Perm.identity(n))] + \
        [(1, x) for x in alternating.generators]


def orbit_census(n: int, q: int) -> tuple[list[tuple[int, int]], bool]:
    """Partition all q^(n-1) vectors into orbits.

    Returns (sorted list of (orbit size, number of orbits of that
    size), whether some orbit is regular, i.e. as large as the group).
    """
    if n < 3:
        raise ValueError("need n >= 3")
    size = _check_field(n, q, repeat(q, n - 1), caps.CENSUS_VECTORS_CAP,
                        f"{q}^{n - 1} vectors")
    sizes: Counter[int] = Counter()
    seen: set[tuple[int, ...]] = set()
    for head in combinations_with_replacement(range(q), n - 1):
        last = -sum(head) % q
        if last < head[-1]:
            continue
        multiset = head + (last,)
        if multiset in seen:
            continue
        scalar_class = {tuple(sorted(l * c % q for c in multiset))
                        for l in range(1, q)}
        seen |= scalar_class
        mult = Counter(multiset).values()
        orbit = (factorial(n) // prod(factorial(m) for m in mult)
                 * len(scalar_class))
        d = (q - 1) // len(scalar_class)
        nonzero = n - (0 in multiset)
        if max(mult) == 1 and (d - 1) * (nonzero // d) % 2 == 0:
            sizes[orbit // 2] += 2
        else:
            sizes[orbit] += 1
    total = group_order(n, q)
    census = sorted(sizes.items())
    for orbit, _ in census:
        if total % orbit:
            raise AssertionError(f"orbit size {orbit} does not divide {total}")
    if sum(orbit * count for orbit, count in census) != size:
        raise AssertionError(f"orbits do not cover the {size} vectors")
    return census, any(orbit == total for orbit, _ in census)


def orbit_size(v, n: int, q: int) -> int:
    """Size of one orbit by plain breadth-first closure.  The field and
    the generators are checked once, not on every step."""
    _check_field(n, q)
    v = check_vector(v, n, q)
    gens = [(scalar, x.inverse().images)
            for scalar, x in module_generators(n, q)]
    seen = {v}
    frontier = [v]
    while frontier:
        nxt = []
        for w in frontier:
            for scalar, inv in gens:
                # coordinate i of u is scalar times w at the preimage of i
                u = tuple(scalar * w[i] % q for i in inv)
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return len(seen)


def census_csv(census: list[tuple[int, int]]) -> str:
    lines = ["orbit_size,count"]
    lines += [f"{size},{count}" for size, count in census]
    return "\n".join(lines) + "\n"
