"""Scalar-and-permutation action on the zero-sum coordinate module."""

import math
import random
from collections import Counter
from itertools import combinations_with_replacement, permutations, product

import pytest

from vangraph import caps, deleted
from vangraph.caps import CapExceeded
from vangraph.deleted import (census_csv, check_vector,
                              distinct_coordinate_vector, group_order,
                              module_generators, orbit_census, orbit_size,
                              stabilizer)
from vangraph.perms import Perm, parse_cycles


def act(v, scalar, x, q):
    """Apply (scalar, x): coordinate i of the result is scalar times
    the coordinate of v sitting at the preimage of i."""
    return tuple(scalar * v[i] % q for i in x.inverse().images)


def test_group_order():
    assert group_order(3, 5) == 12
    assert group_order(7, 11) == 25200
    assert group_order(5, 7) == 360


def test_check_vector():
    check_vector((1, 2, 2), 3, 5)
    with pytest.raises(ValueError):
        check_vector((1, 2, 3), 3, 5)       # coordinates must sum to 0
    with pytest.raises(ValueError):
        check_vector((1, 2), 3, 5)          # wrong length
    # coordinates normalize mod q
    assert check_vector((1, 7, 2), 3, 5) == (1, 2, 2)


def test_field_constraints():
    with pytest.raises(ValueError):
        distinct_coordinate_vector(5, 4)    # q must be prime
    with pytest.raises(ValueError):
        orbit_census(5, 5)                  # q must exceed n
    with pytest.raises(ValueError):
        orbit_census(2, 5)                  # n must be at least 3


def test_distinct_coordinate_vector():
    assert distinct_coordinate_vector(7, 11) == (1, 2, 3, 4, 5, 6, 1)
    assert distinct_coordinate_vector(3, 5) == (1, 2, 2)
    for n, q in [(4, 7), (5, 11), (6, 13)]:
        v = distinct_coordinate_vector(n, q)
        assert sum(v) % q == 0
        assert len(set(v[:-1])) == n - 1


def test_act_examples():
    # scalar multiplies, permutation moves coordinate i to position x(i)
    v = (1, 2, 4, 3)
    x = parse_cycles("(1 2 3)", 4)
    assert act(v, 1, x, 5) == (4, 1, 2, 3)
    assert act(v, 4, Perm.identity(4), 5) == (4, 3, 1, 2)
    assert act(v, 1, Perm.identity(4), 5) == v


def test_act_is_a_right_action():
    rng = random.Random(23)
    n, q = 5, 7
    gens = module_generators(n, q)
    pairs = [(lam, x) for lam, x in gens]
    for _ in range(60):
        v = tuple(rng.randrange(q) for _ in range(n - 1))
        v = v + ((-sum(v)) % q,)
        l1, x1 = rng.choice(pairs)
        l2, x2 = rng.choice(pairs)
        once = act(act(v, l1, x1, q), l2, x2, q)
        combined = act(v, l1 * l2 % q, x1 * x2, q)
        assert once == combined


def test_module_generators_cover_group():
    from vangraph.perms import PermGroup
    for n, q in [(3, 5), (5, 7), (7, 11)]:
        gens = module_generators(n, q)
        scalars = {lam for lam, _ in gens}
        perms = [x for _, x in gens if not x.is_identity()]
        assert PermGroup(perms).order == math.factorial(n) // 2
        # scalar part generates the full multiplicative group
        lam = [l for l in scalars if l != 1][0]
        assert len({pow(lam, k, q) for k in range(q - 1)}) == q - 1


def test_stabilizer_of_zero_vector_is_everything():
    n, q = 5, 7
    zero = (0,) * n
    stab = stabilizer(zero, n, q)
    assert len(stab) == group_order(n, q) == 360


def test_stabilizer_is_deterministic_and_a_group():
    n, q = 4, 7
    v = (1, 2, 2, 2)
    stab = stabilizer(v, n, q)
    assert stab == stabilizer(v, n, q)
    assert (1, Perm.identity(n)) in stab
    pairs = set(stab)
    for l1, x1 in stab:
        assert act(v, l1, x1, q) == v
        for l2, x2 in stab:
            assert (l1 * l2 % q, x1 * x2) in pairs


def stabilizer_by_search(v, n, q):
    """Every (scalar, even permutation) pair fixing v, found by trying
    all (q-1) * n! pairs."""
    v = check_vector(v, n, q)
    hits = []
    for x in map(Perm, permutations(range(n))):
        if x.sign() != 1:
            continue
        shuffled = tuple(v[i] for i in x.images)
        for scalar in range(1, q):
            if all(scalar * c % q == w for c, w in zip(v, shuffled)):
                hits.append((scalar, x))
    hits.sort(key=lambda p: (p[0], p[1].images))
    return hits


def test_stabilizer_matches_search():
    rng = random.Random(11)
    for n, q in [(3, 5), (3, 7), (4, 5), (4, 7), (5, 7), (5, 11), (6, 7),
                 (4, 13), (6, 13)]:
        vectors = [(0,) * n, distinct_coordinate_vector(n, q)]
        for _ in range(6):
            head = tuple(rng.randrange(q) for _ in range(n - 1))
            vectors.append(head + (-sum(head) % q,))
        for v in vectors:
            assert stabilizer(v, n, q) == stabilizer_by_search(v, n, q), \
                (v, n, q)


def test_stabilizer_cap(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(caps, "STABILIZER_PAIRS_CAP", 1000)
        with pytest.raises(CapExceeded):
            stabilizer((0,) * 11, 11, 13)
    # refused before q is trial-divided or n!/2 is formed
    with pytest.raises(CapExceeded, match="exceeds the bound 1000000"):
        stabilizer((0,) * 3, 3, 10 ** 18 + 3)
    with pytest.raises(CapExceeded, match=r"1000002 \* 1000000!/2 pairs"):
        stabilizer((0,) * 3, 10 ** 6, 10 ** 6 + 3)


def test_orbit_census_small():
    census, has_regular = orbit_census(3, 5)
    assert census == [(1, 1), (12, 2)]
    assert has_regular is True
    assert sum(size * count for size, count in census) == 25


def test_orbit_census_invariants():
    for n, q in [(3, 5), (4, 5), (4, 7), (5, 7)]:
        census, _ = orbit_census(n, q)
        order = group_order(n, q)
        assert sum(size * count for size, count in census) == q ** (n - 1)
        for size, count in census:
            assert order % size == 0
            assert count > 0
        sizes = [s for s, _ in census]
        assert sizes == sorted(sizes)
        assert census[0] == (1, 1) or sizes[0] == 1


def test_orbit_census_cap(monkeypatch):
    monkeypatch.setattr(caps, "CENSUS_VECTORS_CAP", 100)
    with pytest.raises(CapExceeded, match=r"7\^4 vectors exceeds the bound 100"):
        orbit_census(5, 7)


def test_orbit_size_matches_census_and_stabilizer():
    n, q = 4, 7
    census, _ = orbit_census(n, q)
    sizes = {s for s, _ in census}
    rng = random.Random(5)
    order = group_order(n, q)
    for _ in range(20):
        v = tuple(rng.randrange(q) for _ in range(n - 1))
        v = v + ((-sum(v)) % q,)
        size = orbit_size(v, n, q)
        assert size in sizes
        assert size * len(stabilizer(v, n, q)) == order


def test_census_csv():
    text = census_csv([(1, 1), (12, 2)])
    assert text == "orbit_size,count\n1,1\n12,2\n"


def _census_by_closure(n, q):
    """Census by closing every vector under the module generators."""
    gens = module_generators(n, q)
    seen = set()
    sizes = Counter()
    for head in product(range(q), repeat=n - 1):
        v = head + ((-sum(head)) % q,)
        if v in seen:
            continue
        orbit = {v}
        frontier = [v]
        while frontier:
            nxt = []
            for w in frontier:
                for scalar, x in gens:
                    u = act(w, scalar, x, q)
                    if u not in orbit:
                        orbit.add(u)
                        nxt.append(u)
            frontier = nxt
        seen |= orbit
        sizes[len(orbit)] += 1
    census = sorted(sizes.items())
    return census, any(size == group_order(n, q) for size, _ in census)


def test_orbit_census_matches_brute_force():
    # the pairs cover a repeated coordinate, distinct coordinates whose
    # orbit splits ((3,7), (4,7)), distinct coordinates whose orbit
    # stays whole with scalar stabilizers of order 2, 4 and 6 ((3,5),
    # (4,5), (6,7)), and a trivial stabilizer ((4,11))
    for n, q in [(3, 5), (3, 7), (4, 5), (4, 7), (5, 7), (6, 7), (4, 11)]:
        assert orbit_census(n, q) == _census_by_closure(n, q), (n, q)


def test_orbit_census_large_q_work_is_bounded_by_vector_count(monkeypatch):
    # with q far above n the census must still match the closure, and
    # its loop must not outgrow the q^(n-1) vectors that the census
    # cap bounds
    n, q = 3, 211
    steps = 0

    def counted(values, r):
        nonlocal steps
        for item in combinations_with_replacement(values, r):
            steps += 1
            yield item

    monkeypatch.setattr(deleted, "combinations_with_replacement", counted)
    assert orbit_census(n, q) == _census_by_closure(n, q)
    assert steps == math.comb(q + n - 2, n - 1) <= q ** (n - 1)
