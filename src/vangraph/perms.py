"""Permutations of {1..n} and permutation groups with a deterministic
base-and-strong-generating-set (Schreier-Sims), which also builds
normal closures, and a breadth-first element enumeration,
``Enumeration``, in which each element is an id and a word in the
generators.  No other module stores, spells or multiplies a group's
elements.  ``PermGroup.walk`` yields the elements in the same order,
one at a time, for a caller that stops early, without enumerating the
group.

Composition reads left to right: ``(a * b)(x) == b(a(x))``, i.e. apply
``a`` first.  The cycle parser multiplies cycles in reading order under
the same convention.  Points are 0-based in memory; every piece of text
I/O (cycle strings, generator files) is 1-based.  On image tuples,
``a * b`` is the one C call ``itemgetter(*a)(b)``, which builds
``(b[a[0]], b[a[1]], ...)``; the Schreier-Sims walk composes this way,
and so does the enumeration above 256 points.  Up to 256 points it
keys each element by its image bytes, and ``a * b`` is the one C call
``a.translate(b)``, with b padded to the 256-byte table translate reads.

The Schreier-Sims construction is fully deterministic: no randomized
sifting, base points are chosen as the smallest moved points, and orbits
are explored breadth-first in fixed generator order.  Groups built from
the same generator sequence therefore have identical chains, element
orders and enumeration orders from run to run.
"""
from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from operator import attrgetter, itemgetter
from typing import Iterator

from . import caps


@dataclass(frozen=True, slots=True)
class Perm:
    """A permutation stored as its tuple of images on 0-based points."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {self.images!r}")

    @staticmethod
    def identity(degree: int) -> "Perm":
        return Perm(tuple(range(degree)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Perm") -> "Perm":
        """Left-to-right composition: apply self, then other."""
        if len(other.images) != len(self.images):
            raise ValueError("degree mismatch")
        # not itemgetter(*self.images): for degree 1 it would return a
        # bare int, not a 1-tuple
        return Perm(tuple(map(other.images.__getitem__, self.images)))

    def inverse(self) -> "Perm":
        return Perm(_inverse(self.images))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles, fixed points included, each rotated to start
        at its smallest point, listed by smallest point."""
        return cycles_of(self.images)

    def cycle_type(self) -> tuple[int, ...]:
        """Cycle lengths including fixed points, sorted descending."""
        return cycle_type_of(self.cycles())

    def sign(self) -> int:
        return -1 if parity_of(self.cycles()) else 1

    def cycle_string(self) -> str:
        """1-based cycle notation; the identity prints as ``()``."""
        cyc = [c for c in self.cycles() if len(c) > 1]
        if not cyc:
            return "()"
        return "".join("(" + " ".join(str(p + 1) for p in c) + ")" for c in cyc)

    def embed(self, degree: int, offset: int = 0) -> "Perm":
        """The same permutation acting on points offset..offset+n-1 inside
        a larger point set."""
        if offset + self.degree > degree:
            raise ValueError("embedding does not fit")
        images = list(range(degree))
        for i, j in enumerate(self.images):
            images[offset + i] = offset + j
        return Perm(tuple(images))

    def __repr__(self) -> str:
        return f"Perm[{self.cycle_string()}]"


def cycles_of(images) -> list[tuple[int, ...]]:
    """``Perm(images).cycles()``, without building the Perm."""
    seen = bytearray(len(images))
    out = []
    for start in range(len(images)):
        if seen[start]:
            continue
        seen[start] = 1
        cycle = [start]
        p = images[start]
        while p != start:
            seen[p] = 1
            cycle.append(p)
            p = images[p]
        out.append(tuple(cycle))
    return out


def cycle_type_of(cycles) -> tuple[int, ...]:
    """The lengths of these disjoint cycles, sorted descending."""
    return tuple(sorted(map(len, cycles), reverse=True))


def parity_of(cycles) -> int:
    """The parity, 0 or 1, of the permutation with these disjoint
    cycles, fixed points included: n points in c cycles are n - c
    transpositions."""
    return (sum(map(len, cycles)) - len(cycles)) & 1


def commutator(a: Perm, b: Perm) -> Perm:
    return a.inverse() * b.inverse() * a * b


def cycle_perm(points: list[int], degree: int) -> Perm:
    """The cycle (points[0] points[1] ...) on 0-based points."""
    images = list(range(degree))
    for a, b in zip(points, points[1:]):
        images[a] = b
    if points:
        images[points[-1]] = points[0]
    return Perm(tuple(images))


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> Perm:
    """Parse 1-based cycle notation like ``(1 2 3)(4 5)``.

    Cycles compose left to right.  Empty or whitespace-only text is the
    identity.  Raises ValueError on out-of-range points, malformed
    parentheses, or a repeated point within one cycle.

    >>> parse_cycles("(1 2)(1 3)", 3).cycle_string()
    '(1 2 3)'
    """
    body = text.strip()
    if not body:
        return Perm.identity(degree)
    leftover = _CYCLE_RE.sub("", body).strip()
    if leftover:
        raise ValueError(f"malformed cycle notation: {text!r}")
    perm = Perm.identity(degree)
    for m in _CYCLE_RE.finditer(body):
        toks = m.group(1).replace(",", " ").split()
        pts = []
        for tok in toks:
            try:
                p = int(tok)
            except ValueError:
                raise ValueError(f"bad point {tok!r} in {text!r}") from None
            if not 1 <= p <= degree:
                raise ValueError(f"point {p} out of range 1..{degree}")
            pts.append(p - 1)
        if len(set(pts)) != len(pts):
            raise ValueError(f"repeated point in cycle: ({m.group(1)})")
        perm = perm * cycle_perm(pts, degree)
    return perm


def _inverse(g: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(g)
    for i, j in enumerate(g):
        inv[j] = i
    return tuple(inv)


def _sift(chain, g: tuple[int, ...], start: int) -> tuple[tuple[int, ...], int]:
    """Strip the image tuple g through the levels of chain from start on.

    Each level is (b, {p: u_p^-1}), where u_p sends the base point b to
    p.  Returns the residue and the level where g left the chain, which
    is len(chain) when g passed every level."""
    for i in range(start, len(chain)):
        b, inverses = chain[i]
        inverse = inverses.get(g[b])
        if inverse is None:
            return g, i
        # a non-empty chain has a moved point, so g has degree >= 2 and
        # itemgetter returns a tuple
        g = itemgetter(*g)(inverse)
    return g, len(chain)


def _schreier_sims(gens, degree, conjugators=()):
    """Levels (b, {p: u_p^-1}) of image tuples, top level first, of the
    group generated by gens.  Level i is recomputed on each visit from
    the strong generators placed at levels i, i+1, ...; a new generator
    at level j sends the walk back to j, so every level's last visit saw
    its final generators.  Then each g^-1 x g not yet contained, for g in
    conjugators and x in gens, appended ones too, joins gens and the walk."""
    identity = tuple(range(degree))
    chain: list[tuple[int, dict]] = []
    placed: list[list[tuple[tuple[int, ...], itemgetter]]] = []

    def place(g, level):
        if level == len(chain):
            b = next(p for p, q in enumerate(g) if p != q)
            chain.append((b, {b: identity}))
            placed.append([])
        # a placed g is not the identity, so its degree is >= 2 and each
        # itemgetter over it returns a tuple
        placed[level].append((g, itemgetter(*_inverse(g))))

    def schreier_residue(i):
        """The first Schreier generator of level i that does not sift
        to the identity, as (residue, level), or None."""
        b, inverses = chain[i]
        level_gens = [pair for level in placed[i:] for pair in level]
        inverses.clear()
        inverses[b] = identity
        orbit = [b]
        for p in orbit:
            for g, inverse_times in level_gens:
                q = g[p]
                if q not in inverses:
                    # u_q^-1 = g^-1 * u_p^-1
                    inverses[q] = inverse_times(inverses[p])
                    orbit.append(q)
        for p in sorted(inverses):
            # a level exists only at degree >= 2, so both give tuples
            u_times = itemgetter(*_inverse(inverses[p]))
            for g, _ in level_gens:
                # u_p * g * u_{g(p)}^-1, composed left to right
                schreier = itemgetter(*u_times(g))(inverses[g[p]])
                if schreier != identity:
                    residue, j = _sift(chain, schreier, i + 1)
                    if residue != identity:
                        return residue, j
        return None

    def walk(i):
        while i >= 0:
            found = schreier_residue(i)
            if found is None:
                i -= 1
            else:
                place(*found)
                i = found[1]

    # before the walk every level holds only {b: identity}, so a sift
    # stops at the first base point that g moves
    for g in gens:
        place(g, _sift(chain, g, 0)[1])
    walk(len(chain) - 1)
    # a conjugator is a group generator, never the identity, so its
    # degree is >= 2 and both itemgetters return tuples
    conjugators = [(g, itemgetter(*_inverse(g))) for g in conjugators]
    for x in gens:
        for g, inverse_times in conjugators:
            # on image tuples, g^-1 * x * g maps i to g[x[g^-1[i]]]
            c = itemgetter(*inverse_times(x))(g)
            residue, j = _sift(chain, c, 0)
            if residue != identity:
                gens.append(c)
                place(residue, j)
                walk(j)
    return tuple(chain)


def _key(images) -> bytes | tuple[int, ...]:
    """An element's key in ``Enumeration.ids``: its image bytes when the
    degree is at most 256, so that every point fits one byte, else its
    image tuple.  Keys of one degree are always of one type."""
    return bytes(images) if len(images) <= 256 else tuple(images)


class Enumeration:
    """A group's elements as ids 0..|G|-1, numbered by one breadth-first
    search over the generators g_0, ..., g_(k-1), identity first; it
    alone stores, spells and multiplies elements.

    ``ids`` maps each element's key to its id, in id order, and
    ``tuple(key)`` is the element's image tuple.  The key is the image
    bytes up to degree 256 (33 + degree bytes, and x * g is one
    ``bytes.translate``) and the image tuple above that; ``id_of``
    looks one up.  ``right[h][x]`` is the id of x * g_h, so a product
    with a generator is one table lookup.  The search forms x * g_0,
    ..., x * g_(k-1) for x = 0, 1, ... in turn, so x * g_h is product
    number x * k + h, and ``origin[x]`` is the number of the product
    that first reached x: x = w * g_h for (w, h) = divmod(origin[x], k),
    with w < x (``origin[0]`` is unused).  Following these parents back
    to the identity spells x as a word in the generators, so y * x is
    |word(x)| lookups for any y.  A right table is a list of the int
    objects stored in ``ids``, so reading one copies a reference, where
    reading an entry above 256 from an ``array('i')`` allocates a new
    int; the cost is 8 bytes an entry instead of 4.  ``origin`` holds
    product numbers, below k * |G|, which no dict shares, so it stays
    an ``array('i')``, four bytes an entry.
    """

    def __init__(self, ids: dict[bytes | tuple[int, ...], int],
                 right: tuple[list[int], ...], origin: array):
        self.ids = ids
        self.right = right
        self.origin = origin

    def __len__(self) -> int:
        return len(self.origin)

    def id_of(self, images: tuple[int, ...]) -> int:
        """The id of the element with these images; KeyError when the
        group has no such element, also for images of another degree."""
        return self.ids[_key(images)]

    def word(self, x: int) -> list[int]:
        """Generator indices h_1, ..., h_m with x = g_h1 * ... * g_hm,
        the breadth-first path to x; empty for the identity."""
        word = []
        while x:
            x, h = divmod(self.origin[x], len(self.right))
            word.append(h)
        word.reverse()
        return word

    def steps(self, x: int) -> tuple[list[int], ...]:
        """The right tables along x's word: looked up in turn, they take
        the id of y to the id of y * x, each lookup returning one of the
        ``ids`` dict's own ints."""
        return tuple(self.right[h] for h in self.word(x))

    def conjugations(self) -> list[list[int]]:
        """For each generator g = g_h, the table x -> id(g^-1 * x * g):
        its right table read at the left table of g^-1, which follows
        from the origins, since x = w * g_v gives g^-1 * x =
        (g^-1 * w) * g_v, w < x.  Like the right tables they read, both
        hold the ``ids`` dict's own ints."""
        right = self.right
        k = len(right)
        tables = []
        for table in right:
            # g^-1 is the power of g that g takes to the identity
            inverse = table[0]
            while table[inverse]:
                inverse = table[inverse]
            left = [inverse]
            for origin in islice(self.origin, 1, None):
                left.append(right[origin % k][left[origin // k]])
            tables.append(list(map(table.__getitem__, left)))
        return tables


class PermGroup:
    """Group generated by permutations of one common degree.

    Treat instances as immutable; the strong generating set and the
    element enumeration are computed lazily and cached.
    """

    def __init__(self, generators=(), degree: int | None = None):
        generators = list(generators)
        if degree is None:
            if not generators:
                raise ValueError("need a degree when there are no generators")
            degree = generators[0].degree
        gens = []
        seen = set()
        for g in generators:
            if not isinstance(g, Perm):
                raise TypeError("generators must be Perm values")
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
            if g.is_identity() or g.images in seen:
                continue
            seen.add(g.images)
            gens.append(g)
        self.degree = degree
        self.generators: tuple[Perm, ...] = tuple(gens)

    # -- Schreier-Sims ---------------------------------------------------

    @cached_property
    def _chain(self) -> tuple[tuple[int, dict[int, tuple[int, ...]]], ...]:
        return _schreier_sims([g.images for g in self.generators], self.degree)

    @cached_property
    def order(self) -> int:
        return math.prod(len(inverses) for _, inverses in self._chain)

    def __contains__(self, g: Perm) -> bool:
        if not isinstance(g, Perm):
            return False
        if g.degree != self.degree:
            raise ValueError("degree mismatch")
        return _sift(self._chain, g.images, 0)[0] == tuple(range(self.degree))

    # -- enumeration -----------------------------------------------------

    def _right_multiplication(self):
        """The identity's key, each generator g_h as the operand that
        multiplies a key on the right, and ``times``: times(e)(g) is the
        key of e * g_h."""
        identity = _key(range(self.degree))
        if type(identity) is bytes:
            # e * g is e.translate(g), with g padded to 256 bytes
            pad = bytes(range(self.degree, 256))
            return (identity, [bytes(g.images) + pad for g in self.generators],
                    attrgetter("translate"))

        def times(e):
            # e has 257 points or more, so this returns a tuple
            return itemgetter(*e)
        return identity, [g.images for g in self.generators], times

    def walk(self) -> Iterator[tuple[int, ...]]:
        """The elements' image tuples in element id order, found by the
        same breadth-first search as ``enumeration`` but one at a time,
        so a caller that stops early stores only the keys found before
        it stops.  Checks no cap."""
        identity, images, times = self._right_multiplication()
        seen = {identity}
        frontier = [identity]
        yield tuple(identity)
        for e in frontier:
            image = times(e)
            for g in images:
                f = image(g)
                if f not in seen:
                    seen.add(f)
                    frontier.append(f)
                    yield tuple(f)

    @cached_property
    def _enumeration(self) -> Enumeration:
        # the chain and the enumeration derive |G| independently: the
        # tables are sized by the chain's order, the search fails on the
        # first element past it, and the count is checked after it
        n = self.order
        k = len(self.generators)
        identity, images, times = self._right_multiplication()
        ids = {identity: 0}
        setdefault = ids.setdefault
        frontier = [identity]
        right = tuple([0] * n for _ in range(k))
        origin = array("i", [0]) * n
        gens = [(h, g, table)
                for h, (g, table) in enumerate(zip(images, right))]
        for x, e in enumerate(frontier):
            # e * g_h for every h, one C call each
            image = times(e)
            for h, g, table in gens:
                f = image(g)
                # y is the int stored in ids, so the tables share it
                y = setdefault(f, len(frontier))
                table[x] = y
                if y == len(frontier):
                    if y == n:
                        raise ArithmeticError("enumeration found more"
                                              f" elements than the chain order {n}")
                    frontier.append(f)
                    origin[y] = x * k + h
        if len(ids) != n:
            raise ArithmeticError(
                f"enumeration found {len(ids)} elements, chain order {n}")
        return Enumeration(ids, right, origin)

    def enumeration(self) -> Enumeration:
        """Every element as an id, with the generators' right tables and
        the product that first reached each element.  Refuses via
        CapExceeded when the order exceeds ``caps.enum_cap()``, and
        raises ArithmeticError when the count differs from the chain's
        order."""
        caps.check_enumerable(self.order)
        return self._enumeration

    def elements(self) -> tuple[Perm, ...]:
        """All elements as Perm values, in element id order (identity
        first).  Refuses and raises as ``enumeration`` does."""
        return tuple(Perm(tuple(key)) for key in self.enumeration().ids)

    def __repr__(self) -> str:
        gens = ", ".join(g.cycle_string() for g in self.generators) or "()"
        return f"PermGroup(degree={self.degree}, <{gens}>)"


def normal_closure(group: PermGroup, seeds) -> PermGroup:
    """Smallest normal subgroup of group containing the seeds, in one walk."""
    closure = PermGroup(seeds, degree=group.degree)
    gens = [g.images for g in closure.generators]
    closure._chain = _schreier_sims(gens, group.degree,
                                    [g.images for g in group.generators])
    closure.generators = tuple(map(Perm, gens))
    return closure


def read_generator_file(text: str) -> PermGroup:
    """Parse the generator file format: first line ``degree: n``, then one
    cycle-notation permutation per line.  Blank lines are skipped."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ValueError("empty generator file")
    m = re.fullmatch(r"degree\s*:\s*(\d+)", lines[0])
    if not m:
        raise ValueError(f"first line must be 'degree: n', got {lines[0]!r}")
    degree = int(m.group(1))
    if degree < 1:
        raise ValueError("degree must be at least 1")
    if degree > caps.DEGREE_CAP:
        raise ValueError(f"degree {degree} exceeds degree cap {caps.DEGREE_CAP}")
    gens = [parse_cycles(ln, degree) for ln in lines[1:]]
    return PermGroup(gens, degree=degree)
