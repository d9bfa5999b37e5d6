"""Exact character tables of finite groups by Dixon's modular method.

Pipeline: simultaneous eigenspace splitting over a prime field F_l
(l = 1 mod the group exponent, l squared beyond four times the order)
by class matrices, smallest class first, while a space is still wider
than a line; a d-dimensional space reads only the d rows of a class
matrix at its pivot positions, each row |C_i| products of |word| table
steps each (Schneider's refinement of Dixon's method), and restricts
the matrix with sums over its free columns only; a scalar restriction
keeps its space, roots are found once per characteristic polynomial,
and each eigenspace is row-reduced in its space's d coordinates -> the
mod-l characters read off the common eigenvectors -> each degree d
read off the orthogonality norm:
d^2 = |G| / norm mod l, and since l > 2 sqrt|G| exactly one d in
1..sqrt|G| has that square, so a search finds it -> exact lift to
cyclotomic integers: on the smallest class of each rational class, the
inverse discrete Fourier transform over the powers of the class
representative, summed by power class once per class and shared by
all characters; every other class read as a Galois image of it and
checked against its character value mod l; each distinct value reduced
once -> Burnside's theorem (every nonlinear irreducible character
vanishes somewhere) checked on the lifted rows.

Every step is integer arithmetic; the final table is exact by
construction and is re-checked against the orthogonality relations in
the test suite.  The eigenspace splitting draws no random numbers (its
root finder probes 1, 2, 3, ... and returns sorted roots), so tables are
bit-reproducible run to run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

from .cyclo import Cyc
from .numth import (charpoly, dixon_prime, nullspace, poly_roots,
                    primitive_root, rref)
from .structure import ClassFacts, ConjugacyClasses


@dataclass(frozen=True)
class CharacterTable:
    """Rows are irreducible characters sorted by degree then value
    vector; columns follow the conjugacy class order.  values[i][j] is
    stored at conductor equal to the order of class j's representative.
    """

    classes: ClassFacts
    degrees: tuple[int, ...]
    values: tuple[tuple[Cyc, ...], ...]
    modulus: int

    @property
    def group_order(self) -> int:
        return self.classes.group.order

    def row(self, i: int) -> tuple[Cyc, ...]:
        return self.values[i]

    def defect_zero_rows(self, q: int) -> tuple[int, ...]:
        """Rows whose degree soaks up the full q-part of the group order."""
        return tuple(i for i, d in enumerate(self.degrees)
                     if (self.group_order // d) % q != 0)


def character_table(classes: ConjugacyClasses) -> CharacterTable:
    k = classes.count
    order = classes.group.order
    exponent = math.lcm(*classes.orders)
    ell = dixon_prime(order, exponent)
    lines = _eigenlines(classes, ell)

    # each line is spanned by v with v[j] proportional to chi(rep_j^-1),
    # so chi(rep_j) / chi(1) = v[inv j] / v[0]
    sizes = classes.sizes
    inv_class = [classes.inverse_class(j) for j in range(k)]
    ratios = []
    for v in lines:
        if not v[0]:
            raise ArithmeticError("common eigenvector vanishes at the identity class")
        v0_inv = pow(v[0], -1, ell)
        ratios.append([v[inv_class[j]] * v0_inv % ell for j in range(k)])
    # the first orthogonality relation, sum_j |C_j| chi_a(j) chi_b(inv j)
    # = delta_ab |G|, divided by chi_a(1) chi_b(1): the diagonal gives
    # |G| / chi(1)^2, and two degrees d, d' <= sqrt|G| < l/2 with
    # d^2 = d'^2 mod l are equal; the zero off-diagonal is the certificate.
    # A class and its inverse have one size, so the sums are symmetric
    # in a and b, and row a holds b <= a only, the diagonal last.
    weighted = [list(map(mul, sizes, ra)) for ra in ratios]
    conjugates = [[rb[j] for j in inv_class] for rb in ratios]
    gram = [[sum(map(mul, wa, cb)) % ell for cb in conjugates[:a + 1]]
            for a, wa in enumerate(weighted)]
    max_degree = math.isqrt(order)
    degrees = []
    for sums in gram:
        d_sq = order * pow(sums[-1], -1, ell) % ell
        d = next((d for d in range(1, max_degree + 1)
                  if d * d % ell == d_sq), None)
        if d is None:
            raise ArithmeticError("impossible character degree from normalisation")
        degrees.append(d)
    if sum(d * d for d in degrees) != order:
        raise ArithmeticError("degree squares do not sum to the group order")
    if any(any(sums[:-1]) for sums in gram):
        raise ArithmeticError("rows fail the orthogonality relation mod l")

    rows = _lift(classes, ell, exponent, degrees, ratios)
    return sorted_table(classes, degrees, rows, ell)


def sorted_table(classes: ClassFacts, degrees: list[int],
                 rows: list[list[Cyc]], modulus: int) -> CharacterTable:
    """The table of these rows, sorted by degree, then by value keys,
    after checking Burnside's theorem: every nonlinear irreducible
    character vanishes somewhere."""
    if any(d > 1 and not any(v.is_zero() for v in row)
           for d, row in zip(degrees, rows)):
        raise ArithmeticError("a nonlinear character has no zero")
    order_key = sorted(range(len(rows)), key=lambda r: (
        degrees[r], tuple(c.key() for c in rows[r])))
    return CharacterTable(classes, tuple(degrees[r] for r in order_key),
                          tuple(tuple(rows[r]) for r in order_key), modulus)


def _lift(classes: ConjugacyClasses, ell: int, exponent: int,
          degrees: list[int], ratios: list[list[int]]) -> list[list[Cyc]]:
    """Each character's values in Z[zeta_m], one row per character.

    chi(rep_j) = sum_t mult_t zeta_m^t for m = |rep_j|, and mult_t =
    m^-1 sum_s chi(rep_j^s) w^-ts mod l, w of order m.  chi(rep_j^s)
    takes one value per power class c, so mult_t = sum_c chi(c) A_c[t]
    with A_c[t] = m^-1 sum_{s: rep_j^s in c} w^-ts, built once per
    leader of a rational class and shared by every character: m times
    the number of power classes per character.  A class j = i^s of a
    leader i is a Galois image, mult_j[t s mod m] = mult_i[t], checked
    forward against chi(rep_j) mod l.  Each distinct value is reduced
    once.
    """
    root_e = pow(primitive_root(ell), (ell - 1) // exponent, ell)
    rows = [[] for _ in degrees]
    lifted = {}
    reduced = {}
    for j, (i, s) in enumerate(classes.rational_classes):
        m = classes.orders[j]
        powers = [pow(root_e, exponent // m * t, ell) for t in range(m)]
        if i == j:
            groups = {}
            for e in range(m):
                groups.setdefault(classes.power_class(j, e), []).append(e)
            m_inv = pow(m, -1, ell)
            coeffs = [[m_inv * sum(powers[-t * e % m] for e in es) % ell
                       for es in groups.values()] for t in range(m)]
            lifted[j] = column = []
            for d, ratio in zip(degrees, ratios):
                theta = [d * ratio[c] for c in groups]
                mults = tuple([sum(map(mul, a, theta)) % ell for a in coeffs])
                if max(mults) > d:
                    raise ArithmeticError("cyclotomic lift produced an invalid multiplicity")
                if sum(mults) != d:
                    raise ArithmeticError("lifted multiplicities do not sum to the degree")
                column.append(mults)
        else:
            targets = [t * s % m for t in range(m)]
            column = []
            for d, ratio, source in zip(degrees, ratios, lifted[i]):
                image = [0] * m
                for t, c in zip(targets, source):
                    image[t] = c
                if sum(map(mul, image, powers)) % ell != d * ratio[j] % ell:
                    raise ArithmeticError("Galois image of a lifted class does not give its character value")
                column.append(tuple(image))
        for row, mults in zip(rows, column):
            value = reduced.get((m, mults))
            if value is None:
                value = reduced[m, mults] = Cyc.make(m, mults)
            row.append(value)
    return rows


def _eigenlines(classes: ConjugacyClasses, ell: int) -> list[list[int]]:
    """The common eigenvectors of the class matrices over F_l, one per
    irreducible character.

    Each eigenspace W is held as a row-reduced basis with pivot
    columns P, so b_c is 1 at P[c] and 0 at the other pivots.  Then
    (M b_c)_P is column c of M restricted to W, and a d-dimensional W
    needs only the d rows of M at P (Schneider, J. Symbolic Comput. 9,
    1990): rt[a][c] = M[P[a]][P[c]] + sum over the free columns t of
    M[P[a]][t] b_c[t], which is M[P][P] itself for the first space.
    Classes are taken smallest first: row r of class i costs
    |C_i| * |word(rep_r)| table steps, and the same rows are needed
    whichever class comes next.  A scalar restriction keeps W whole.
    Any other must split W into eigenspaces whose dimensions sum to d,
    or the restriction was not diagonalisable; the roots are found once
    per distinct characteristic polynomial in a table.  Each eigenspace
    is row-reduced in W's d coordinates, so by uniqueness of the
    reduced form its pivots are P[Q] for the coordinate pivots Q, and
    only its free columns are summed from the basis.
    """
    k = classes.count
    spaces = [(list(range(k)), [[int(a == b) for a in range(k)]
                                for b in range(k)])]
    roots_of = {}

    def refine(pivots, basis, rows):
        d = len(pivots)
        on_pivots = set(pivots)
        free = [t for t in range(k) if t not in on_pivots]
        basis_free = [[b[t] for t in free] for b in basis]
        rt = []
        for p in pivots:
            row = rows[p]
            row_free = [row[t] for t in free]
            rt.append([(row[q] + sum(map(mul, row_free, b))) % ell
                       for q, b in zip(pivots, basis_free)])
        lam = rt[0][0]
        if rt == [[lam if a == c else 0 for c in range(d)] for a in range(d)]:
            return [(pivots, basis)]
        poly = charpoly(rt, ell)
        roots = roots_of.get(poly)
        if roots is None:
            roots = roots_of[poly] = poly_roots(poly, ell)
        columns = list(zip(*basis_free))
        out = []
        covered = 0
        for lam in roots:
            shifted = [[(x - lam) % ell if a == c else x
                        for c, x in enumerate(r)] for a, r in enumerate(rt)]
            coords, sub_pivots = rref(nullspace(shifted, ell), ell)
            covered += len(coords)
            sub = []
            for r in coords:
                v = [0] * k
                for p, x in zip(pivots, r):
                    v[p] = x
                for t, column in zip(free, columns):
                    v[t] = sum(map(mul, r, column)) % ell
                sub.append(v)
            out.append(([pivots[q] for q in sub_pivots], sub))
        if covered != d:
            raise ArithmeticError("class matrix restriction was not diagonalisable")
        return out

    # l does not divide |G|, so the class algebra over F_l is split
    # semisimple: once every class matrix has been applied, each common
    # eigenspace is a line.
    for i in sorted(range(1, k), key=classes.sizes.__getitem__):
        wide = [space for space in spaces if len(space[1]) > 1]
        if not wide:
            break
        needed = {p for pivots, _ in wide for p in pivots}
        rows = {r: classes.class_matrix_row(i, r) for r in needed}
        nxt = []
        for space in spaces:
            nxt.extend(refine(*space, rows) if len(space[1]) > 1 else [space])
        spaces = nxt
    if any(len(basis) > 1 for _, basis in spaces):
        raise ArithmeticError("eigenspace splitting failed to separate characters")
    return [basis[0] for _, basis in spaces]
