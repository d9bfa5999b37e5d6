"""Exact character tables of finite groups by Dixon's modular method.

Pipeline: simultaneous eigenspace splitting over a prime field F_l
(l = 1 mod the group exponent, l squared beyond four times the order)
by class matrices, smallest class first, while a space is still wider
than a line; a d-dimensional space reads only the d rows of a class
matrix at its pivot positions, each row |C_i| products (Schneider's
refinement of Dixon's method) -> the mod-l characters read off the
common eigenvectors -> each degree d read off the orthogonality norm:
d^2 = |G| / norm mod l, and since l > 2 sqrt|G| exactly one d in
1..sqrt|G| has that square, so a search finds it -> exact lift to
cyclotomic integers through a discrete Fourier transform over the
power map.

Every step is integer arithmetic; the final table is exact by
construction and is re-checked against the orthogonality relations in
the test suite.  The eigenspace splitting draws no random numbers (its
root finder probes 1, 2, 3, ... and returns sorted roots), so tables are
bit-reproducible run to run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import caps
from .cyclo import Cyc
from .numth import (charpoly, dixon_prime, nullspace, poly_roots,
                    primitive_root, rref)
from .structure import ConjugacyClasses


def class_matrix_row(classes: ConjugacyClasses,
                     inverse_members: list[tuple[int, ...]],
                     r: int) -> list[int]:
    """Row r of the class matrix M_i, given the members of the inverse
    class of i: entry c counts the x in class i with x^-1 * rep_r in
    class c, which is the class constant a[i][c][r].  Costs |C_i|
    products."""
    ids = classes.ids
    class_of = classes.class_of_element
    rep = classes.reps[r].images
    row = [0] * classes.count
    for y in inverse_members:
        row[class_of[ids[tuple(map(rep.__getitem__, y))]]] += 1
    return row


def class_matrix(classes: ConjugacyClasses, i: int) -> list[list[int]]:
    """Multiplication by the class sum K_i on the class-sum basis, as
    the stack of its k rows: |C_i| * k products."""
    inverse_members = classes.members[classes.inverse_class(i)]
    return [class_matrix_row(classes, inverse_members, r)
            for r in range(classes.count)]


@dataclass(frozen=True)
class CharacterTable:
    """Rows are irreducible characters sorted by degree then value
    vector; columns follow the conjugacy class order.  values[i][j] is
    stored at conductor equal to the order of class j's representative.
    """

    classes: ConjugacyClasses
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
    if k > caps.TABLE_CLASS_CAP:
        raise caps.CapExceeded(f"{k} classes exceeds table cap {caps.TABLE_CLASS_CAP}")
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
    gram = [[sum(sizes[j] * ra[j] * rb[inv_class[j]] for j in range(k)) % ell
             for rb in ratios[:a + 1]] for a, ra in enumerate(ratios)]
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

    root_e = pow(primitive_root(ell), (ell - 1) // exponent, ell)
    inv_m = {m: pow(m, -1, ell) for m in set(classes.orders)}
    rows = []
    for d, ratio in zip(degrees, ratios):
        theta = [d * r % ell for r in ratio]
        row = []
        for j in range(k):
            m = classes.orders[j]
            w = pow(root_e, exponent // m, ell)
            powers = [pow(w, t, ell) for t in range(m)]
            theta_pows = [theta[classes.power_class(j, s)] for s in range(m)]
            mults = []
            for t in range(m):
                acc = sum(theta_pows[s] * powers[-t * s % m] for s in range(m))
                mult = acc % ell * inv_m[m] % ell
                if mult > d:
                    raise ArithmeticError("cyclotomic lift produced an invalid multiplicity")
                mults.append(mult)
            if sum(mults) != d:
                raise ArithmeticError("lifted multiplicities do not sum to the degree")
            row.append(Cyc.make(m, tuple(mults)))
        rows.append(row)

    order_key = sorted(range(k), key=lambda r: (degrees[r],
                                                tuple(c.key() for c in rows[r])))
    degrees = tuple(degrees[r] for r in order_key)
    values = tuple(tuple(rows[r]) for r in order_key)
    return CharacterTable(classes, degrees, values, ell)


def _eigenlines(classes: ConjugacyClasses, ell: int) -> list[list[int]]:
    """The common eigenvectors of the class matrices over F_l, one per
    irreducible character.

    Each eigenspace W is held as a row-reduced basis with pivot
    columns P, so b_c is 1 at P[c] and 0 at the other pivots.  Then
    (M b_c)_P is column c of M restricted to W, and a d-dimensional W
    needs only the d rows of M at P (Schneider, J. Symbolic Comput. 9,
    1990).  Classes are taken smallest first: every class costs |C_i|
    products per row, and the same rows are needed whichever class
    comes next.
    """
    k = classes.count
    spaces = [(list(range(k)), [[int(a == b) for a in range(k)]
                                for b in range(k)])]

    def refine(pivots, basis, rows):
        d = len(basis)
        rt = [[sum(m * x for m, x in zip(rows[p], b)) % ell for b in basis]
              for p in pivots]
        roots = poly_roots(charpoly(rt, ell), ell)
        if len(roots) <= 1:
            return [(pivots, basis)]
        out = []
        covered = 0
        for lam in roots:
            shifted = [[(rt[a][b] - (lam if a == b else 0)) % ell
                        for b in range(d)] for a in range(d)]
            sub = [[sum(c * b[t] for c, b in zip(coords, basis)) % ell
                    for t in range(k)] for coords in nullspace(shifted, ell)]
            covered += len(sub)
            reduced, sub_pivots = rref(sub, ell)
            out.append((sub_pivots, reduced))
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
        inverse_members = classes.members[classes.inverse_class(i)]
        needed = {p for pivots, _ in wide for p in pivots}
        rows = {r: class_matrix_row(classes, inverse_members, r)
                for r in needed}
        nxt = []
        for space in spaces:
            nxt.extend(refine(*space, rows) if len(space[1]) > 1 else [space])
        spaces = nxt
    if any(len(basis) > 1 for _, basis in spaces):
        raise ArithmeticError("eigenspace splitting failed to separate characters")
    return [basis[0] for _, basis in spaces]
