"""Exact character tables of finite groups by Dixon's modular method.

Pipeline: simultaneous eigenspace splitting over a prime field F_l
(l = 1 mod the group exponent, l squared beyond four times the order)
by class matrices built one at a time, only while a space is still
wider than a line -> the mod-l characters read off the common
eigenvectors, with degrees from the orthogonality norm ->
exact lift to cyclotomic integers through a discrete Fourier transform
over the power map.

Every step is integer arithmetic; the final table is exact by
construction and is re-checked against the orthogonality relations in
the test suite.  The eigenspace splitting consumes randomness only from
a fixed-seed generator, so tables are bit-reproducible run to run.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .caps import Caps, CapExceeded, default_caps
from .cyclo import Cyc
from .numth import (charpoly, dixon_prime, mat_vec, nullspace, poly_roots,
                    primitive_root, solve_in_columns, sqrt_mod)
from .structure import ConjugacyClasses

_SPLIT_SEED = 0x0D15C0


def class_matrix(classes: ConjugacyClasses, i: int) -> list[list[int]]:
    """Multiplication by the class sum K_i on the class-sum basis:
    entry [r][c] counts the x in class i with x^-1 * rep_r in class c,
    which is the class constant a[i][c][r].  The x^-1 run over the
    inverse class, as image tuples.  Costs |C_i| * k products."""
    ids = classes.ids
    class_of = classes.class_of_element
    inv = classes.inverse_class(i)
    k = classes.count
    mat = [[0] * k for _ in range(k)]
    for y, cy in zip(ids, class_of):
        if cy != inv:
            continue
        for r, rep in enumerate(classes.reps):
            mat[r][class_of[ids[tuple(map(rep.images.__getitem__, y))]]] += 1
    return mat


def group_exponent(classes: ConjugacyClasses) -> int:
    return math.lcm(*(rep.order() for rep in classes.reps))


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


def character_table(classes: ConjugacyClasses,
                    caps: Caps | None = None) -> CharacterTable:
    caps = caps or default_caps()
    k = classes.count
    if k > caps.table_class_cap:
        raise CapExceeded(f"{k} classes exceeds table cap {caps.table_class_cap}")
    order = classes.group.order
    exponent = group_exponent(classes)
    ell = dixon_prime(order, exponent)
    rng = random.Random(_SPLIT_SEED)
    spaces = [[_unit_vector(k, j) for j in range(k)]]  # list of column bases

    def refine(space, mat):
        d = len(space)
        mb = [mat_vec(mat, col, ell) for col in space]
        coords_cols = solve_in_columns(space, mb, ell)
        rt = [[coords_cols[c][rw] for c in range(d)] for rw in range(d)]
        roots = poly_roots(charpoly(rt, ell), ell, rng)
        if len(roots) <= 1:
            return [space]
        out = []
        covered = 0
        for lam in roots:
            shifted = [[(rt[a][b] - (lam if a == b else 0)) % ell
                        for b in range(d)] for a in range(d)]
            sub = []
            for coords in nullspace(shifted, ell):
                vec = [0] * k
                for c, col in zip(coords, space):
                    if c:
                        for t in range(k):
                            vec[t] = (vec[t] + c * col[t]) % ell
                sub.append(vec)
            covered += len(sub)
            out.append(sub)
        if covered != d:
            raise ArithmeticError("class matrix restriction was not diagonalisable")
        return out

    # l does not divide |G|, so the class algebra over F_l is split
    # semisimple: once every class matrix has been applied, each common
    # eigenspace is a line.
    for i in range(1, k):
        if all(len(s) == 1 for s in spaces):
            break
        mat = [[a % ell for a in row] for row in class_matrix(classes, i)]
        nxt = []
        for space in spaces:
            if len(space) == 1:
                nxt.append(space)
            else:
                nxt.extend(refine(space, mat))
        spaces = nxt
    if not all(len(s) == 1 for s in spaces):
        raise ArithmeticError("eigenspace splitting failed to separate characters")

    # each line is spanned by v with v[j] proportional to chi(rep_j^-1),
    # so chi(rep_j) / chi(1) = v[inv j] / v[0], and the first
    # orthogonality relation gives sum |C_j| |ratio_j|^2 = |G| / chi(1)^2
    sizes = classes.sizes
    inv_class = [classes.inverse_class(j) for j in range(k)]
    theta_rows = []
    degrees = []
    for (v,) in spaces:
        if not v[0]:
            raise ArithmeticError("common eigenvector vanishes at the identity class")
        v0_inv = pow(v[0], -1, ell)
        ratio = [v[inv_class[j]] * v0_inv % ell for j in range(k)]
        norm = sum(sizes[j] * ratio[j] * ratio[inv_class[j]]
                   for j in range(k)) % ell
        d_sq = order * pow(norm, -1, ell) % ell
        d = sqrt_mod(d_sq, ell)
        if d > ell - d:
            d = ell - d
        if d == 0 or d * d > order:
            raise ArithmeticError("impossible character degree from normalisation")
        theta = [d * r % ell for r in ratio]
        degrees.append(d)
        theta_rows.append(theta)

    if sum(d * d for d in degrees) != order:
        raise ArithmeticError("degree squares do not sum to the group order")
    # certificate: the first orthogonality relation mod l,
    # sum_j |C_j| theta_a(j) theta_b(inv j) = delta_ab |G|; the diagonal
    # holds by the choice of degree, so the pairs a != b are the check
    for a, theta_a in enumerate(theta_rows):
        for b, theta_b in enumerate(theta_rows):
            total = sum(sizes[j] * theta_a[j] * theta_b[inv_class[j]]
                        for j in range(k))
            if (total - (order if a == b else 0)) % ell:
                raise ArithmeticError("rows fail the orthogonality relation mod l")

    root_e = pow(primitive_root(ell), (ell - 1) // exponent, ell)
    inv_m = {d: pow(d, -1, ell) for d in {rep.order() for rep in classes.reps}}
    rows = []
    for d, theta in zip(degrees, theta_rows):
        row = []
        for j in range(k):
            m = classes.reps[j].order()
            w = pow(root_e, exponent // m, ell)
            powers = [1] * m
            for t in range(1, m):
                powers[t] = powers[t - 1] * w % ell
            theta_pows = [theta[classes.power_class(j, s)] for s in range(m)]
            mults = []
            for t in range(m):
                acc = 0
                for s in range(m):
                    acc += theta_pows[s] * powers[(-t * s) % m]
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


def _unit_vector(k: int, j: int) -> list[int]:
    v = [0] * k
    v[j] = 1
    return v
