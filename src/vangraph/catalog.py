"""Building permutation groups from short text descriptions.

Grammar: atoms `S<n>`, `A<n>`, `C<n>`, `D<m>` (dihedral of order m),
`PSL(2,<p>)`, `file:<path>`, joined by a bare `x` for direct products.
Products act on the disjoint union of the factors' point sets, so
orders multiply.  Dihedral names follow the order-m convention; D4 is
the Klein group, realized on four points since two points only carry a
group of order 2.
"""
from __future__ import annotations

import re
from pathlib import Path

from . import caps
from .numth import is_prime
from .perms import Perm, PermGroup, cycle_perm, read_generator_file


class SpecError(ValueError):
    """A group description that cannot be parsed or built."""


_ATOM = re.compile(r"^([SAC])(\d+)$|^D(\d+)$|^PSL\(2,(\d+)\)$")


def _check_degree(degree: int) -> None:
    if degree > caps.DEGREE_CAP:
        raise SpecError(f"degree {degree} exceeds degree cap {caps.DEGREE_CAP}")


def cyclic_group(n: int) -> PermGroup:
    if n < 1:
        raise SpecError("cyclic group needs n >= 1")
    _check_degree(n)
    return PermGroup([cycle_perm(tuple(range(n)), n)])


def symmetric_group(n: int) -> PermGroup:
    if n < 1:
        raise SpecError("symmetric group needs n >= 1")
    _check_degree(n)
    # PermGroup drops the identity and repeats, which S1 and S2 yield
    return PermGroup([cycle_perm(tuple(range(min(n, 2))), n),
                      cycle_perm(tuple(range(n)), n)])


def alternating_group(n: int) -> PermGroup:
    if n < 3:
        raise SpecError("alternating group needs n >= 3")
    _check_degree(n)
    three = cycle_perm((0, 1, 2), n)
    big = cycle_perm(tuple(range(n)) if n % 2 else tuple(range(1, n)), n)
    return PermGroup([three, big])


def dihedral_group(order: int) -> PermGroup:
    if order < 4 or order % 2:
        raise SpecError("dihedral group needs an even order >= 4")
    _check_degree(order // 2)
    if order == 4:
        return PermGroup([cycle_perm((0, 1), 4), cycle_perm((2, 3), 4)])
    k = order // 2
    rotation = cycle_perm(tuple(range(k)), k)
    reflection = Perm(tuple((k - i) % k for i in range(k)))
    return PermGroup([rotation, reflection])


def psl2(p: int) -> PermGroup:
    """Fractional-linear action on the projective line over F_p: the
    p+1 points are 0..p-1 and infinity (last), generated by the shift
    z -> z+1 and the inversion z -> -1/z."""
    if p < 3 or not is_prime(p):
        raise SpecError("PSL(2,p) needs an odd prime p")
    _check_degree(p + 1)
    inf = p
    shift = Perm(tuple((z + 1) % p for z in range(p)) + (inf,))
    images = [0] * (p + 1)
    images[0], images[inf] = inf, 0
    for z in range(1, p):
        images[z] = (-pow(z, p - 2, p)) % p
    return PermGroup([shift, Perm(tuple(images))])


def direct_product(factors: list[PermGroup]) -> PermGroup:
    degree = sum(g.degree for g in factors)
    _check_degree(degree)
    gens: list[Perm] = []
    offset = 0
    for g in factors:
        gens.extend(h.embed(degree, offset) for h in g.generators)
        offset += g.degree
    return PermGroup(gens, degree=degree)


def build_atom(token: str) -> PermGroup:
    if token.startswith("file:"):
        path = Path(token[5:])
        try:
            return read_generator_file(path.read_text())
        except OSError as exc:
            raise SpecError(f"cannot read {path}: {exc}") from exc
        except ValueError as exc:
            raise SpecError(f"bad generator file {path}: {exc}") from exc
    m = _ATOM.match(token)
    if not m:
        raise SpecError(f"unrecognized group atom: {token!r}")
    family, n, d_order, psl_p = m.groups()
    if d_order is not None:
        return dihedral_group(int(d_order))
    if psl_p is not None:
        return psl2(int(psl_p))
    n = int(n)
    if family == "C":
        return cyclic_group(n)
    if family == "S":
        return symmetric_group(n)
    return alternating_group(n)


def catalog_group(spec: str) -> PermGroup:
    """Parse a full group description, products included."""
    tokens = spec.split()
    if not tokens:
        raise SpecError("empty group description")
    if len(tokens) % 2 == 0:
        raise SpecError(f"malformed product expression: {spec!r}")
    for sep in tokens[1::2]:
        if sep != "x":
            raise SpecError(f"expected 'x' between atoms, got {sep!r}")
    factors = [build_atom(t) for t in tokens[0::2]]
    if len(factors) == 1:
        return factors[0]
    return direct_product(factors)
