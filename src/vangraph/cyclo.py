"""Exact arithmetic in rings of cyclotomic integers Z[zeta_m].

A value is stored at an explicit conductor m, reduced modulo the m-th
cyclotomic polynomial into the power basis 1, zeta, ..., zeta^(phi(m)-1).
That basis is a free Z-basis of Z[zeta_m], so zero tests and equality are
exact coefficient comparisons; no floating point appears anywhere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

from .numth import poly_trim


def _poly_mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return poly_trim(out)


def _poly_divmod(a, m):
    """Quotient and remainder of a by a monic integer polynomial m."""
    a = list(a)
    dm = len(m) - 1
    assert m[-1] == 1, "divisor must be monic"
    q = [0] * max(0, len(a) - dm)
    for k in range(len(q) - 1, -1, -1):
        c = a[k + dm]
        q[k] = c
        if c:
            for i, mi in enumerate(m):
                a[k + i] -= c * mi
    return poly_trim(q), poly_trim(a[:dm])


@cache
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the m-th cyclotomic polynomial.

    Computed as (x^m - 1) divided by the cyclotomic polynomials of all
    proper divisors, with exact integer polynomial division.

    >>> cyclotomic_poly(1)
    (-1, 1)
    >>> cyclotomic_poly(6)
    (1, -1, 1)
    """
    if m < 1:
        raise ValueError("conductor must be positive")
    num = tuple([-1] + [0] * (m - 1) + [1])
    for d in range(1, m):
        if m % d == 0:
            num, rem = _poly_divmod(num, cyclotomic_poly(d))
            if rem:
                raise ArithmeticError("division was not exact")
    return num


@cache
def phi(m: int) -> int:
    return len(cyclotomic_poly(m)) - 1


@dataclass(frozen=True, eq=False)
class Cyc:
    """A cyclotomic integer at a fixed conductor, in reduced power-basis
    coordinates of length phi(conductor)."""

    conductor: int
    coeffs: tuple[int, ...]

    # Equality is defined value-wise across conductors, so instances are
    # deliberately unhashable; use .key() for sorting/serialisation.
    __hash__ = None

    @staticmethod
    def make(conductor: int, raw: tuple[int, ...] | list[int]) -> "Cyc":
        """Build from arbitrary power-basis coefficients (any length);
        exponents fold modulo the conductor, then reduce mod the
        cyclotomic polynomial."""
        m = conductor
        folded = [0] * m
        for k, c in enumerate(raw):
            if c:
                folded[k % m] += c
        red = _poly_divmod(folded, cyclotomic_poly(m))[1]
        red = red + (0,) * (phi(m) - len(red))
        return Cyc(m, red)

    @staticmethod
    def integer(c: int) -> "Cyc":
        return Cyc.make(1, (c,))

    def promote(self, conductor: int) -> "Cyc":
        """The same value expressed at a larger conductor (a multiple)."""
        if conductor == self.conductor:
            return self
        if conductor % self.conductor:
            raise ValueError("new conductor must be a multiple")
        step = conductor // self.conductor
        raw = [0] * (self.conductor * step)
        for k, c in enumerate(self.coeffs):
            raw[k * step] = c
        return Cyc.make(conductor, tuple(raw))

    def _pair(self, other):
        m = math.lcm(self.conductor, other.conductor)
        return self.promote(m), other.promote(m), m

    def __add__(self, other):
        a, b, m = self._pair(other)
        return Cyc(m, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    def __sub__(self, other):
        a, b, m = self._pair(other)
        return Cyc(m, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __mul__(self, other):
        a, b, m = self._pair(other)
        return Cyc.make(m, _poly_mul(a.coeffs, b.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def as_int(self) -> int | None:
        """The value as a plain integer, or None when it is irrational."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0] if self.coeffs else 0

    def __eq__(self, other):
        if isinstance(other, int):
            return self.as_int() == other
        if not isinstance(other, Cyc):
            return NotImplemented
        a, b, _ = self._pair(other)
        return a.coeffs == b.coeffs

    def key(self) -> tuple:
        """Deterministic sort / serialisation key."""
        return (self.conductor, self.coeffs)

    def __repr__(self):
        n = self.as_int()
        if n is not None:
            return f"Cyc({n})"
        return f"Cyc(m={self.conductor}, {self.coeffs})"
