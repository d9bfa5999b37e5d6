"""Exact cyclotomic integer arithmetic."""

import math

from hypothesis import given
from hypothesis import strategies as st

from vangraph.cyclo import Cyc, cyclotomic_poly, phi


def zeta(m, k=1):
    return Cyc.make(m, (0,) * k + (1,))


def conjugate(v):
    """Complex conjugation, zeta -> zeta^-1."""
    m = v.conductor
    raw = [0] * m
    for k, c in enumerate(v.coeffs):
        raw[-k % m] += c
    return Cyc.make(m, raw)


def test_roots_of_unity_sum_to_zero():
    # 1 + z + ... + z^(m-1) = 0 for every m > 1
    for m in (2, 3, 4, 5, 6, 8, 9, 12):
        total = Cyc.integer(0)
        for k in range(m):
            total = total + zeta(m, k)
        assert total.is_zero()


def test_integer_embedding():
    assert Cyc.integer(5).as_int() == 5
    assert Cyc.integer(0).is_zero()
    assert not Cyc.integer(-1).is_zero()
    assert zeta(5).as_int() is None


def test_fourth_root_squares_to_minus_one():
    i = zeta(4)
    assert (i * i).as_int() == -1
    assert (i * conjugate(i)).as_int() == 1


def test_conductor_cross_arithmetic():
    # z_6 = 1 + z_3 holds after reduction to a common conductor
    assert (zeta(6) - (zeta(3) + Cyc.integer(1))).is_zero()
    # z_6^3 = -1
    assert (zeta(6) * zeta(6) * zeta(6)).as_int() == -1


def test_golden_ratio_pair():
    # z + z^4 and z^2 + z^3 for z = z_5 are the two roots of x^2 + x - 1
    a = zeta(5, 1) + zeta(5, 4)
    b = zeta(5, 2) + zeta(5, 3)
    assert (a + b).as_int() == -1
    assert (a * b).as_int() == -1
    assert (a * a + a - Cyc.integer(1)).is_zero()


def test_conjugation_fixes_rationals_and_inverts_roots():
    z = zeta(7, 2)
    assert (conjugate(z) - zeta(7, 5)).is_zero()
    assert (z * conjugate(z)).as_int() == 1


def test_root_of_unity_multiplicative_order():
    for m, k in [(6, 2), (8, 6), (12, 4), (5, 1)]:
        z = zeta(m, k)
        n = m // math.gcd(m, k)
        power = Cyc.integer(1)
        for j in range(1, n + 1):
            power = power * z
            if j < n:
                assert power.as_int() != 1
        assert power.as_int() == 1


def test_cyclotomic_poly_known_values():
    # ascending coefficients
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    for n in range(1, 30):
        assert len(cyclotomic_poly(n)) == phi(n) + 1


def test_phi():
    assert [phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4,
                                              10, 4]


small_cyc = st.builds(
    lambda m, coeffs: sum((zeta(m, k) * Cyc.integer(c)
                           for k, c in enumerate(coeffs)),
                          Cyc.integer(0)),
    st.sampled_from([1, 2, 3, 4, 6, 8, 12]),
    st.lists(st.integers(-4, 4), min_size=1, max_size=4))


@given(small_cyc, small_cyc, small_cyc)
def test_ring_laws(a, b, c):
    assert ((a + b) * c - (a * c + b * c)).is_zero()
    assert (a * b - b * a).is_zero()
    assert ((a - b) + b - a).is_zero()


@given(small_cyc, small_cyc)
def test_conjugation_is_a_ring_map(a, b):
    assert (conjugate(a * b) - conjugate(a) * conjugate(b)).is_zero()
    assert (conjugate(a + b) - (conjugate(a) + conjugate(b))).is_zero()
