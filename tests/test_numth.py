"""Number theory and finite-field linear algebra helpers."""

import random

from hypothesis import given
from hypothesis import strategies as st

from vangraph import numth


def test_is_prime_small():
    primes = [n for n in range(2, 60) if numth.is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                      47, 53, 59]
    assert not numth.is_prime(1)
    assert not numth.is_prime(0)


def test_is_prime_agrees_with_factorint():
    # n = 0 is in test_is_prime_small: factorint refuses it
    for n in range(1, 200_000):
        assert numth.is_prime(n) == (numth.factorint(n) == {n: 1}), n


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the prime bases 2..7, 2..31 and 2..37: only
    # the later bases catch them, base 41 alone the last one
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not numth.is_prime(n), n
    assert numth.is_prime(1000000000000000003)
    assert numth.is_prime(2 ** 61 - 1)
    assert not numth.is_prime((2 ** 61 - 1) * 1000003)


def test_factorint():
    assert numth.factorint(2520) == {2: 3, 3: 2, 5: 1, 7: 1}
    assert numth.factorint(1) == {}
    assert numth.factorint(97) == {97: 1}


def test_prime_divisors():
    assert numth.prime_divisors(360) == (2, 3, 5)
    assert numth.prime_divisors(1) == ()


def test_is_prime_power():
    assert numth.is_prime_power(8, 2)
    assert numth.is_prime_power(1, 3)
    assert not numth.is_prime_power(12, 2)
    assert not numth.is_prime_power(0, 2)


def test_primitive_root():
    for p in (3, 5, 7, 11, 13, 101):
        g = numth.primitive_root(p)
        seen = {pow(g, k, p) for k in range(p - 1)}
        assert len(seen) == p - 1


def test_dixon_prime():
    # smallest l = 1 (mod exponent) with l*l > 4*order
    assert numth.dixon_prime(60, 30) == 31
    assert numth.dixon_prime(6, 6) == 7
    assert numth.dixon_prime(24, 12) == 13
    l = numth.dixon_prime(2520, 420)
    assert l % 420 == 1 and l * l > 4 * 2520 and numth.is_prime(l)


def test_poly_arithmetic_mod_p():
    # coefficients ascending: (1, 1) is 1 + x
    assert numth.poly_mul((1, 1), (1, 6), 7) == (1, 0, 6)
    # (x + 2)(x + 3) = x^2 + 5x + 6 over F_7
    assert numth.poly_mul((2, 1), (3, 1), 7) == (6, 5, 1)
    q, r = numth.poly_divmod((6, 5, 1), (2, 1), 7)
    assert numth.poly_trim(q) == (3, 1)
    assert numth.poly_trim(r) == ()
    assert numth.poly_roots((6, 5, 1), 7) == [4, 5]
    assert numth.poly_gcd((6, 5, 1), (2, 1), 7) == (2, 1)


def test_poly_roots_keep_multiplicity_p_roots():
    # the derivative of (x - a)^p is 0 in characteristic p, so a
    # square-free reduction f / gcd(f, f') would drop such roots
    def power(g, e):
        out = (1,)
        for _ in range(e):
            out = numth.poly_mul(out, g, 7)
        return out

    f = numth.poly_mul(power((6, 1), 7), (5, 1), 7)    # (x-1)^7 (x-2)
    assert numth.poly_roots(f, 7) == [1, 2]
    assert numth.poly_roots(power((4, 1), 7), 7) == [3]
    g = numth.poly_mul(power((6, 1), 8), power((4, 1), 2), 7)
    assert numth.poly_roots(g, 7) == [1, 3]


def test_charpoly_2x2_oracle():
    # x^2 - tr x + det for a 2x2 matrix, ascending coefficients
    mat = ((1, 2), (3, 4))
    tr, det = 5, (1 * 4 - 2 * 3) % 7
    assert numth.charpoly(mat, 7) == (det % 7, (-tr) % 7, 1)


def test_charpoly_eigenvalue_consistency():
    rng = random.Random(3)
    p = 101
    for _ in range(10):
        n = rng.randrange(2, 5)
        mat = tuple(tuple(rng.randrange(p) for _ in range(n))
                    for _ in range(n))
        f = numth.charpoly(mat, p)
        assert len(f) == n + 1 and f[-1] == 1
        for lam in numth.poly_roots(f, p):
            shifted = tuple(
                tuple((mat[i][j] - (lam if i == j else 0)) % p
                      for j in range(n)) for i in range(n))
            assert numth.nullspace(shifted, p)


def test_nullspace_and_solve():
    p = 5
    null = numth.nullspace(((1, 2), (2, 4)), p)
    assert null
    for v in null:
        assert (v[0] + 2 * v[1]) % p == 0
    assert numth.nullspace(((1, 0), (0, 1)), p) == []


@given(st.integers(2, 10 ** 6))
def test_factorint_reconstructs(n):
    prod = 1
    for p, e in numth.factorint(n).items():
        assert numth.is_prime(p)
        prod *= p ** e
    assert prod == n
