"""Elementary number theory and dense linear algebra over prime fields.

Sizes here are small (matrices up to the class-count cap, moduli in the
low thousands), so everything is straightforward trial division, Gaussian
elimination and textbook polynomial arithmetic on little-endian integer
tuples.  Primality is a deterministic Miller-Rabin test, a proof below
3,317,044,064,679,887,385,961,981; larger numbers are refused with
ValueError.  The root finder uses equal-degree splitting with probes
1, 2, 3, ... in turn: it draws no random numbers, and its roots come out
sorted.
"""
from __future__ import annotations

from itertools import count

# Miller-Rabin with these bases is exact below _MR_BOUND (Sorenson and
# Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, a proof below ``_MR_BOUND`` (about
    3.3 * 10^24); at or above it no answer is proven, so ValueError."""
    if n >= _MR_BOUND:
        raise ValueError(f"{n} is too large to prove prime"
                         f" (the bound is {_MR_BOUND})")
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1    # n - 1 = 2^s d, d odd
    for b in _MR_BASES:
        x = pow(b, (n - 1) >> s, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def factorint(n: int) -> dict[int, int]:
    """Prime factorisation by trial division; fine for the sizes here."""
    if n < 1:
        raise ValueError("need a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_divisors(n: int) -> tuple[int, ...]:
    return tuple(sorted(factorint(n))) if n > 1 else ()


def is_prime_power(n: int, p: int) -> bool:
    if n < 1:
        return False
    while n % p == 0:
        n //= p
    return n == 1


def primitive_root(p: int) -> int:
    """Smallest generator of the multiplicative group of F_p."""
    if p == 2:
        return 1
    fac = prime_divisors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in fac):
            return g
    raise ArithmeticError(f"no primitive root mod {p}?")


# -- matrices over F_p (lists of row lists) -------------------------------

def rref(mat, p):
    """Row-reduce in place (copy); returns (reduced, pivot column list)."""
    m = [row[:] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] % p), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def nullspace(mat, p):
    """Basis of the right nullspace, deterministic order (one vector per
    free column, ascending)."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    red, pivots = rref(mat, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-red[r][fc]) % p
        basis.append(v)
    return basis


def charpoly(mat, p) -> tuple[int, ...]:
    """Characteristic polynomial det(xI - A) over F_p via Hessenberg
    reduction; little-endian monic coefficients."""
    n = len(mat)
    h = [[x % p for x in row] for row in mat]
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if h[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[j + 1], h[piv] = h[piv], h[j + 1]
            for r in range(n):
                h[r][j + 1], h[r][piv] = h[r][piv], h[r][j + 1]
        inv = pow(h[j + 1][j], -1, p)
        for i in range(j + 2, n):
            if h[i][j]:
                f = h[i][j] * inv % p
                hi, hj1 = h[i], h[j + 1]
                for c in range(n):
                    hi[c] = (hi[c] - f * hj1[c]) % p
                for r in range(n):
                    h[r][j + 1] = (h[r][j + 1] + f * h[r][i]) % p
    polys = [(1,)]
    for i in range(1, n + 1):
        d = h[i - 1][i - 1]
        prev = polys[i - 1]
        # (x - d) * prev
        term = [(-d * c) % p for c in prev] + [0]
        for t, c in enumerate(prev):
            term[t + 1] = (term[t + 1] + c) % p
        run = 1
        for k in range(2, i + 1):
            run = run * h[i - k + 1][i - k] % p
            coeff = h[i - k][i - 1] * run % p
            if coeff:
                sub = polys[i - k]
                for t, c in enumerate(sub):
                    term[t] = (term[t] - coeff * c) % p
        polys.append(tuple(term))
    return polys[n]


# -- polynomials over F_p (little-endian tuples) ---------------------------

def poly_trim(a):
    n = len(a)
    while n and a[n - 1] == 0:
        n -= 1
    return tuple(a[:n])


def poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return poly_trim(out)


def poly_divmod(a, b, p):
    a = list(a)
    db = len(b) - 1
    if db < 0:
        raise ZeroDivisionError
    inv = pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c = a[k + db] * inv % p
        q[k] = c
        if c:
            for i, bi in enumerate(b):
                a[k + i] = (a[k + i] - c * bi) % p
    return poly_trim(q), poly_trim(a[:db])


def poly_gcd(a, b, p):
    a, b = poly_trim(a), poly_trim(b)
    while b:
        a, b = b, poly_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = tuple(c * inv % p for c in a)
    return a


def poly_powmod(base, e, mod, p):
    result = (1,)
    base = poly_divmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = poly_divmod(poly_mul(result, base, p), mod, p)[1]
        base = poly_divmod(poly_mul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def poly_sub(a, b, p):
    n = max(len(a), len(b))
    a = tuple(a) + (0,) * (n - len(a))
    b = tuple(b) + (0,) * (n - len(b))
    return poly_trim(tuple((x - y) % p for x, y in zip(a, b)))


def poly_roots(f, p) -> list[int]:
    """All roots of f in F_p, each once, ascending; p must be odd.
    Equal-degree splitting with (x+a)^((p-1)/2) probes, a = 1, 2, 3, ...:
    for roots r != s, (p-1)/2 residues a give r+a and s+a different
    quadratic characters (a Jacobsthal sum), so a factor splits within p
    probes."""
    f = poly_trim(f)
    if len(f) <= 1:
        return []
    xp = poly_powmod((0, 1), p, f, p)
    lin = poly_gcd(poly_sub(xp, (0, 1), p), f, p)
    # lin = gcd(x^p - x, f): the product of the distinct linear factors,
    # whatever their multiplicity in f
    roots: list[int] = []
    probes = count(1)

    def split(h):
        deg = len(h) - 1
        if deg <= 0:
            return
        if deg == 1:
            roots.append((-h[0] * pow(h[1], -1, p)) % p)
            return
        while True:
            a = next(probes) % p
            probe = poly_powmod((a, 1), (p - 1) // 2, h, p)
            d = poly_gcd(poly_sub(probe, (1,), p), h, p)
            if 0 < len(d) - 1 < deg:
                split(d)
                split(poly_divmod(h, d, p)[0])
                return

    split(lin)
    return sorted(roots)


def dixon_prime(order: int, exponent: int) -> int:
    """Smallest prime l with l = 1 (mod exponent) and l > 2*sqrt(order).

    >>> dixon_prime(60, 30)
    31
    >>> dixon_prime(6, 6)
    7
    >>> dixon_prime(1, 1)
    3
    """
    l = exponent + 1
    while True:
        if l * l > 4 * order and l > 2 and is_prime(l):
            return l
        l += exponent
