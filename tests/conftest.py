import pytest
from test_cyclo import conjugate

from vangraph import harness
from vangraph.cyclo import Cyc


@pytest.fixture(scope="session")
def analyses():
    """Memoized per-spec analysis so expensive tables are built once."""
    cache = {}

    def get(spec):
        if spec not in cache:
            cache[spec] = harness.analyze(spec)
        return cache[spec]

    return get


@pytest.fixture(scope="session")
def quotient_classes():
    """Classes of G/N read off the table of G, for N a normal class set.

    The rows whose kernel contains N form the table of G/N.  Two classes
    of G fuse in G/N iff those rows agree on them, and column
    orthogonality gives |C_{G/N}(xN)| = sum of |chi(x)|^2 over those rows.
    Returns one (fused G-classes, size, vanishing) triple per class of
    G/N, after checking the size against |x^G N| / |N|.
    """
    def get(structure, normal):
        table = structure.table
        rows = [i for i, ker in enumerate(structure.kernels) if normal <= ker]
        fused = []
        for j in range(table.classes.count):
            col = [table.values[i][j] for i in rows]
            for other, members in fused:
                if other == col:
                    members.append(j)
                    break
            else:
                fused.append((col, [j]))
        assert len(fused) == len(rows)
        n_order = structure.order(normal)
        q_order = table.group_order // n_order
        assert sum(table.degrees[i] ** 2 for i in rows) == q_order
        out = []
        for col, members in fused:
            cent = Cyc.integer(0)
            for v in col:
                cent = cent + v * conjugate(v)
            cent = cent.as_int()
            assert q_order % cent == 0
            size = q_order // cent
            assert size * n_order == structure.order(members)
            out.append((tuple(members), size, any(v.is_zero() for v in col)))
        return out

    return get
