"""Differential tests: the sparse product table and the dga suite against brute force."""

import copy
import random
import time

from strands_oracle import dense_mult_table, dga_failures
from strandjoin.arc_diagram import Z0, Z1, Z2, ArcDiagram, random_diagram
from strandjoin.cli import _suite_dga
from strandjoin.strands import (
    AlgebraModel,
    ProductTable,
    enumerate_basis,
    reflect,
    rotate180,
)


def _ladder(k: int, kind: str = "alpha") -> ArcDiagram:
    """The rank-k interleaved ladder: x1..x2k on one arc, x_i matched with x_{i+k}."""
    points = tuple(f"x{i}" for i in range(1, 2 * k + 1))
    match = {p: (i % k) + 1 for i, p in enumerate(points)}
    return ArcDiagram((points,), match, kind)


def _assert_matches_dense(table, dense):
    assert type(table) is ProductTable
    assert all(table.values()), "a stored product is zero"
    assert dict(table) == {key: v for key, v in dense.items() if v}
    for key in dense:
        if key not in table:
            assert table[key] == frozenset()
    assert len(table) == sum(1 for v in dense.values() if v)


def _models():
    ams = [enumerate_basis(z) for z in (Z0, Z1, Z2, _ladder(3), _ladder(3, "beta"))]
    ams += [variant(am)[0] for am in ams[1:4] for variant in (rotate180, reflect)]
    rng = random.Random(11)
    ams += [enumerate_basis(random_diagram(rng, max_rank=3)) for _ in range(4)]
    return ams


def test_sparse_table_matches_dense_oracle():
    for am in _models():
        _assert_matches_dense(am.mult_table, dense_mult_table(am))


def test_opposite_table_matches_transposed_dense_oracle():
    for am in (enumerate_basis(Z1), enumerate_basis(Z2), enumerate_basis(_ladder(3))):
        dense = dense_mult_table(am)
        op = am.opposite()
        _assert_matches_dense(op.mult_table, {(j, i): v for (i, j), v in dense.items()})
        assert op.opposite() is am


def test_table_sizes_at_rank3_and_rank4():
    assert len(enumerate_basis(_ladder(3)).mult_table) == 575
    start = time.time()
    am4 = AlgebraModel(_ladder(4))
    elapsed = time.time() - start
    assert am4.dim == 1240
    assert len(am4.mult_table) == 13855
    assert elapsed < 10, f"rank-4 algebra build took {elapsed:.1f}s"


def _corrupt(am, rng, n):
    """A shallow copy of am with n seeded changes to its product table.

    Each change toggles one output of a stored product (dropping the entry if
    it empties) or gives a zero product one output.
    """
    table = dict(am.mult_table)
    for _ in range(n):
        if rng.random() < 0.5:
            key = rng.choice(sorted(table))
        else:
            key = (rng.randrange(am.dim), rng.randrange(am.dim))
        out = table.get(key, frozenset()) ^ {rng.randrange(am.dim)}
        if out:
            table[key] = out
        else:
            table.pop(key, None)
    bad = copy.copy(am)
    bad.mult_table = ProductTable(table)
    return bad


def test_dga_suite_agrees_with_brute_force_on_corruptions():
    am2 = enumerate_basis(Z2)
    assert _suite_dga(Z2, am2, random.Random(0)) == dga_failures(am2) == []
    rng = random.Random(5)
    failing = 0
    for _ in range(30):
        bad = _corrupt(am2, rng, rng.randint(1, 3))
        expected = dga_failures(bad)
        failing += any(f.startswith("associativity") for f in expected)
        assert _suite_dga(Z2, bad, random.Random(0)) == expected
    assert failing >= 25


def test_dga_suite_agrees_with_brute_force_at_rank3():
    # One brute-force pass costs seconds at rank 3, so one table carries
    # several corruptions at once.
    z = _ladder(3)
    bad = _corrupt(enumerate_basis(z), random.Random(7), 6)
    expected = dga_failures(bad)
    assert any(f.startswith("associativity") for f in expected)
    assert _suite_dga(z, bad, random.Random(0)) == expected
