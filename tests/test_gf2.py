import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strandjoin.gf2 import (
    ChainComplexError,
    ChainComplexGf2,
    Gf2Matrix,
    homology,
    rank,
    span_coordinates,
    tagged_span,
)


def span_solve(m: Gf2Matrix, b: frozenset):
    """Some x with m @ x = b, read off the tagged span of m's columns, or None."""
    index = {r: i for i, r in enumerate(m.rows)}
    pivots = tagged_span([index[r] for r in m.column(c)] for c in m.cols)
    tags = span_coordinates(pivots, sum(1 << index[r] for r in b))
    return None if tags is None else frozenset(m.cols[i] for i in tags)


def test_vector_addition_is_symmetric_difference():
    a = frozenset({"x", "y"})
    b = frozenset({"y", "z"})
    assert (a ^ b) == {"x", "z"}
    assert not (a ^ a)


def test_rank_zero_and_identity():
    z = Gf2Matrix.zero(("r1", "r2", "r3"), ("c1", "c2", "c3"))
    assert rank(z) == 0
    assert rank(Gf2Matrix.identity(("a", "b", "c"))) == 3


def test_rank_dependent_rows():
    m = Gf2Matrix(
        ("r1", "r2", "r3"),
        ("c1", "c2", "c3"),
        {("r1", "c1"), ("r1", "c2"), ("r2", "c2"), ("r2", "c3"), ("r3", "c1"), ("r3", "c3")},
    )
    assert rank(m) == 2


def test_solve_identity_and_zero():
    assert span_solve(Gf2Matrix.identity(("c1",)), frozenset({"c1"})) == {"c1"}
    z = Gf2Matrix.zero(("c1",), ("c1",))
    assert span_solve(z, frozenset({"c1"})) is None


def test_solve_underdetermined():
    m = Gf2Matrix(("r1",), ("c1", "c2"), {("r1", "c1"), ("r1", "c2")})
    # c2 lies in the span of c1, so it adds no pivot and the answer is {c1}.
    assert span_solve(m, frozenset({"r1"})) == {"c1"}
    assert tagged_span([[0], [0]]) == {0: (0b1, 0b01)}


def test_tagged_span_keeps_each_rows_tags_beside_its_bits():
    # A pivot row is (bits, tags), keyed by the lowest set bit: the bits are
    # the sum of the tagged vectors and reach no higher than the vectors do;
    # a vector in the span of earlier ones adds no row.
    rng = random.Random(185)
    for _ in range(200):
        n = rng.randint(1, 12)
        supports = [rng.sample(range(n), rng.randint(0, n)) for _ in range(rng.randint(0, 15))]
        vectors = [sum(1 << j for j in s) for s in supports]

        def summed(tags):
            acc = 0
            for i in tags:
                acc ^= vectors[i]
            return acc

        pivots = tagged_span(supports)
        for p, (v, tags) in pivots.items():
            assert (v & -v).bit_length() - 1 == p and v.bit_length() <= n
            assert summed(i for i in range(len(vectors)) if tags >> i & 1) == v
        m = Gf2Matrix(range(n), range(len(supports)),
                      {(j, i) for i, s in enumerate(supports) for j in s})
        assert len(pivots) == rank(m)
        for v in vectors:
            assert summed(span_coordinates(pivots, v)) == v


def test_homology_single_generator():
    c = ChainComplexGf2(("x",))
    assert homology(c)[:2] == (1, [frozenset({"x"})])


def test_homology_acyclic_pair():
    d = Gf2Matrix(("x", "y"), ("x", "y"), {("y", "x")})
    assert homology(ChainComplexGf2(("x", "y"), d))[:2] == (0, [])


def test_homology_rejects_bad_differential():
    d = Gf2Matrix(("x", "y"), ("x", "y"), {("y", "x"), ("x", "y")})
    with pytest.raises(ChainComplexError):
        homology(ChainComplexGf2(("x", "y"), d))


def test_homology_of_z1_algebra_complex(am1):
    basis = tuple(range(am1.dim))
    d = Gf2Matrix.from_columns(
        basis, basis, {i: am1.diff_table[i] for i in basis}
    )
    assert homology(ChainComplexGf2(basis, d))[0] == 3


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**20 - 1), st.data())
def test_rank_invariant_under_permutation(bits, data):
    rows = tuple(f"r{i}" for i in range(4))
    cols = tuple(f"c{j}" for j in range(5))
    nz = frozenset(
        (rows[i], cols[j]) for i in range(4) for j in range(5) if bits >> (5 * i + j) & 1
    )
    m = Gf2Matrix(rows, cols, nz)
    pr = data.draw(st.permutations(rows))
    pc = data.draw(st.permutations(cols))
    m2 = Gf2Matrix(tuple(pr), tuple(pc), nz)
    assert rank(m) == rank(m2)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**16 - 1), st.integers(0, 15))
def test_solve_agrees_with_rank_criterion(bits, bbits):
    rows = tuple(f"r{i}" for i in range(4))
    cols = tuple(f"c{j}" for j in range(4))
    nz = frozenset(
        (rows[i], cols[j]) for i in range(4) for j in range(4) if bits >> (4 * i + j) & 1
    )
    m = Gf2Matrix(rows, cols, nz)
    b = frozenset(rows[i] for i in range(4) if bbits >> i & 1)
    aug = Gf2Matrix(rows, cols + ("_b",), nz | {(r, "_b") for r in b})
    x = span_solve(m, b)
    if rank(aug) == rank(m):
        assert x is not None and m.apply(x) == b
    else:
        assert x is None


def test_homology_representative_shortfall_is_an_error(monkeypatch):
    # d(x) = y and d(y) = x, with the d^2 check bypassed: both columns are
    # kept, so the count gives dimension -2 and no representative, and
    # homology must raise rather than return them.
    monkeypatch.setattr(ChainComplexGf2, "check_d_squared", lambda c: None)
    d = Gf2Matrix(("x", "y"), ("x", "y"), {("y", "x"), ("x", "y")})
    with pytest.raises(RuntimeError, match="representatives"):
        homology(ChainComplexGf2(("x", "y"), d))
