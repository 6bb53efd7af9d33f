"""Differential tests: the packed-int GF(2) kernel against the dense numpy oracle."""

import os
import random
import subprocess
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import gf2_oracle
from strandjoin.arc_diagram import Z1, Z2, ArcDiagram, serialize
from strandjoin.gf2 import ChainComplexGf2, Gf2Matrix, homology, rank
from strandjoin.join import diagonal
from strandjoin.standard_models import elementary, gamma_block, left_module_from_right_idem
from strandjoin.strands import enumerate_basis
from test_gf2 import span_solve

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# The rank-3 interleaved ladder: x1..x6 on one arc, x_i matched with x_{i+3}.
R3 = ArcDiagram(
    (("x1", "x2", "x3", "x4", "x5", "x6"),),
    {"x1": 1, "x4": 1, "x2": 2, "x5": 2, "x3": 3, "x6": 3},
    "alpha",
)
# The rank-4 ladder: x1..x8 on one arc, x_i matched with x_{i+4}; 1240 elements.
R4 = ArcDiagram(
    (tuple(f"x{i}" for i in range(1, 9)),),
    {f"x{i}": (i - 1) % 4 + 1 for i in range(1, 9)},
    "alpha",
)


def _from_dense(rows, cols, a) -> Gf2Matrix:
    return Gf2Matrix(rows, cols, {(rows[i], cols[j]) for i, j in zip(*np.nonzero(a))})


@st.composite
def matrices(draw, max_side=9):
    nr = draw(st.integers(0, max_side))
    nc = draw(st.integers(0, max_side))
    rows = tuple(draw(st.permutations([f"r{i}" for i in range(nr)])))
    cols = tuple(draw(st.permutations([f"c{j}" for j in range(nc)])))
    bits = draw(st.integers(0, 2 ** (nr * nc) - 1))
    pairs = [(r, c) for r in rows for c in cols]
    return Gf2Matrix(rows, cols, {pair for n, pair in enumerate(pairs) if bits >> n & 1})


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rank_matches_oracle(m):
    assert rank(m) == gf2_oracle.rank(m)


def test_rank_counts_the_pivots_of_the_rref_on_seeded_matrices():
    # The oracle counts the pivots of its RREF.
    rng = random.Random(31)
    for _ in range(300):
        nr, nc = rng.randint(0, 40), rng.randint(0, 40)
        density = rng.choice((0.02, 0.1, 0.3, 0.5))
        rows, cols = range(nr), range(nc)
        m = Gf2Matrix(rows, cols, {(r, c) for r in rows for c in cols if rng.random() < density})
        assert rank(m) == gf2_oracle.rank(m)


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_solve_matches_oracle(m, data):
    # The tags land on the columns that are independent of earlier ones, so
    # the answer is the oracle's: free variables 0 in the RREF.
    b = frozenset(data.draw(st.sets(st.sampled_from(m.rows)))) if m.rows else frozenset()
    assert span_solve(m, b) == gf2_oracle.solve(m, b)


def _bits_matrix(bits: int, n: int) -> np.ndarray:
    return np.array([[bits >> (n * i + j) & 1 for j in range(n)] for i in range(n)], dtype=int)


@st.composite
def complexes(draw, max_blocks=5, max_free=4):
    """P N P^-1 for N a direct sum of 2x2 nilpotent blocks and zeros, P invertible."""
    blocks = draw(st.integers(0, max_blocks))
    n = 2 * blocks + draw(st.integers(0 if blocks else 1, max_free))
    nil = np.zeros((n, n), dtype=int)
    for b in range(blocks):
        nil[2 * b + 1, 2 * b] = 1
    # L U with L, U unitriangular, rows permuted: invertible by construction.
    lower = np.tril(_bits_matrix(draw(st.integers(0, 2 ** (n * n) - 1)), n), -1)
    upper = np.triu(_bits_matrix(draw(st.integers(0, 2 ** (n * n) - 1)), n), 1)
    eye = np.eye(n, dtype=int)
    p = ((lower + eye) @ (upper + eye) % 2)[draw(st.permutations(range(n)))]
    red, piv = gf2_oracle._rref(np.concatenate([p, eye], axis=1))
    assert piv == list(range(n))
    p_inv = red[:, n:].astype(int)
    d = (p @ nil @ p_inv) % 2
    basis = tuple(draw(st.permutations([f"g{i}" for i in range(n)])))
    return ChainComplexGf2(basis, _from_dense(basis, basis, d))


@settings(max_examples=150, deadline=None)
@given(complexes())
def test_homology_matches_oracle_on_random_complexes(c):
    assert homology(c)[:2] == gf2_oracle.homology(c)


def test_homology_matches_oracle_on_gamma_blocks():
    # Every block of each ladder, then its whole-algebra complex, where the
    # column tags are longest (1240 bits at rank 4).
    for z in (Z1, Z2, R3, R4):
        am = enumerate_basis(z)
        subsets = list(am.all_idempotent_subsets())
        for I in subsets:
            for J in subsets:
                c = gamma_block(am, I, J)
                assert homology(c)[:2] == gf2_oracle.homology(c)
        basis = tuple(range(am.dim))
        c = ChainComplexGf2(basis, Gf2Matrix.from_columns(basis, basis, am.diff_table))
        assert homology(c)[:2] == gf2_oracle.homology(c)


def test_homology_matches_oracle_on_rank3_doubles():
    am = enumerate_basis(R3)
    dims = []
    for s in am.all_idempotent_subsets():
        for m in (left_module_from_right_idem(am, s), elementary(am, s, "A")):
            c, _ = diagonal(m)
            expected = gf2_oracle.homology(c)
            assert homology(c)[:2] == expected
            dims.append(expected[0])
    assert len(dims) == 16 and any(dims)


def test_cli_runs_without_numpy(tmp_path):
    path = tmp_path / "Z1.arcd"
    path.write_text(serialize(Z1))
    code = (
        "import io, sys\n"
        "import strandjoin.cli\n"
        f"rc = strandjoin.cli.run(['check', {str(path)!r}, 'all'], io.StringIO())\n"
        "print(rc, 'numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "0 False\n"
