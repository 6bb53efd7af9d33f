"""Gf2Matrix.compose against the dense product over GF(2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gf2_oracle import to_dense
from strandjoin.gf2 import Gf2Matrix


def _matrix(rows, cols, bits):
    return Gf2Matrix(
        rows,
        cols,
        {(r, c) for n, (r, c) in enumerate((r, c) for r in rows for c in cols) if bits >> n & 1},
    )


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.data())
def test_compose_is_the_dense_product(nr, nm, nc, data):
    rows = tuple(f"r{i}" for i in range(nr))
    mids = tuple(f"m{i}" for i in range(nm))
    cols = tuple(f"c{i}" for i in range(nc))
    a = _matrix(rows, mids, data.draw(st.integers(0, 2 ** (nr * nm) - 1)))
    b = _matrix(mids, cols, data.draw(st.integers(0, 2 ** (nm * nc) - 1)))
    product = a.compose(b)
    assert product.rows == rows and product.cols == cols
    expected = (to_dense(a).astype(int) @ to_dense(b).astype(int)) % 2
    assert np.array_equal(to_dense(product), expected)


def test_compose_rejects_mismatched_bases():
    a = Gf2Matrix.identity(("x", "y"))
    with pytest.raises(ValueError):
        a.compose(Gf2Matrix.identity(("y", "x")))
