"""Dense numpy reference for the GF(2) kernel of `strandjoin.gf2`.

This is the elimination the library used before it packed rows into Python
ints: a `uint8` matrix reduced column by column with first-available
pivoting, a second reduction for the rank in `homology`, and a greedy
image-then-kernel pass over dense vectors.  The differential tests in
`test_gf2_oracle.py` compare the library with it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from strandjoin.gf2 import ChainComplexGf2, Gf2Matrix


def to_dense(m: Gf2Matrix) -> np.ndarray:
    ri = {r: i for i, r in enumerate(m.rows)}
    ci = {c: j for j, c in enumerate(m.cols)}
    a = np.zeros((len(m.rows), len(m.cols)), dtype=np.uint8)
    for r, c in m.nonzero:
        a[ri[r], ci[c]] = 1
    return a


def _rref(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Row-reduce over GF(2) with first-available pivoting; returns (rref, pivot cols)."""
    a = (a & 1).astype(np.uint8).copy()
    m, n = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        hits = np.nonzero(a[r:, c])[0]
        if hits.size == 0:
            continue
        p = r + int(hits[0])
        if p != r:
            a[[r, p]] = a[[p, r]]
        others = np.nonzero(a[:, c])[0]
        for rr in others:
            if rr != r:
                a[rr] ^= a[r]
        pivots.append(c)
        r += 1
    return a, pivots


def rank(m: Gf2Matrix) -> int:
    if not m.nonzero:
        return 0
    _, piv = _rref(to_dense(m))
    return len(piv)


def solve(m: Gf2Matrix, b: frozenset) -> Optional[frozenset]:
    for k in b:
        if k not in set(m.rows):
            raise ValueError(f"rhs key {k!r} not in row space")
    a = to_dense(m)
    ri = {r: i for i, r in enumerate(m.rows)}
    rhs = np.zeros((len(m.rows), 1), dtype=np.uint8)
    for k in b:
        rhs[ri[k], 0] = 1
    aug = np.concatenate([a, rhs], axis=1)
    red, piv = _rref(aug)
    n = len(m.cols)
    if n in piv:
        return None
    x = np.zeros(n, dtype=np.uint8)
    for i, c in enumerate(piv):
        x[c] = red[i, n]
    return frozenset(m.cols[j] for j in np.nonzero(x)[0])


def _kernel_basis(a: np.ndarray) -> list[np.ndarray]:
    """Deterministic kernel basis (one vector per free column, in column order)."""
    m, n = a.shape
    red, piv = _rref(a)
    pivset = set(piv)
    out = []
    for c in range(n):
        if c in pivset:
            continue
        v = np.zeros(n, dtype=np.uint8)
        v[c] = 1
        for i, pc in enumerate(piv):
            if red[i, c]:
                v[pc] = 1
        out.append(v)
    return out


def homology(c: ChainComplexGf2) -> tuple[int, list[frozenset]]:
    c.check_d_squared()
    n = c.dim
    if n == 0:
        return 0, []
    d = to_dense(c.differential)
    kers = _kernel_basis(d)
    r = len(_rref(d)[1])
    pool: list[np.ndarray] = []
    pivot_of: list[int] = []

    def reduce_and_add(v: np.ndarray) -> bool:
        v = v.copy()
        for w, p in zip(pool, pivot_of):
            if v[p]:
                v ^= w
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return False
        pool.append(v)
        pivot_of.append(int(nz[0]))
        return True

    for j in range(n):
        reduce_and_add(d[:, j])
    reps = []
    for v in kers:
        if reduce_and_add(v):
            reps.append(frozenset(c.basis[i] for i in np.nonzero(v)[0]))
    dim_h = len(kers) - r
    if len(reps) != dim_h:
        raise RuntimeError(
            f"found {len(reps)} homology representatives for dimension {dim_h}"
        )
    return dim_h, reps
