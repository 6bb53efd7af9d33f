"""Exact sparse linear algebra over GF(2).

Vectors are sets of basis keys (presence = coefficient 1), matrices are sets
of (row, col) pairs over declared ordered bases.  All elimination is done
with deterministic pivoting in the declared basis order, so results such as
homology representatives are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Optional, Sequence

import numpy as np

Key = Hashable


@dataclass(frozen=True)
class Gf2Vector:
    """A Z/2 vector: the set of basis keys with coefficient 1."""

    entries: frozenset = frozenset()

    def __post_init__(self):
        if not isinstance(self.entries, frozenset):
            object.__setattr__(self, "entries", frozenset(self.entries))

    def __add__(self, other: "Gf2Vector") -> "Gf2Vector":
        return Gf2Vector(self.entries ^ other.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, key: Key) -> bool:
        return key in self.entries

    @staticmethod
    def of(*keys: Key) -> "Gf2Vector":
        return Gf2Vector(frozenset(keys))

    @staticmethod
    def zero() -> "Gf2Vector":
        return Gf2Vector(frozenset())


def vsum(vectors: Iterable[Gf2Vector]) -> Gf2Vector:
    acc: frozenset = frozenset()
    for v in vectors:
        acc ^= v.entries
    return Gf2Vector(acc)


@dataclass(frozen=True)
class Gf2Matrix:
    """A sparse GF(2) matrix over ordered row/column bases."""

    rows: tuple
    cols: tuple
    nonzero: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "cols", tuple(self.cols))
        object.__setattr__(self, "nonzero", frozenset(self.nonzero))
        rowset, colset = set(self.rows), set(self.cols)
        if len(rowset) != len(self.rows) or len(colset) != len(self.cols):
            raise ValueError("duplicate basis keys")
        for r, c in self.nonzero:
            if r not in rowset or c not in colset:
                raise ValueError(f"entry {(r, c)} outside declared bases")

    def entry(self, row: Key, col: Key) -> int:
        return 1 if (row, col) in self.nonzero else 0

    def column(self, col: Key) -> Gf2Vector:
        return Gf2Vector(frozenset(r for r, c in self.nonzero if c == col))

    def apply(self, v: Gf2Vector) -> Gf2Vector:
        """Matrix-vector product; v lives in the column-key space."""
        acc: frozenset = frozenset()
        for c in v:
            acc ^= frozenset(r for r, cc in self.nonzero if cc == c)
        return Gf2Vector(acc)

    def compose(self, other: "Gf2Matrix") -> "Gf2Matrix":
        """self @ other, requiring self.cols == other.rows."""
        if self.cols != other.rows:
            raise ValueError("composition shape mismatch")
        by_col: dict = {}
        for r, c in other.nonzero:
            by_col.setdefault(c, set()).add(r)
        entries = set()
        for c in other.cols:
            img = Gf2Vector(frozenset())
            for mid in by_col.get(c, ()):
                img += self.column(mid)
            for r in img:
                entries.add((r, c))
        return Gf2Matrix(self.rows, other.cols, frozenset(entries))

    def __add__(self, other: "Gf2Matrix") -> "Gf2Matrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("addition shape mismatch")
        return Gf2Matrix(self.rows, self.cols, self.nonzero ^ other.nonzero)

    def transpose(self) -> "Gf2Matrix":
        return Gf2Matrix(self.cols, self.rows, frozenset((c, r) for r, c in self.nonzero))

    def is_zero(self) -> bool:
        return not self.nonzero

    def to_dense(self) -> np.ndarray:
        ri = {r: i for i, r in enumerate(self.rows)}
        ci = {c: j for j, c in enumerate(self.cols)}
        a = np.zeros((len(self.rows), len(self.cols)), dtype=np.uint8)
        for r, c in self.nonzero:
            a[ri[r], ci[c]] = 1
        return a

    @staticmethod
    def from_dense(rows: Sequence[Key], cols: Sequence[Key], a: np.ndarray) -> "Gf2Matrix":
        nz = frozenset(
            (rows[i], cols[j]) for i, j in zip(*np.nonzero(a))
        )
        return Gf2Matrix(tuple(rows), tuple(cols), nz)

    @staticmethod
    def identity(keys: Sequence[Key]) -> "Gf2Matrix":
        keys = tuple(keys)
        return Gf2Matrix(keys, keys, frozenset((k, k) for k in keys))

    @staticmethod
    def zero(rows: Sequence[Key], cols: Sequence[Key]) -> "Gf2Matrix":
        return Gf2Matrix(tuple(rows), tuple(cols), frozenset())

    @staticmethod
    def from_columns(rows: Sequence[Key], cols: Sequence[Key], images: dict) -> "Gf2Matrix":
        """Build from a map col-key -> Gf2Vector of row keys."""
        nz = set()
        for c in cols:
            for r in images.get(c, Gf2Vector.zero()):
                nz.add((r, c))
        return Gf2Matrix(tuple(rows), tuple(cols), frozenset(nz))


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
    """Exact GF(2) rank."""
    if not m.nonzero:
        return 0
    _, piv = _rref(m.to_dense())
    return len(piv)


def solve(m: Gf2Matrix, b: Gf2Vector) -> Optional[Gf2Vector]:
    """Return some x with m @ x = b, or None if the system is inconsistent.

    Free variables are set to 0; the solution is deterministic in the
    declared column order.
    """
    for k in b:
        if k not in set(m.rows):
            raise ValueError(f"rhs key {k!r} not in row space")
    a = m.to_dense()
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
    return Gf2Vector(frozenset(m.cols[j] for j in np.nonzero(x)[0]))


class ChainComplexError(ValueError):
    pass


@dataclass(frozen=True)
class ChainComplexGf2:
    """An ungraded Z/2 chain complex: ordered basis plus an endomorphism d with d^2 = 0."""

    basis: tuple
    differential: Gf2Matrix = None  # type: ignore[assignment]

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(self.basis))
        d = self.differential
        if d is None:
            d = Gf2Matrix.zero(self.basis, self.basis)
            object.__setattr__(self, "differential", d)
        if d.rows != self.basis or d.cols != self.basis:
            raise ChainComplexError("differential not an endomorphism of the declared basis")

    def check_d_squared(self) -> None:
        if not self.differential.compose(self.differential).is_zero():
            raise ChainComplexError("d^2 != 0")

    @property
    def dim(self) -> int:
        return len(self.basis)


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


def homology(c: ChainComplexGf2) -> tuple[int, list[Gf2Vector]]:
    """Homology of an ungraded Z/2 complex: (dimension, cycle representatives).

    dimension = dim ker d - rank d.  Representatives are kernel vectors that
    extend a basis of the image, chosen greedily in deterministic order.
    """
    c.check_d_squared()
    n = c.dim
    if n == 0:
        return 0, []
    d = c.differential.to_dense()
    kers = _kernel_basis(d)
    r = len(_rref(d)[1])
    # Echelon structure seeded with the image columns.
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
            reps.append(Gf2Vector(frozenset(c.basis[i] for i in np.nonzero(v)[0])))
    dim_h = len(kers) - r
    if len(reps) != dim_h:
        raise RuntimeError(
            f"found {len(reps)} homology representatives for dimension {dim_h}"
        )
    return dim_h, reps


class NotAChainMapError(ValueError):
    pass


def induced_map_on_homology(
    f: Gf2Matrix, src: ChainComplexGf2, dst: ChainComplexGf2
) -> Gf2Matrix:
    """Matrix of the induced map on homology, in the chosen representative bases.

    Raises NotAChainMapError unless f . d_src = d_dst . f.
    """
    if f.cols != src.basis or f.rows != dst.basis:
        raise ValueError("map shape does not match complexes")
    if f.compose(src.differential).nonzero != dst.differential.compose(f).nonzero:
        raise NotAChainMapError("not a chain map")
    _, src_reps = homology(src)
    hdim_dst, dst_reps = homology(dst)
    # Express [f(rep)] in dst homology: solve against [dst reps | image of d_dst].
    cols: list = [("h", i) for i in range(hdim_dst)]
    images = {("h", i): v for i, v in enumerate(dst_reps)}
    for j, bkey in enumerate(dst.basis):
        col = dst.differential.column(bkey)
        if col:
            cols.append(("b", j))
            images[("b", j)] = col
    system = Gf2Matrix.from_columns(dst.basis, cols, images)
    nz = set()
    for i, rep in enumerate(src_reps):
        x = solve(system, f.apply(rep))
        if x is None:
            raise NotAChainMapError("image of a cycle is not a cycle")
        for key in x:
            if key[0] == "h":
                nz.add((("h", key[1]), ("h", i)))
    hrows = tuple(("h", i) for i in range(hdim_dst))
    hcols = tuple(("h", i) for i in range(len(src_reps)))
    return Gf2Matrix(hrows, hcols, frozenset(nz))
