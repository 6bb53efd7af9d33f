"""Exact sparse linear algebra over GF(2).

A vector is a frozenset of basis keys (presence = coefficient 1), added with
`^`; a matrix is a set of (row, col) pairs over declared ordered bases.
Elimination packs each row into a Python int whose bit j is the entry in
column j, adds rows with one `^`, and pivots on the lowest set bit, i.e. in
the declared column order, so results such as homology representatives are
reproducible across runs.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from functools import cached_property

Key = Hashable


class Frozen:
    """Base of the immutable value types, behaving as frozen dataclasses do.

    The value types are matrices, chain complexes, arc diagrams and basis
    elements; a vector needs none, being a plain frozenset of basis keys.

    A subclass names its fields in `_fields` (also its `__slots__`) and sets
    them once, in `__init__`, through `_init`; `__init__` takes the fields in
    that order.  Equality and hash compare the tuple of field values, the
    repr is `Name(field=value, ...)`, and assigning or deleting an attribute
    afterwards raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple = ()

    def _init(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def vsum(vectors: Iterable[frozenset]) -> frozenset:
    """The GF(2) sum of the vectors."""
    acc: frozenset = frozenset()
    for v in vectors:
        acc ^= v
    return acc


class Gf2Matrix(Frozen):
    """A sparse GF(2) matrix over ordered row/column bases."""

    _fields = ("rows", "cols", "nonzero")
    __slots__ = _fields + ("__dict__",)  # __dict__ holds the cached _by_col

    def __init__(self, rows: Sequence, cols: Sequence, nonzero: Iterable = frozenset()):
        self._init(tuple(rows), tuple(cols), frozenset(nonzero))
        rowset, colset = set(self.rows), set(self.cols)
        if len(rowset) != len(self.rows) or len(colset) != len(self.cols):
            raise ValueError("duplicate basis keys")
        for r, c in self.nonzero:
            if r not in rowset or c not in colset:
                raise ValueError(f"entry {(r, c)} outside declared bases")

    @cached_property
    def _by_col(self) -> dict:
        """col key -> frozenset of the row keys of its nonzeros (absent if none)."""
        by_col: dict = {}
        for r, c in self.nonzero:
            by_col.setdefault(c, set()).add(r)
        return {c: frozenset(rs) for c, rs in by_col.items()}

    def column(self, col: Key) -> frozenset:
        return self._by_col.get(col, frozenset())

    def apply(self, v: frozenset) -> frozenset:
        """Matrix-vector product; v lives in the column-key space."""
        acc: frozenset = frozenset()
        for c in v:
            acc ^= self._by_col.get(c, frozenset())
        return acc

    def compose(self, other: "Gf2Matrix") -> "Gf2Matrix":
        """self @ other, requiring self.cols == other.rows."""
        if self.cols != other.rows:
            raise ValueError("composition shape mismatch")
        self_cols, by_col = self._by_col, other._by_col
        entries = set()
        for c in other.cols:
            img: set = set()
            for mid in by_col.get(c, ()):
                img.symmetric_difference_update(self_cols.get(mid, ()))
            for r in img:
                entries.add((r, c))
        return Gf2Matrix(self.rows, other.cols, frozenset(entries))

    def transpose(self) -> "Gf2Matrix":
        return Gf2Matrix(self.cols, self.rows, frozenset((c, r) for r, c in self.nonzero))

    def is_zero(self) -> bool:
        return not self.nonzero

    @staticmethod
    def identity(keys: Sequence[Key]) -> "Gf2Matrix":
        keys = tuple(keys)
        return Gf2Matrix(keys, keys, frozenset((k, k) for k in keys))

    @staticmethod
    def zero(rows: Sequence[Key], cols: Sequence[Key]) -> "Gf2Matrix":
        return Gf2Matrix(tuple(rows), tuple(cols), frozenset())

    @staticmethod
    def from_columns(rows: Sequence[Key], cols: Sequence[Key], images: dict) -> "Gf2Matrix":
        """Build from a map col-key -> the set of row keys of its nonzeros."""
        nz = set()
        for c in cols:
            for r in images.get(c, ()):
                nz.add((r, c))
        return Gf2Matrix(tuple(rows), tuple(cols), frozenset(nz))


def _packed_rows(m: Gf2Matrix) -> dict:
    """row key -> the row as an int whose bit j is the entry in column j."""
    col_index = {c: j for j, c in enumerate(m.cols)}
    rows = dict.fromkeys(m.rows, 0)
    for r, c in m.nonzero:
        rows[r] |= 1 << col_index[c]
    return rows


def _bit_indices(v: int) -> list[int]:
    """The set bits of v, in increasing order."""
    digits = bin(v)[:1:-1]
    out = []
    j = digits.find("1")
    while j >= 0:
        out.append(j)
        j = digits.find("1", j + 1)
    return out


def _insert(pivots: dict, v: int, tags: int) -> int | None:
    """Reduce v by the rows in `pivots`, stored as (bits, tags) and keyed by
    their lowest set bit, each step adding the row's tags to `tags`.  Stores
    what is left of v as a row and returns None if it is nonzero; otherwise
    returns the tags v was reduced to 0 with.  The tags ride along in a
    second int, so a row is no longer than its own highest bit and tag."""
    while v:
        p = (v & -v).bit_length() - 1
        row = pivots.get(p)
        if row is None:
            pivots[p] = (v, tags)
            return None
        v ^= row[0]
        tags ^= row[1]
    return tags


def tagged_span(supports: Iterable[Sequence[int]]) -> dict:
    """Pivots for `span_coordinates`: the vectors with these sets of bits
    eliminated once, the i-th tagged with bit i of the tags."""
    pivots: dict = {}
    for i, s in enumerate(supports):
        _insert(pivots, sum(1 << j for j in s), 1 << i)
    return pivots


def span_coordinates(pivots: dict, v: int) -> list[int] | None:
    """The tags of the pivots' rows that sum to v, or None if v is outside
    their span."""
    tags = 0
    while v:
        row = pivots.get((v & -v).bit_length() - 1)
        if row is None:
            return None
        v ^= row[0]
        tags ^= row[1]
    return _bit_indices(tags)


def rank(m: Gf2Matrix) -> int:
    """Exact GF(2) rank: the number of pivots of m's rows."""
    pivots: dict = {}
    return sum(_insert(pivots, v, 0) is None for v in _packed_rows(m).values())


class StructureError(ValueError):
    """An object that fails its own equation, such as a module's structure
    equation, or structures that cannot meet: a failed check, not bad input."""


class ChainComplexError(StructureError):
    """A complex that fails d^2 = 0, its structure equation, or whose
    differential does not act on its basis."""


class ChainComplexGf2(Frozen):
    """An ungraded Z/2 chain complex: ordered basis plus an endomorphism d with d^2 = 0."""

    __slots__ = _fields = ("basis", "differential")

    def __init__(self, basis: Sequence, differential: Gf2Matrix | None = None):
        basis = tuple(basis)
        d = Gf2Matrix.zero(basis, basis) if differential is None else differential
        self._init(basis, d)
        if d.rows != self.basis or d.cols != self.basis:
            raise ChainComplexError("differential not an endomorphism of the declared basis")

    def check_d_squared(self) -> None:
        if not self.differential.compose(self.differential).is_zero():
            raise ChainComplexError("d^2 != 0")

    @property
    def dim(self) -> int:
        return len(self.basis)


def homology(c: ChainComplexGf2) -> tuple:
    """Homology of an ungraded Z/2 complex: (dimension, cycle representatives,
    coordinate map), read off one reduction of d's columns.

    Column j is reduced in basis order, tagged with bit j.  A column that
    reduces to 0 gives its tags as a kernel vector: e_j plus the unique sum
    of earlier independent columns equal to column j, the kernel vector that
    free column j has in the RREF of d.  The columns that are kept span the
    image.  The kernel vectors are then inserted over the image in order;
    those that are added are the representatives, each tagged with its
    index, so a cycle z reduces to the indices i with [z] = sum of
    [reps[i]].  The coordinate map raises ValueError on a vector that is
    not a cycle or that has keys outside c's basis.
    """
    c.check_d_squared()
    pivots: dict = {}
    kers = []
    for j, col in enumerate(_packed_rows(c.differential.transpose()).values()):
        tags = _insert(pivots, col, 1 << j)
        if tags is not None:
            kers.append(tags)
    dim_h = len(kers) - len(pivots)
    pivots = {p: (v, 0) for p, (v, _) in pivots.items()}  # boundaries: coordinates 0
    reps = []
    for v in kers:
        if _insert(pivots, v, 1 << len(reps)) is None:
            reps.append(frozenset(c.basis[i] for i in _bit_indices(v)))
    if len(reps) != dim_h:
        raise RuntimeError(
            f"found {len(reps)} homology representatives for dimension {dim_h}"
        )
    index = {b: j for j, b in enumerate(c.basis)}

    def coordinates(z: frozenset) -> list[int]:
        if any(k not in index for k in z):
            raise ValueError("vector has keys outside the complex's basis")
        tags = span_coordinates(pivots, sum(1 << index[k] for k in z))
        if tags is None:
            raise ValueError("vector is not a cycle")
        return tags

    return dim_h, reps, coordinates
