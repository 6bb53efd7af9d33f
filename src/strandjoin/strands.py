"""The strands algebra of an arc diagram and its symmetrized bordered subalgebra.

Internally an element of the big strands algebra is a diagram: a set of
moving strands (s, t) plus a set of horizontal strands, all within single
arcs, embedded (distinct sources, distinct targets), with moving strands
upward-veering for alpha diagrams and downward for beta.  Basis elements of
the bordered algebra are symmetrized: movers plus a set of occupied matched
pairs, each standing for the sum over one-point-per-pair horizontal
completions.  Products and differentials are computed on expansions and
re-symmetrized; a failure to re-symmetrize indicates a bug and raises.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .arc_diagram import ArcDiagram, reverse, flip_type, validate
from .gf2 import ChainComplexGf2, Frozen, Gf2Matrix, Gf2Vector, homology, vsum


class ABasisElem(Frozen):
    """A symmetrized basis element: moving strands plus occupied matched pairs."""

    # movers: sorted tuple of (source point, target point);
    # occupied: frozenset of the pair indices carried horizontally.
    __slots__ = _fields = ("movers", "occupied")

    def __init__(self, movers, occupied):
        self._init(tuple(sorted(movers)), frozenset(occupied))

    def __repr__(self):
        ms = ",".join(f"{s}>{t}" for s, t in self.movers)
        os_ = ",".join(str(i) for i in sorted(self.occupied))
        return f"[{ms}|{os_}]"


class _Coding:
    """Diagrams of one arc diagram on integer-coded points, and the orbit index.

    Points are numbered in name order, so sorting coded strands sorts them as
    the named ones.  A diagram is the tuple of its strands (s, t) sorted by
    source, horizontals as (p, p); a basis element is found from its orbit key
    (movers, set of horizontal pairs).
    """

    def __init__(self, z: ArcDiagram, elems: list):
        names = sorted(z.points)
        self.names = names
        self.code = {p: n for n, p in enumerate(names)}
        positions = [z.position(p) for p in names]
        self.arc = [a for a, _ in positions]
        self.at = [x for _, x in positions]
        self.pair = [z.pair_of(p) for p in names]
        self.pair_pts = {
            i: tuple(self.code[p] for p in z.pair(i)) for i in range(1, z.rank + 1)
        }
        self.key_index = {
            (self._movers(e), e.occupied): i for i, e in enumerate(elems)
        }
        self.orbit_keys: dict = {}  # diagram -> orbit key, filled as met

    def _movers(self, e: ABasisElem) -> tuple:
        code = self.code
        return tuple((code[s], code[t]) for s, t in e.movers)

    def expand(self, e: ABasisElem) -> list[tuple]:
        """All diagrams of a basis element: its movers plus one point per occupied pair."""
        movers = list(self._movers(e))
        pair_choices = [self.pair_pts[i] for i in sorted(e.occupied)]
        return [
            tuple(sorted(movers + [(p, p) for p in combo]))
            for combo in itertools.product(*pair_choices)
        ]

    @staticmethod
    def point_mask(points) -> int:
        m = 0
        for p in points:
            m |= 1 << p
        return m

    def _crossings(self, d: tuple):
        """Index pairs (a, b), a < b, of the strands of d that cross."""
        arc, at = self.arc, self.at
        for a, b in itertools.combinations(range(len(d)), 2):
            (s1, t1), (s2, t2) = d[a], d[b]
            if arc[s1] == arc[s2] and (at[s1] - at[s2]) * (at[t1] - at[t2]) < 0:
                yield a, b

    def crossing_mask(self, d: tuple, end: int) -> int:
        """The crossing pairs of d as bits, each strand named by its point at `end`.

        Two strands of a composite cross iff they cross in exactly one factor
        (the sign of their order flips once per crossing), so a composite keeps
        all c1 + c2 crossings iff the masks of d1 by targets (end 1) and of d2
        by sources (end 0) share no bit.
        """
        n = len(self.names)
        m = 0
        for a, b in self._crossings(d):
            x, y = d[a][end], d[b][end]
            m |= 1 << (x * n + y if x < y else y * n + x)
        return m

    def resolutions(self, d: tuple) -> list[tuple]:
        """Resolve one crossing at a time, keeping those that lose exactly one."""
        base = sum(1 for _ in self._crossings(d))
        out = []
        for a, b in self._crossings(d):
            (s1, t1), (s2, t2) = d[a], d[b]
            r = list(d)
            r[a], r[b] = (s1, t2), (s2, t1)
            r = tuple(r)
            if sum(1 for _ in self._crossings(r)) == base - 1:
                out.append(r)
        return out

    def symmetrize(self, diagrams: list) -> frozenset:
        """Collect a GF(2) multiset of diagrams into basis indices."""
        parity: dict = {}
        for d in diagrams:
            parity[d] = parity.get(d, 0) ^ 1
        orbit_keys = self.orbit_keys
        counts: dict = {}
        for d, odd in parity.items():
            if odd:
                key = orbit_keys.get(d) or self._orbit_key(d)
                counts[key] = counts.get(key, 0) + 1
        keys = set()
        for key, n in counts.items():
            i = self.key_index.get(key)
            if i is None:
                raise SymmetrizationError(f"orbit key {self._name(key)} is not a basis element")
            if n != 1 << len(key[1]):
                raise SymmetrizationError(f"incomplete orbit for {self._name(key)}")
            keys.add(i)
        return frozenset(keys)

    def _orbit_key(self, d: tuple) -> tuple:
        """The orbit key of a diagram not met before, recorded in `orbit_keys`."""
        pair = self.pair
        key = (
            tuple([st for st in d if st[0] != st[1]]),
            frozenset([pair[s] for s, t in d if s == t]),
        )
        self.orbit_keys[d] = key
        return key

    def _name(self, key) -> ABasisElem:
        names = self.names
        return ABasisElem(tuple((names[s], names[t]) for s, t in key[0]), key[1])


class ProductTable(dict):
    """Basis products (i, j) -> product indices, holding only the nonzero ones.

    An absent pair reads as the zero product, so `table[(i, j)]` never fails;
    `.get`, `in` and iteration see only the stored, nonzero entries.
    """

    def __missing__(self, key):
        return frozenset()


class SymmetrizationError(RuntimeError):
    """A Z/2 sum of diagrams is not a sum of complete symmetrization orbits."""


class AlgebraModel:
    """The finite Z/2 model of the bordered algebra of an arc diagram."""

    def __init__(self, arc_diagram: ArcDiagram):
        problems = validate(arc_diagram)
        if problems:
            raise ValueError(f"invalid arc diagram: {problems}")
        self.arc_diagram = arc_diagram
        self.k = arc_diagram.rank
        self._pos = {p: arc_diagram.position(p) for p in arc_diagram.points}
        self._pair_of = arc_diagram.match
        self.elems: list[ABasisElem] = self._enumerate_elems()
        self.index = {e: i for i, e in enumerate(self.elems)}
        self.left_idem: list[frozenset] = []
        self.right_idem: list[frozenset] = []
        for e in self.elems:
            src_pairs = frozenset(self._pair_of[s] for s, _ in e.movers)
            tgt_pairs = frozenset(self._pair_of[t] for _, t in e.movers)
            self.left_idem.append(src_pairs | e.occupied)
            self.right_idem.append(tgt_pairs | e.occupied)
        self.diff_table: dict[int, frozenset] = {}
        self.mult_table = ProductTable()
        self._build_tables()
        self._opposite: "AlgebraModel | None" = None
        self._preimages: "tuple[dict, dict] | None" = None
        self._blocks: "dict | None" = None

    # -- enumeration -----------------------------------------------------

    def _upward(self, s, t) -> bool:
        (a1, p1), (a2, p2) = self._pos[s], self._pos[t]
        if a1 != a2:
            return False
        return p1 < p2 if self.arc_diagram.kind == "alpha" else p1 > p2

    def _enumerate_elems(self) -> list[ABasisElem]:
        pts = self.arc_diagram.points
        all_movers = [
            (s, t) for s in pts for t in pts if s != t and self._upward(s, t)
        ]
        pair_of = self._pair_of
        elems = []

        def extend(chosen: list, rest: list):
            touched_src = {pair_of[s] for s, _ in chosen}
            touched_tgt = {pair_of[t] for _, t in chosen}
            free = [
                i
                for i in range(1, self.k + 1)
                if i not in touched_src and i not in touched_tgt
            ]
            for r in range(len(free) + 1):
                for occ in itertools.combinations(free, r):
                    elems.append(ABasisElem(tuple(chosen), frozenset(occ)))
            for idx, (s, t) in enumerate(rest):
                if pair_of[s] in touched_src or pair_of[t] in touched_tgt:
                    continue
                extend(chosen + [(s, t)], rest[idx + 1 :])

        extend([], all_movers)

        def sort_key(e: ABasisElem):
            return (
                sorted(e.occupied),
                [(self._pos[s], self._pos[t]) for s, t in e.movers],
            )

        uniq = sorted(set(elems), key=sort_key)
        return uniq

    # -- tables -----------------------------------------------------------

    def _build_tables(self):
        coding = _Coding(self.arc_diagram, self.elems)
        expansions = [coding.expand(e) for e in self.elems]
        for i, exp in enumerate(expansions):
            resolved = []
            for d in exp:
                resolved.extend(coding.resolutions(d))
            self.diff_table[i] = coding.symmetrize(resolved)
        # Two diagrams compose only when the targets of the first are the
        # sources of the second (which also matches the idempotents), so every
        # diagram is indexed by its source set.  The product is kept when no
        # crossing is lost, that is when no pair of strands crosses in both
        # factors: the pair masks of d1 (by targets) and d2 (by sources) are
        # disjoint.
        by_sources: dict = {}  # source mask -> [(j, strand map, crossing mask)]
        for j, exp in enumerate(expansions):
            for d in exp:
                follow = dict(d)
                entry = (j, follow, coding.crossing_mask(d, 0))
                by_sources.setdefault(coding.point_mask(follow), []).append(entry)
        for i, exp in enumerate(expansions):
            prods: dict = {}  # j -> composite diagrams, in the order found
            for d1 in exp:
                mask1 = coding.crossing_mask(d1, 1)
                tgts = coding.point_mask(t for _, t in d1)
                for j, follow, mask2 in by_sources.get(tgts, ()):
                    if not mask1 & mask2:
                        comp = tuple([(s, follow[t]) for s, t in d1])
                        prods.setdefault(j, []).append(comp)
            for j in sorted(prods):
                v = coding.symmetrize(prods[j])
                if v:
                    self.mult_table[(i, j)] = v

    # -- public operations -------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.elems)

    def zero(self) -> Gf2Vector:
        return Gf2Vector.zero()

    def basis_vector(self, e: ABasisElem) -> Gf2Vector:
        return Gf2Vector.of(self.index[e])

    def mul(self, x: Gf2Vector, y: Gf2Vector) -> Gf2Vector:
        return vsum(
            Gf2Vector(self.mult_table[(i, j)]) for i in x for j in y
        )

    def diff(self, x: Gf2Vector) -> Gf2Vector:
        return vsum(Gf2Vector(self.diff_table[i]) for i in x)

    def idempotent(self, subset) -> Gf2Vector:
        e = ABasisElem((), frozenset(subset))
        return self.basis_vector(e)

    def idempotent_index(self, subset) -> int:
        return self.index[ABasisElem((), frozenset(subset))]

    def unit(self) -> Gf2Vector:
        return vsum(self.idempotent(s) for s in self.all_idempotent_subsets())

    def all_idempotent_subsets(self):
        for r in range(self.k + 1):
            yield from (
                frozenset(s) for s in itertools.combinations(range(1, self.k + 1), r)
            )

    def is_idempotent_elem(self, i: int) -> bool:
        return not self.elems[i].movers

    def preimages(self) -> "tuple[dict, dict]":
        """The inverse diff and product index, built on first use.

        Maps c to the non-idempotent a with c in d(a), and to the pairs (a, b)
        of non-idempotents with c in a.b.
        """
        if self._preimages is None:
            dpre: dict = {}
            mpre: dict = {}
            for a, outs in self.diff_table.items():
                for c in outs:
                    dpre.setdefault(c, []).append(a)
            for (a, b), outs in self.mult_table.items():
                if not self.is_idempotent_elem(a) and not self.is_idempotent_elem(b):
                    for c in outs:
                        mpre.setdefault(c, []).append((a, b))
            self._preimages = (dpre, mpre)
        return self._preimages

    def idem_blocks(self) -> dict:
        """The basis by idempotents, built on first use: (left, right) -> ascending indices."""
        if self._blocks is None:
            blocks: dict = {}
            for g in range(self.dim):
                blocks.setdefault((self.left_idem[g], self.right_idem[g]), []).append(g)
            self._blocks = {key: tuple(gs) for key, gs in blocks.items()}
        return self._blocks

    def opposite(self) -> "AlgebraModel":
        """The formal opposite: same basis, reversed multiplication, swapped idempotents."""
        if self._opposite is None:
            op = object.__new__(AlgebraModel)
            op.arc_diagram = self.arc_diagram
            op.k = self.k
            op._pos = self._pos
            op._pair_of = self._pair_of
            op.elems = self.elems
            op.index = self.index
            op.left_idem = self.right_idem
            op.right_idem = self.left_idem
            op.diff_table = self.diff_table
            op.mult_table = ProductTable(
                ((i, j), v) for (j, i), v in self.mult_table.items()
            )
            op._opposite = self
            op._preimages = None
            op._blocks = None
            self._opposite = op
        return self._opposite


@lru_cache(maxsize=None)
def enumerate_basis(z: ArcDiagram) -> AlgebraModel:
    """Build (and cache) the algebra model of a valid arc diagram."""
    return AlgebraModel(z)


def _mover_bijection(src: AlgebraModel, dst: AlgebraModel) -> dict[int, int]:
    out = {}
    for i, e in enumerate(src.elems):
        image = ABasisElem(tuple((t, s) for s, t in e.movers), e.occupied)
        out[i] = dst.index[image]
    return out


def rotate180(am: AlgebraModel) -> tuple[AlgebraModel, dict[int, int]]:
    """The 180-degree rotation onto the algebra of the reversed diagram.

    The bijection r satisfies r(xy) = r(y) r(x) and commutes with the
    differential, realizing the opposite-algebra isomorphism.
    """
    target = enumerate_basis(reverse(am.arc_diagram))
    return target, _mover_bijection(am, target)


def reflect(am: AlgebraModel) -> tuple[AlgebraModel, dict[int, int]]:
    """Reflection along the vertical axis onto the algebra of the type-switched diagram."""
    target = enumerate_basis(flip_type(am.arc_diagram))
    return target, _mover_bijection(am, target)


def gamma_block(am: AlgebraModel, I, J) -> ChainComplexGf2:
    """The summand iota_I . A . iota_J as a chain complex."""
    basis = am.idem_blocks().get((frozenset(I), frozenset(J)), ())
    images = {g: Gf2Vector(am.diff_table[g]) for g in basis}
    d = Gf2Matrix.from_columns(basis, basis, images)
    return ChainComplexGf2(basis, d)


def homology_blocks(am: AlgebraModel) -> dict:
    """(I, J) -> homology dimension of the corresponding block."""
    out = {}
    for I in am.all_idempotent_subsets():
        for J in am.all_idempotent_subsets():
            dim, _ = homology(gamma_block(am, I, J))
            out[(I, J)] = dim
    return out


def dump_basis_tsv(am: AlgebraModel) -> str:
    lines = []
    for i, e in enumerate(am.elems):
        movers = ",".join(f"{s}>{t}" for s, t in e.movers)
        occ = ",".join(str(j) for j in sorted(e.occupied))
        li = ",".join(str(j) for j in sorted(am.left_idem[i]))
        ri = ",".join(str(j) for j in sorted(am.right_idem[i]))
        lines.append(f"{i}\t{occ}\t{movers}\t{li}\t{ri}")
    return "\n".join(lines) + "\n"


def dump_mult_tsv(am: AlgebraModel) -> str:
    lines = []
    for (i, j), v in sorted(am.mult_table.items()):
        lines.append(f"{i}\t{j}\t" + ",".join(str(l) for l in sorted(v)))
    return "\n".join(lines) + "\n"


def dump_diff_tsv(am: AlgebraModel) -> str:
    lines = []
    for i, v in sorted(am.diff_table.items()):
        if v:
            lines.append(f"{i}\t" + ",".join(str(l) for l in sorted(v)))
    return "\n".join(lines) + "\n"
