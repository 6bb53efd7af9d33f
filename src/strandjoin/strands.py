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
from dataclasses import dataclass
from functools import lru_cache

from .arc_diagram import ArcDiagram, reverse, flip_type, validate
from .gf2 import Gf2Vector, vsum


@dataclass(frozen=True)
class ABasisElem:
    """A symmetrized basis element: moving strands plus occupied matched pairs."""

    movers: tuple  # sorted tuple of (source point, target point)
    occupied: frozenset  # pair indices carried horizontally

    def __post_init__(self):
        object.__setattr__(self, "movers", tuple(sorted(self.movers)))
        object.__setattr__(self, "occupied", frozenset(self.occupied))

    def __repr__(self):
        ms = ",".join(f"{s}>{t}" for s, t in self.movers)
        os_ = ",".join(str(i) for i in sorted(self.occupied))
        return f"[{ms}|{os_}]"


def _cross_count(z: ArcDiagram, strands: frozenset) -> int:
    """Crossings of a diagram: interleaving pairs of strands on a common arc."""
    pos = {}
    for s, t in strands:
        if s not in pos:
            pos[s] = z.position(s)
        if t not in pos:
            pos[t] = z.position(t)
    n = 0
    ss = sorted(strands, key=lambda st: (pos[st[0]], pos[st[1]]))
    for (s1, t1), (s2, t2) in itertools.combinations(ss, 2):
        a1, p1 = pos[s1]
        a2, p2 = pos[s2]
        if a1 != a2:
            continue
        _, q1 = pos[t1]
        _, q2 = pos[t2]
        if (p1 - p2) * (q1 - q2) < 0:
            n += 1
    return n


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
        self._pair_pts = {i: arc_diagram.pair(i) for i in range(1, self.k + 1)}
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
        self.mult_table: dict[tuple[int, int], frozenset] = {}
        self._build_tables()
        self._opposite: "AlgebraModel | None" = None
        self._preimages: "tuple[dict, dict] | None" = None

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

    # -- diagrams and symmetrization -------------------------------------

    def expand(self, e: ABasisElem) -> list[frozenset]:
        """All diagrams (strand sets, horizontals as (p, p)) of a basis element."""
        out = []
        pair_choices = [self._pair_pts[i] for i in sorted(e.occupied)]
        for combo in itertools.product(*pair_choices):
            strands = frozenset(e.movers) | frozenset((p, p) for p in combo)
            out.append(strands)
        return out

    def _orbit_key(self, diagram: frozenset) -> ABasisElem:
        movers = tuple(sorted((s, t) for s, t in diagram if s != t))
        horiz_pairs = frozenset(self._pair_of[p] for p, q in diagram if p == q)
        return ABasisElem(movers, horiz_pairs)

    def symmetrize(self, diagrams: list[frozenset]) -> Gf2Vector:
        """Collect a GF(2) multiset of diagrams into basis elements."""
        parity: dict[frozenset, int] = {}
        for d in diagrams:
            parity[d] = parity.get(d, 0) ^ 1
        live = [d for d, c in parity.items() if c]
        groups: dict[ABasisElem, set] = {}
        for d in live:
            groups.setdefault(self._orbit_key(d), set()).add(d)
        keys = set()
        for key, ds in groups.items():
            if key not in self.index:
                raise SymmetrizationError(f"orbit key {key} is not a basis element")
            if len(ds) != 2 ** len(key.occupied):
                raise SymmetrizationError(f"incomplete orbit for {key}")
            keys.add(self.index[key])
        return Gf2Vector(frozenset(keys))

    # -- tables -----------------------------------------------------------

    def _diagram_diff(self, diagram: frozenset) -> list[frozenset]:
        base = _cross_count(self.arc_diagram, diagram)
        out = []
        ss = sorted(diagram)
        for (s1, t1), (s2, t2) in itertools.combinations(ss, 2):
            a1, p1 = self._pos[s1]
            a2, p2 = self._pos[s2]
            if a1 != a2:
                continue
            _, q1 = self._pos[t1]
            _, q2 = self._pos[t2]
            if (p1 - p2) * (q1 - q2) >= 0:
                continue
            resolved = (diagram - {(s1, t1), (s2, t2)}) | {(s1, t2), (s2, t1)}
            if len(resolved) != len(diagram):
                continue
            if _cross_count(self.arc_diagram, resolved) == base - 1:
                out.append(resolved)
        return out

    def _diagram_mul(self, d1: frozenset, d2: frozenset) -> frozenset | None:
        tgts = frozenset(t for _, t in d1)
        srcs = frozenset(s for s, _ in d2)
        if tgts != srcs:
            return None
        follow = {s: t for s, t in d2}
        comp = frozenset((s, follow[t]) for s, t in d1)
        if len(comp) != len(d1):
            return None
        c1 = _cross_count(self.arc_diagram, d1)
        c2 = _cross_count(self.arc_diagram, d2)
        if _cross_count(self.arc_diagram, comp) != c1 + c2:
            return None
        return comp

    def _build_tables(self):
        expansions = [self.expand(e) for e in self.elems]
        for i, e in enumerate(self.elems):
            resolved = []
            for d in expansions[i]:
                resolved.extend(self._diagram_diff(d))
            self.diff_table[i] = self.symmetrize(resolved).entries
        for i in range(len(self.elems)):
            for j in range(len(self.elems)):
                if self.right_idem[i] != self.left_idem[j]:
                    self.mult_table[(i, j)] = frozenset()
                    continue
                prods = []
                for d1 in expansions[i]:
                    for d2 in expansions[j]:
                        c = self._diagram_mul(d1, d2)
                        if c is not None:
                            prods.append(c)
                self.mult_table[(i, j)] = self.symmetrize(prods).entries

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
        return vsum(
            self.idempotent(s)
            for r in range(self.k + 1)
            for s in itertools.combinations(range(1, self.k + 1), r)
        )

    def assoc_mult(self, xs) -> Gf2Vector:
        """Left-to-right product of a tuple of vectors; the empty tuple gives the unit."""
        acc = self.unit()
        for x in xs:
            acc = self.mul(acc, x)
        return acc

    def chords(self) -> list[int]:
        """Indices of basis elements with exactly one mover (any occupied set)."""
        return [i for i, e in enumerate(self.elems) if len(e.movers) == 1]

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
                if outs and not self.is_idempotent_elem(a) and not self.is_idempotent_elem(b):
                    for c in outs:
                        mpre.setdefault(c, []).append((a, b))
            self._preimages = (dpre, mpre)
        return self._preimages

    def opposite(self) -> "AlgebraModel":
        """The formal opposite: same basis, reversed multiplication, swapped idempotents."""
        if self._opposite is None:
            op = object.__new__(AlgebraModel)
            op.arc_diagram = self.arc_diagram
            op.k = self.k
            op._pair_pts = self._pair_pts
            op._pos = self._pos
            op._pair_of = self._pair_of
            op.elems = self.elems
            op.index = self.index
            op.left_idem = self.right_idem
            op.right_idem = self.left_idem
            op.diff_table = self.diff_table
            op.mult_table = {(i, j): v for (j, i), v in self.mult_table.items()}
            op._opposite = self
            op._preimages = None
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


def map_vector(bij: dict[int, int], x: Gf2Vector) -> Gf2Vector:
    return Gf2Vector(frozenset(bij[i] for i in x))


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
        if v:
            lines.append(f"{i}\t{j}\t" + ",".join(str(l) for l in sorted(v)))
    return "\n".join(lines) + "\n"


def dump_diff_tsv(am: AlgebraModel) -> str:
    lines = []
    for i, v in sorted(am.diff_table.items()):
        if v:
            lines.append(f"{i}\t" + ",".join(str(l) for l in sorted(v)))
    return "\n".join(lines) + "\n"
