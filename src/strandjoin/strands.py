"""The strands algebra of an arc diagram and its symmetrized bordered subalgebra.

Internally an element of the big strands algebra is a diagram: a set of
moving strands (s, t) plus a set of horizontal strands, all within single
arcs, embedded (distinct sources, distinct targets), with moving strands
upward-veering for alpha diagrams and downward for beta.  Basis elements of
the bordered algebra are symmetrized: movers plus a set of occupied matched
pairs, each standing for the sum over one-point-per-pair horizontal
completions.  Products and differentials are computed on the diagrams of
basis elements and collected back into basis elements, each table on its
first read; a sum that does not collect indicates a bug and raises.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from operator import itemgetter, lshift

from .arc_diagram import ArcDiagram, InputError, reverse, flip_type, validate
from .gf2 import ChainComplexGf2, Frozen, Gf2Matrix, rank, vsum


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
    """The points of one arc diagram as ints, the basis on them, and its diagrams by code.

    Points are numbered in name order, so sorting coded strands sorts them as
    the named ones; `place` ranks them by position, so the places of one
    arc's points are consecutive.  A diagram is the tuple of its strands
    (s, t) sorted by source, horizontals as (p, p).  Its code is the int sum
    of (t + 1) << (w * s) over its strands, where w is n.bit_length() for n
    points: field s holds the target of the strand leaving s, plus one, or 0
    when none leaves s.

    The basis is enumerated on the coded points, ordered by occupied pairs,
    then by the places of the movers, and named once into `elems`, with its
    idempotents in `left_idem` and `right_idem`: one shared set per subset
    of the pairs.  `diagrams[i]` lists the diagrams of element i, its movers
    plus one point per occupied pair, and `by_code` maps the code of each to
    (i, number of horizontals), which is all collecting looks up.
    """

    def __init__(self, z: ArcDiagram):
        self.names = names = sorted(z.points)
        n = len(names)
        self.width = n.bit_length()
        rank_of = {p: r for r, p in enumerate(z.points)}
        self.place = place = [rank_of[p] for p in names]
        self.arc = arc = [z.position(p)[0] for p in names]
        match = z.match
        self.pair = pair = [match[p] for p in names]
        pairs = range(1, z.rank + 1)
        horizontals = {i: tuple((p, p) for p in range(n) if pair[p] == i) for i in pairs}
        ahead = 1 if z.kind == "alpha" else -1
        movers = [
            (s, t)
            for s in range(n)
            for t in range(n)
            if arc[s] == arc[t] and (place[t] - place[s]) * ahead > 0
        ]
        found = []  # ((occupied, places of the movers), movers, source pairs, target pairs)

        def extend(chosen: tuple, src: int, tgt: int, start: int):
            touched = src | tgt
            free = [i for i in pairs if not touched >> i & 1]
            where = tuple((place[s], place[t]) for s, t in chosen)
            for r in range(len(free) + 1):
                for occ in itertools.combinations(free, r):
                    found.append(((occ, where), chosen, src, tgt))
            for idx in range(start, len(movers)):
                s, t = movers[idx]
                if src >> pair[s] & 1 or tgt >> pair[t] & 1:
                    continue
                extend(chosen + ((s, t),), src | 1 << pair[s], tgt | 1 << pair[t], idx + 1)

        extend((), 0, 0, 0)
        found.sort(key=itemgetter(0))
        named = {(s, t): (names[s], names[t]) for s, t in movers}
        subsets = [frozenset(i for i in pairs if m >> i & 1) for m in range(2 << z.rank)]
        self.elems, self.left_idem, self.right_idem = [], [], []
        self.diagrams, self.by_code = [], {}
        for i, ((occ, _), chosen, src, tgt) in enumerate(found):
            m = sum(1 << p for p in occ)
            self.elems.append(ABasisElem([named[st] for st in chosen], subsets[m]))
            self.left_idem.append(subsets[src | m])
            self.right_idem.append(subsets[tgt | m])
            ds = [
                tuple(sorted(chosen + combo))
                for combo in itertools.product(*[horizontals[p] for p in occ])
            ]
            self.diagrams.append(ds)
            hit = (i, len(occ))
            for d in ds:
                self.by_code[self.encode(d)] = hit
        # One shared set per one-element output, the usual shape of a product.
        self.single = _Singles()

    def encode(self, d) -> int:
        """The code of a diagram given as its strands."""
        w = self.width
        return sum((t + 1) << (w * s) for s, t in d)

    def _crossings(self, d: tuple):
        """The pairs of strands of d that cross, each in the order of d."""
        arc, place = self.arc, self.place
        for (s1, t1), (s2, t2) in itertools.combinations(d, 2):
            if arc[s1] == arc[s2] and (place[s1] - place[s2]) * (place[t1] - place[t2]) < 0:
                yield (s1, t1), (s2, t2)

    def profile(self, d: tuple) -> tuple[int, int, int, int]:
        """Crossing masks of d by sources and by targets, then its source and target masks.

        A crossing pair is one bit, each strand named by its point at that
        end.  Two strands of a composite cross iff they cross in exactly one
        factor (the sign of their order flips once per crossing), so a
        composite keeps all c1 + c2 crossings iff the mask of d1 by targets
        and that of d2 by sources share no bit.
        """
        n = len(self.names)
        by_src = by_tgt = 0
        for (s1, t1), (s2, t2) in self._crossings(d):
            by_src |= 1 << (s1 * n + s2)  # d is sorted by source
            by_tgt |= 1 << (t1 * n + t2 if t1 < t2 else t2 * n + t1)
        return by_src, by_tgt, sum(1 << s for s, _ in d), sum(1 << t for _, t in d)

    def resolutions(self, d: tuple) -> list[int]:
        """The codes of d with one crossing resolved, kept when exactly one crossing is lost.

        Swapping the targets of crossing strands (s1, t1) and (s2, t2) loses
        1 + 2m crossings, where m counts the strands of d whose source's place
        is strictly between those of s1 and s2 and whose target's is strictly
        between those of t1 and t2 (so they lie on the same arc): each crossed
        both before and crosses neither after, and every other strand crosses
        as many of the pair as before.  So the swap is kept iff m = 0, and
        its code is d's code plus the two fields' changes.
        """
        place, w = self.place, self.width
        code = self.encode(d)
        out = []
        for (s1, t1), (s2, t2) in self._crossings(d):
            x1, x2, y1, y2 = place[s1], place[s2], place[t1], place[t2]
            if not any(
                (place[s] - x1) * (place[s] - x2) < 0 and (place[t] - y1) * (place[t] - y2) < 0
                for s, t in d
            ):
                out.append(code + (t2 - t1) * ((1 << w * s1) - (1 << w * s2)))
        return out

    def collect(self, codes: list) -> frozenset:
        """Collect a GF(2) multiset of diagram codes into basis indices.

        Every code left with odd multiplicity must be a diagram of a basis
        element, and each element met must have all of its diagrams.
        """
        by_code = self.by_code
        if len(codes) == 1:
            hit = by_code.get(codes[0])
            if hit is not None and not hit[1]:
                return self.single[hit[0]]
        odd: dict = {}
        for c in codes:
            if c in odd:
                del odd[c]
            else:
                odd[c] = None
        counts: dict = {}
        for c in odd:
            hit = by_code.get(c)
            if hit is None:
                raise SymmetrizationError(f"orbit key {self._name(c)} is not a basis element")
            counts[hit] = counts.get(hit, 0) + 1
        for (i, h), n in counts.items():
            if n != 1 << h:
                raise SymmetrizationError(f"incomplete orbit for {self.elems[i]}")
        if len(counts) == 1:
            return self.single[next(iter(counts))[0]]
        return frozenset(i for i, _ in counts)

    def _name(self, code: int) -> ABasisElem:
        """The orbit key of a diagram code: its named movers and the pairs of its horizontals."""
        names, w = self.names, self.width
        ends = [(s, (code >> (w * s) & ((1 << w) - 1)) - 1) for s in range(len(names))]
        return ABasisElem(
            [(names[s], names[t]) for s, t in ends if t >= 0 and s != t],
            [self.pair[s] for s, t in ends if s == t],
        )


class _Singles(dict):
    """The sets {i}, each made when first read and shared after."""

    def __missing__(self, i):
        one = self[i] = frozenset((i,))
        return one


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
            raise InputError(f"invalid arc diagram: {problems}")
        self.arc_diagram = arc_diagram
        self.k = arc_diagram.rank
        self._coding = coding = _Coding(arc_diagram)
        self.elems: list[ABasisElem] = coding.elems
        self.left_idem: list[frozenset] = coding.left_idem
        self.right_idem: list[frozenset] = coding.right_idem
        self.index = {e: i for i, e in enumerate(self.elems)}
        self.idempotent_at = {e.occupied: i for e, i in self.index.items() if not e.movers}

    # -- tables -----------------------------------------------------------

    @cached_property
    def diff_table(self) -> dict[int, frozenset]:
        """Basis index -> indices of its differential, built on first use."""
        coding = self._coding
        return {
            i: coding.collect([r for d in ds for r in coding.resolutions(d)])
            for i, ds in enumerate(coding.diagrams)
        }

    @cached_property
    def mult_table(self) -> ProductTable:
        """The nonzero basis products, built on first use."""
        coding = self._coding
        w = coding.width
        # Two diagrams compose only when the targets of the first are the
        # sources of the second (which also matches the idempotents), so every
        # diagram is indexed by its source set.  The product is kept when no
        # crossing is lost (see `_Coding.profile`).  The sources of d1 listed
        # by target and the targets of d2 listed by source meet strand by
        # strand, so the composite's code is one sum of shifted fields.
        by_sources: dict = {}  # source mask -> [(j, targets + 1 by source, crossing mask)]
        firsts = []  # per basis element: [(field shifts by target, target mask, crossing mask)]
        for j, ds in enumerate(coding.diagrams):
            row = []
            for d in ds:
                by_src, by_tgt, src, tgt = coding.profile(d)
                by_sources.setdefault(src, []).append((j, tuple([t + 1 for _, t in d]), by_src))
                shifts = tuple([w * s for s, _ in sorted(d, key=itemgetter(1))])
                row.append((shifts, tgt, by_tgt))
            firsts.append(row)
        collect = coding.collect
        table = ProductTable()
        for i, row in enumerate(firsts):
            prods: dict = {}  # j -> composite codes, in the order found
            for shifts, tgt, mask1 in row:
                for j, fields, mask2 in by_sources.get(tgt, ()):
                    if not mask1 & mask2:
                        code = sum(map(lshift, fields, shifts))
                        if j in prods:
                            prods[j].append(code)
                        else:
                            prods[j] = [code]
            for j in sorted(prods):
                v = collect(prods[j])
                if v:
                    table[(i, j)] = v
        return table

    # -- public operations -------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.elems)

    def mul(self, x: frozenset, y: frozenset) -> frozenset:
        return vsum(self.mult_table[(i, j)] for i in x for j in y)

    def diff(self, x: frozenset) -> frozenset:
        return vsum(self.diff_table[i] for i in x)

    def idempotent(self, subset) -> frozenset:
        return frozenset({self.idempotent_index(subset)})

    def idempotent_index(self, subset) -> int:
        return self.idempotent_at[frozenset(subset)]

    def unit(self) -> frozenset:
        return frozenset(map(self.idempotent_index, self.all_idempotent_subsets()))

    def all_idempotent_subsets(self):
        for r in range(self.k + 1):
            yield from (
                frozenset(s) for s in itertools.combinations(range(1, self.k + 1), r)
            )

    def is_idempotent_elem(self, i: int) -> bool:
        return not self.elems[i].movers

    @cached_property
    def preimages(self) -> "tuple[dict, dict]":
        """The inverse diff and product index, built on first use.

        Maps c to the non-idempotent a with c in d(a), and to the pairs (a, b)
        of non-idempotents with c in a.b.
        """
        dpre: dict = {}
        mpre: dict = {}
        for a, outs in self.diff_table.items():
            for c in outs:
                dpre.setdefault(c, []).append(a)
        for (a, b), outs in self.mult_table.items():
            if not self.is_idempotent_elem(a) and not self.is_idempotent_elem(b):
                for c in outs:
                    mpre.setdefault(c, []).append((a, b))
        return dpre, mpre

    @cached_property
    def idem_blocks(self) -> dict:
        """The basis by idempotents, built on first use: (left, right) -> ascending indices."""
        blocks: dict = {}
        for g in range(self.dim):
            blocks.setdefault((self.left_idem[g], self.right_idem[g]), []).append(g)
        return {key: tuple(gs) for key, gs in blocks.items()}

    @cached_property
    def models(self) -> dict:
        """Builder name -> what it built once for this algebra (see standard_models)."""
        return {}

    @cached_property
    def opposite(self) -> "AlgebraModel":
        """The formal opposite: same basis, reversed multiplication, swapped idempotents.

        It shares the tables' contents, not the views or models built later.
        """
        op = object.__new__(AlgebraModel)
        op.arc_diagram = self.arc_diagram
        op.k = self.k
        op.elems = self.elems
        op.index = self.index
        op.idempotent_at = self.idempotent_at
        op.left_idem = self.right_idem
        op.right_idem = self.left_idem
        op.diff_table = self.diff_table
        op.mult_table = ProductTable(((i, j), v) for (j, i), v in self.mult_table.items())
        op.opposite = self
        return op


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
    basis = am.idem_blocks.get((frozenset(I), frozenset(J)), ())
    d = Gf2Matrix.from_columns(basis, basis, am.diff_table)
    return ChainComplexGf2(basis, d)


def homology_blocks(am: AlgebraModel) -> dict:
    """(I, J) -> homology dimension of the corresponding block, dim - 2 rank d."""
    out = {}
    for I in am.all_idempotent_subsets():
        for J in am.all_idempotent_subsets():
            c = gamma_block(am, I, J)
            c.check_d_squared()
            out[(I, J)] = c.dim - 2 * rank(c.differential)
    return out


def dump_basis_tsv(am: AlgebraModel) -> str:
    def row(i: int, e: ABasisElem) -> str:
        movers = ",".join(f"{s}>{t}" for s, t in e.movers)
        occ = ",".join(map(str, sorted(e.occupied)))
        li = ",".join(map(str, sorted(am.left_idem[i])))
        ri = ",".join(map(str, sorted(am.right_idem[i])))
        return f"{i}\t{occ}\t{movers}\t{li}\t{ri}\n"

    return "".join([row(i, e) for i, e in enumerate(am.elems)])


def dump_mult_tsv(am: AlgebraModel) -> str:
    table = am.mult_table
    text: dict = {}  # product -> its text, once per distinct output set
    rows = []
    for i, j in sorted(table):
        v = table[i, j]
        t = text.get(v)
        if t is None:
            t = text[v] = ",".join(map(str, sorted(v)))
        rows.append(f"{i}\t{j}\t{t}\n")
    return "".join(rows)


def dump_diff_tsv(am: AlgebraModel) -> str:
    lines = []
    for i, v in sorted(am.diff_table.items()):
        if v:
            lines.append(f"{i}\t" + ",".join(str(l) for l in sorted(v)))
    return "\n".join(lines) + "\n"
