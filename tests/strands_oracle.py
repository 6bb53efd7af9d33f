"""Brute-force reference for the product and differential tables of `AlgebraModel`.

The library builds each table on first use: it codes every diagram as one
int (a field per source holding the target), finds composable diagrams
through an index by source set, tests a lost crossing with one AND of two
crossing-pair masks, and looks composite codes up in a map from code to
basis element.  This oracle keeps the builders it replaced.  The
brute-force one works on named points and `ABasisElem` orbit keys and uses
nothing of the library's build: `_cross_count` counts interleaving strand
pairs, `expand` lists the diagrams of a basis element, `symmetrize` regroups
a Z/2 multiset of diagrams into full orbits, and `_diagram_diff` resolves
one crossing at a time.

`named_basis` is the enumeration the library used before it coded the
points.  `sparse_tables` is the builder it used before it composed on
codes: it builds both tables at once, on tuples of coded strands, finds
composites through the same index by source set and crossing masks
(`_OrbitCoding`), and regroups them by orbit key (movers, set of horizontal
pairs) with a dict lookup per composite diagram.

`dense_mult_table` is the builder the library used before it skipped
idempotent-mismatched pairs and diagram pairs with unequal endpoints: it
composes every diagram of every basis element with every diagram of every
other, recomputes all three crossing counts for each composable pair, and
stores every one of the dim^2 pairs, zeros included.  `dense_diff_table`
resolves the crossings of every diagram of every basis element.  The
differential tests compare them with the sparse tables the library builds.

The library keeps a resolution by the third-strand rule: swapping the
targets of two crossing strands loses 1 + 2m crossings, m counting the
strands that start strictly between their sources and end strictly between
their targets, so it keeps the swap iff m = 0 and never rebuilds the
resolved diagram.  The recount is its oracle: `_diagram_diff` and
`_OrbitCoding.resolutions` build each resolution and keep it when its
crossing count is one less than the diagram's.

`dga_failures` is the `check ... dga` suite as it was before the
associativity check visited only the k where a product can be nonzero: it
tries every triple (i, j, k).  `variants_failures` is the `check ...
variants` suite as it was before the anti-homomorphism check visited only
the pairs where a product can be nonzero: it tries every pair (i, j).
"""

from __future__ import annotations

import itertools

from strandjoin.arc_diagram import ArcDiagram
from strandjoin.gf2 import vsum
from strandjoin.strands import (
    ABasisElem,
    AlgebraModel,
    ProductTable,
    SymmetrizationError,
    reflect,
    rotate180,
)


def _cross_count(z, strands: frozenset) -> int:
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


def expand(am: AlgebraModel, e: ABasisElem) -> list[frozenset]:
    """All diagrams (strand sets, horizontals as (p, p)) of a basis element."""
    z = am.arc_diagram
    out = []
    pair_choices = [z.pair(i) for i in sorted(e.occupied)]
    for combo in itertools.product(*pair_choices):
        out.append(frozenset(e.movers) | frozenset((p, p) for p in combo))
    return out


def _orbit_key(am: AlgebraModel, diagram: frozenset) -> ABasisElem:
    pair_of = am.arc_diagram.match
    movers = tuple(sorted((s, t) for s, t in diagram if s != t))
    horiz_pairs = frozenset(pair_of[p] for p, q in diagram if p == q)
    return ABasisElem(movers, horiz_pairs)


def symmetrize(am: AlgebraModel, diagrams: list[frozenset]) -> frozenset:
    """Collect a GF(2) multiset of diagrams into basis indices."""
    parity: dict[frozenset, int] = {}
    for d in diagrams:
        parity[d] = parity.get(d, 0) ^ 1
    live = [d for d, c in parity.items() if c]
    groups: dict[ABasisElem, set] = {}
    for d in live:
        groups.setdefault(_orbit_key(am, d), set()).add(d)
    keys = set()
    for key, ds in groups.items():
        if key not in am.index:
            raise SymmetrizationError(f"orbit key {key} is not a basis element")
        if len(ds) != 2 ** len(key.occupied):
            raise SymmetrizationError(f"incomplete orbit for {key}")
        keys.add(am.index[key])
    return frozenset(keys)


def _diagram_diff(am: AlgebraModel, diagram: frozenset) -> list[frozenset]:
    z = am.arc_diagram
    base = _cross_count(z, diagram)
    out = []
    for (s1, t1), (s2, t2) in itertools.combinations(sorted(diagram), 2):
        a1, p1 = z.position(s1)
        a2, p2 = z.position(s2)
        if a1 != a2:
            continue
        _, q1 = z.position(t1)
        _, q2 = z.position(t2)
        if (p1 - p2) * (q1 - q2) >= 0:
            continue
        resolved = (diagram - {(s1, t1), (s2, t2)}) | {(s1, t2), (s2, t1)}
        if len(resolved) != len(diagram):
            continue
        if _cross_count(z, resolved) == base - 1:
            out.append(resolved)
    return out


def _diagram_mul(am: AlgebraModel, d1: frozenset, d2: frozenset) -> frozenset | None:
    tgts = frozenset(t for _, t in d1)
    srcs = frozenset(s for s, _ in d2)
    if tgts != srcs:
        return None
    follow = {s: t for s, t in d2}
    comp = frozenset((s, follow[t]) for s, t in d1)
    if len(comp) != len(d1):
        return None
    c1 = _cross_count(am.arc_diagram, d1)
    c2 = _cross_count(am.arc_diagram, d2)
    if _cross_count(am.arc_diagram, comp) != c1 + c2:
        return None
    return comp


def dense_diff_table(am: AlgebraModel) -> dict:
    """Every basis index mapped to the basis indices of its differential."""
    table = {}
    for i, e in enumerate(am.elems):
        resolved = []
        for d in expand(am, e):
            resolved.extend(_diagram_diff(am, d))
        table[i] = symmetrize(am, resolved)
    return table


def dense_mult_table(am: AlgebraModel) -> dict:
    """Every pair (i, j) of basis indices mapped to the product's basis indices."""
    expansions = [expand(am, e) for e in am.elems]
    table = {}
    for i in range(am.dim):
        for j in range(am.dim):
            if am.right_idem[i] != am.left_idem[j]:
                table[(i, j)] = frozenset()
                continue
            prods = []
            for d1 in expansions[i]:
                for d2 in expansions[j]:
                    c = _diagram_mul(am, d1, d2)
                    if c is not None:
                        prods.append(c)
            table[(i, j)] = symmetrize(am, prods)
    return table


def named_basis(z: ArcDiagram) -> list[ABasisElem]:
    """The basis in the library's order, enumerated on named points and sorted
    by (occupied pairs, positions of the movers) as the library did before it
    coded the points."""
    pos = {p: z.position(p) for p in z.points}
    pair_of = z.match

    def upward(s, t) -> bool:
        (a1, p1), (a2, p2) = pos[s], pos[t]
        return a1 == a2 and (p1 < p2 if z.kind == "alpha" else p1 > p2)

    pts = z.points
    all_movers = [(s, t) for s in pts for t in pts if s != t and upward(s, t)]
    elems = []

    def extend(chosen: list, rest: list):
        touched_src = {pair_of[s] for s, _ in chosen}
        touched_tgt = {pair_of[t] for _, t in chosen}
        free = [
            i for i in range(1, z.rank + 1) if i not in touched_src and i not in touched_tgt
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
        return (sorted(e.occupied), [(pos[s], pos[t]) for s, t in e.movers])

    return sorted(set(elems), key=sort_key)


class _OrbitCoding:
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
        self.pair = [z.match[p] for p in names]
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


def sparse_tables(am: AlgebraModel) -> tuple[dict, ProductTable]:
    """The differential and the nonzero products, built on expansions and orbit keys."""
    coding = _OrbitCoding(am.arc_diagram, am.elems)
    expansions = [coding.expand(e) for e in am.elems]
    diff_table = {}
    mult_table = ProductTable()
    for i, exp in enumerate(expansions):
        resolved = []
        for d in exp:
            resolved.extend(coding.resolutions(d))
        diff_table[i] = coding.symmetrize(resolved)
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
                mult_table[(i, j)] = v
    return diff_table, mult_table


def dga_failures(am: AlgebraModel) -> list:
    """The failure lines of the dga suite, from a brute-force pass over all inputs."""
    failures = []
    n = am.dim
    for i in range(n):
        if vsum(am.diff_table[j] for j in am.diff_table[i]):
            failures.append(f"d^2 != 0 at {i}")
    for i in range(n):
        for j in range(n):
            lhs = am.diff(am.mul(frozenset({i}), frozenset({j})))
            rhs = am.mul(am.diff(frozenset({i})), frozenset({j})) ^ am.mul(
                frozenset({i}), am.diff(frozenset({j}))
            )
            if lhs != rhs:
                failures.append(f"Leibniz fails at ({i},{j})")
    for i in range(n):
        for j in range(n):
            ij = am.mult_table[(i, j)]
            for k in range(n):
                a = vsum(am.mult_table[(l, k)] for l in ij)
                b = am.mul(frozenset({i}), am.mult_table[(j, k)])
                if a != b:
                    failures.append(f"associativity fails at ({i},{j},{k})")
    u = am.unit()
    for i in range(n):
        if am.mul(u, frozenset({i})) != {i}:
            failures.append(f"unit fails at {i}")
        if am.mul(frozenset({i}), u) != {i}:
            failures.append(f"unit fails at {i}")
    return failures


def variants_failures(am: AlgebraModel) -> list:
    """The failure lines of the variants suite, from a pass over every pair."""
    failures = []
    for name, (tgt, bij) in (("rotate180", rotate180(am)), ("reflect", reflect(am))):
        for i in range(am.dim):
            if frozenset(bij[j] for j in am.diff_table[i]) != tgt.diff_table[bij[i]]:
                failures.append(f"{name} differential fails at {i}")
        for i in range(am.dim):
            for j in range(am.dim):
                img = frozenset(bij[l] for l in am.mult_table[(i, j)])
                if img != tgt.mult_table[(bij[j], bij[i])]:
                    failures.append(f"{name} anti-homomorphism fails at ({i},{j})")
    return failures
