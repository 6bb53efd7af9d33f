"""Brute-force reference for the product and differential tables of `AlgebraModel`.

The library builds its tables on integer-coded points, finds composable
diagrams through an index by source set and tests a lost crossing with one
AND of two crossing-pair masks.  This oracle keeps the builder it replaced,
on named points and `ABasisElem` orbit keys, and uses nothing of the
library's build: `_cross_count` counts interleaving strand pairs, `expand`
lists the diagrams of a basis element, `symmetrize` regroups a Z/2 multiset
of diagrams into full orbits, and `_diagram_diff` resolves one crossing at a
time.

`dense_mult_table` is the builder the library used before it skipped
idempotent-mismatched pairs and diagram pairs with unequal endpoints: it
composes every diagram of every basis element with every diagram of every
other, recomputes all three crossing counts for each composable pair, and
stores every one of the dim^2 pairs, zeros included.  `dense_diff_table`
resolves the crossings of every diagram of every basis element.  The
differential tests compare them with the sparse tables the library builds.

`dga_failures` is the `check ... dga` suite as it was before the
associativity check visited only the k where a product can be nonzero: it
tries every triple (i, j, k).  `variants_failures` is the `check ...
variants` suite as it was before the anti-homomorphism check visited only
the pairs where a product can be nonzero: it tries every pair (i, j).
"""

from __future__ import annotations

import itertools

from strandjoin.gf2 import Gf2Vector, vsum
from strandjoin.strands import ABasisElem, AlgebraModel, SymmetrizationError, reflect, rotate180


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


def dga_failures(am: AlgebraModel) -> list:
    """The failure lines of the dga suite, from a brute-force pass over all inputs."""
    failures = []
    n = am.dim
    for i in range(n):
        if vsum(Gf2Vector(am.diff_table[j]) for j in am.diff_table[i]):
            failures.append(f"d^2 != 0 at {i}")
    for i in range(n):
        for j in range(n):
            lhs = am.diff(am.mul(Gf2Vector.of(i), Gf2Vector.of(j)))
            rhs = am.mul(am.diff(Gf2Vector.of(i)), Gf2Vector.of(j)) + am.mul(
                Gf2Vector.of(i), am.diff(Gf2Vector.of(j))
            )
            if lhs.entries != rhs.entries:
                failures.append(f"Leibniz fails at ({i},{j})")
    for i in range(n):
        for j in range(n):
            ij = am.mult_table[(i, j)]
            for k in range(n):
                a = vsum(Gf2Vector(am.mult_table[(l, k)]) for l in ij)
                b = am.mul(Gf2Vector.of(i), Gf2Vector(am.mult_table[(j, k)]))
                if a.entries != b.entries:
                    failures.append(f"associativity fails at ({i},{j},{k})")
    u = am.unit()
    for i in range(n):
        if am.mul(u, Gf2Vector.of(i)).entries != {i}:
            failures.append(f"unit fails at {i}")
        if am.mul(Gf2Vector.of(i), u).entries != {i}:
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
