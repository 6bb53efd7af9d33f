"""Brute-force reference for the product table of `AlgebraModel`.

`dense_mult_table` is the builder the library used before it skipped
idempotent-mismatched pairs and diagram pairs with unequal endpoints: it
composes every diagram of every basis element with every diagram of every
other, recomputes all three crossing counts for each composable pair, and
stores every one of the dim^2 pairs, zeros included.  The differential tests
compare it with the sparse table the library builds.

`dga_failures` is the `check ... dga` suite as it was before the
associativity check visited only the k where a product can be nonzero: it
tries every triple (i, j, k).
"""

from __future__ import annotations

from strandjoin.gf2 import Gf2Vector, vsum
from strandjoin.strands import AlgebraModel, _cross_count


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


def dense_mult_table(am: AlgebraModel) -> dict:
    """Every pair (i, j) of basis indices mapped to the product's basis indices."""
    expansions = [am.expand(e) for e in am.elems]
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
            table[(i, j)] = am.symmetrize(prods).entries
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
