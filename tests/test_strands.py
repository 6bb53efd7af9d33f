"""Strands algebra tests, anchored by an independent brute-force enumerator.

The oracle below works with raw strand diagrams (sets of point pairs) and
never touches the production tables: it enumerates the big strands algebra,
imposes the subalgebra conditions directly, and groups diagrams into
symmetrization orbits by exhaustive swapping.
"""

import itertools

from diagrams import random_diagram
from strandjoin.arc_diagram import Z0, Z1, Z2, reverse, flip_type
from strandjoin.strands import (
    ABasisElem,
    enumerate_basis,
    reflect,
    rotate180,
)


# -- independent oracle ---------------------------------------------------------


def oracle_positions(z):
    return {p: z.position(p) for p in z.points}


def oracle_diagrams(z):
    """All embedded upward diagrams of the big strands algebra."""
    pos = oracle_positions(z)
    pts = list(z.points)
    strands = [
        (s, t)
        for s in pts
        for t in pts
        if pos[s][0] == pos[t][0]
        and (pos[s][1] <= pos[t][1] if z.kind == "alpha" else pos[s][1] >= pos[t][1])
        and ((s == t) or True)
    ]
    strands = [
        (s, t)
        for (s, t) in strands
        if s == t
        or (pos[s][1] < pos[t][1] if z.kind == "alpha" else pos[s][1] > pos[t][1])
    ]
    out = []
    for r in range(len(strands) + 1):
        for combo in itertools.combinations(strands, r):
            srcs = [s for s, _ in combo]
            tgts = [t for _, t in combo]
            if len(set(srcs)) == len(srcs) and len(set(tgts)) == len(tgts):
                out.append(frozenset(combo))
    return out


def oracle_in_subalgebra(z, diagram):
    match = z.match
    srcs = [match[s] for s, _ in diagram]
    tgts = [match[t] for _, t in diagram]
    return len(set(srcs)) == len(srcs) and len(set(tgts)) == len(tgts)


def oracle_orbit(z, diagram):
    """The symmetrization orbit: swap horizontal strands within their pairs."""
    match = z.match
    partner = {}
    for i in range(1, z.rank + 1):
        p, q = z.pair(i)
        partner[p] = q
        partner[q] = p
    horizontals = [s for (s, t) in diagram if s == t]
    orbit = set()
    for choice in itertools.product(*[(p, partner[p]) for p in horizontals]):
        d = frozenset((s, t) for (s, t) in diagram if s != t) | frozenset(
            (c, c) for c in choice
        )
        orbit.add(d)
    return orbit


def oracle_basis(z):
    """Complete symmetrization orbits inside the subalgebra."""
    valid = [d for d in oracle_diagrams(z) if oracle_in_subalgebra(z, d)]
    validset = set(valid)
    seen = set()
    orbits = []
    for d in valid:
        if d in seen:
            continue
        orb = oracle_orbit(z, d)
        assert orb <= validset, "orbit leaves the subalgebra"
        assert all(len(o) == len(d) for o in orb)
        seen |= orb
        orbits.append(frozenset(orb))
    return orbits


def oracle_cross(z, diagram):
    pos = oracle_positions(z)
    n = 0
    for (s1, t1), (s2, t2) in itertools.combinations(sorted(diagram), 2):
        if pos[s1][0] != pos[s2][0]:
            continue
        if (pos[s1][1] - pos[s2][1]) * (pos[t1][1] - pos[t2][1]) < 0:
            n += 1
    return n


def oracle_diff_orbit(z, orbit):
    """Differential of an orbit sum, as a GF(2) multiset of diagrams."""
    parity = {}
    for diagram in orbit:
        base = oracle_cross(z, diagram)
        for (s1, t1), (s2, t2) in itertools.combinations(sorted(diagram), 2):
            pos = oracle_positions(z)
            if pos[s1][0] != pos[s2][0]:
                continue
            if (pos[s1][1] - pos[s2][1]) * (pos[t1][1] - pos[t2][1]) >= 0:
                continue
            res = (diagram - {(s1, t1), (s2, t2)}) | {(s1, t2), (s2, t1)}
            if len(res) == len(diagram) and oracle_cross(z, res) == base - 1:
                parity[res] = parity.get(res, 0) ^ 1
    return frozenset(d for d, c in parity.items() if c)


# frozen regression constants computed by this oracle before the main build
Z2_DIM = 16
Z2_BLOCK_TABLE = {
    ((), ()): 1,
    ((1,), (1,)): 2,
    ((1,), (2,)): 3,
    ((2,), (1,)): 1,
    ((2,), (2,)): 2,
    ((1, 2), (1, 2)): 1,
}


def test_oracle_dimensions_and_regression_constants(am0, am1, am2):
    assert len(oracle_basis(Z0)) == am0.dim == 1
    assert len(oracle_basis(Z1)) == am1.dim == 3
    assert len(oracle_basis(Z2)) == am2.dim == Z2_DIM


def test_oracle_matches_production_basis(am2):
    orbits = oracle_basis(Z2)
    keyed = set()
    for orb in orbits:
        d = next(iter(orb))
        movers = tuple(sorted((s, t) for (s, t) in d if s != t))
        occ = frozenset(Z2.match[s] for (s, t) in d if s == t)
        keyed.add(ABasisElem(movers, occ))
    assert keyed == set(am2.elems)


def test_oracle_differential_matches_production(am2):
    orbits = oracle_basis(Z2)
    for orb in orbits:
        d = next(iter(orb))
        movers = tuple(sorted((s, t) for (s, t) in d if s != t))
        occ = frozenset(Z2.match[s] for (s, t) in d if s == t)
        idx = am2.index[ABasisElem(movers, occ)]
        expected = oracle_diff_orbit(Z2, orb)
        produced = set()
        for j in am2.diff_table[idx]:
            produced |= {
                frozenset(e.movers) | frozenset((p, p) for p in combo)
                for e in [am2.elems[j]]
                for combo in itertools.product(
                    *[Z2.pair(i) for i in sorted(e.occupied)]
                )
            }
        assert frozenset(produced) == expected


def test_oracle_homology_block_table(am2):
    """Rank computation with plain integer bitmasks, independent of gf2.py."""
    orbits = oracle_basis(Z2)
    keys = []
    for orb in orbits:
        d = next(iter(orb))
        movers = tuple(sorted((s, t) for (s, t) in d if s != t))
        occ = frozenset(Z2.match[s] for (s, t) in d if s == t)
        li = frozenset(Z2.match[s] for s, _ in movers) | occ
        ri = frozenset(Z2.match[t] for _, t in movers) | occ
        keys.append((orb, ABasisElem(movers, occ), li, ri))
    table = {}
    for (I, J) in itertools.product([frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})], repeat=2):
        block = [k for k in keys if k[2] == I and k[3] == J]
        index = {k[1]: n for n, k in enumerate(block)}
        cols = []
        for orb, elem, _, _ in block:
            img = oracle_diff_orbit(Z2, orb)
            mask = 0
            seen = set()
            for dg in img:
                movers = tuple(sorted((s, t) for (s, t) in dg if s != t))
                occ = frozenset(Z2.match[s] for (s, t) in dg if s == t)
                key = ABasisElem(movers, occ)
                if key not in seen:
                    seen.add(key)
                    mask |= 1 << index[key]
            cols.append(mask)
        rank = 0
        basis = []
        for c in cols:
            for b in basis:
                c = min(c, c ^ b)
            if c:
                basis.append(c)
                rank += 1
        dim_h = (len(block) - rank) - rank
        if dim_h:
            table[(tuple(sorted(I)), tuple(sorted(J)))] = dim_h
    assert table == Z2_BLOCK_TABLE


# -- production behavior ---------------------------------------------------------


def test_z1_multiplication_examples(am1):
    s = am1.index[ABasisElem((("a1", "a2"),), frozenset())]
    i1 = am1.idempotent_index({1})
    i0 = am1.idempotent_index(frozenset())
    assert am1.mult_table[(i1, s)] == frozenset({s})
    assert am1.mult_table[(s, i1)] == frozenset({s})
    assert am1.mult_table[(s, s)] == frozenset()
    assert am1.mult_table[(i0, i1)] == frozenset()


def test_diff_examples(am1, am2):
    for I in am1.all_idempotent_subsets():
        assert am1.diff_table[am1.idempotent_index(I)] == frozenset()
    s = am1.index[ABasisElem((("a1", "a2"),), frozenset())]
    assert am1.diff_table[s] == frozenset()
    x = am2.index[ABasisElem((("a1", "a4"), ("a2", "a3")), frozenset())]
    y = am2.index[ABasisElem((("a1", "a3"), ("a2", "a4")), frozenset())]
    assert am2.diff_table[x] == frozenset({y})


def test_idempotent_lookup_matches_the_basis_index(am0, am1, am2, am3):
    for am in (am0, am1, am2, am3):
        for alg in (am, am.opposite):
            for I in am.all_idempotent_subsets():
                i = am.index[ABasisElem((), I)]
                assert alg.idempotent_index(I) == alg.idempotent_index(set(I)) == i
                assert alg.idempotent(I) == {i}
            assert alg.unit() == {am.index[ABasisElem((), I)] for I in am.all_idempotent_subsets()}


def test_unit_and_idempotents(am2):
    u = am2.unit()
    for i in range(am2.dim):
        assert am2.mul(u, frozenset({i})) == {i}
        assert am2.mul(frozenset({i}), u) == {i}
        li, ri = am2.left_idem[i], am2.right_idem[i]
        assert am2.mul(am2.idempotent(li), frozenset({i})) == {i}
        for J in am2.all_idempotent_subsets():
            if J != li:
                assert not am2.mul(am2.idempotent(J), frozenset({i}))


def test_chords(am0, am1, am2):
    # The one-mover basis elements, whose movers the DD identity sums over.
    def chords(am):
        return [e for e in am.elems if len(e.movers) == 1]

    assert chords(am0) == []
    assert chords(am1) == [ABasisElem((("a1", "a2"),), frozenset())]
    assert {e.movers[0] for e in chords(am2)} == {
        ("a1", "a2"), ("a1", "a3"), ("a1", "a4"), ("a2", "a3"), ("a2", "a4"), ("a3", "a4"),
    }


def _is_anti_homomorphism(am, target, bij):
    for i in range(am.dim):
        if frozenset(bij[j] for j in am.diff_table[i]) != target.diff_table[bij[i]]:
            return False
    for i in range(am.dim):
        for j in range(am.dim):
            img = frozenset(bij[l] for l in am.mult_table[(i, j)])
            if img != target.mult_table[(bij[j], bij[i])]:
                return False
    return True


def test_rotate180_and_reflect_are_anti_isomorphisms(am1, am2):
    for am in (am1, am2):
        t, r = rotate180(am)
        assert t.dim == am.dim
        assert _is_anti_homomorphism(am, t, r)
        for I in am.all_idempotent_subsets():
            assert r[am.idempotent_index(I)] == t.idempotent_index(I)
        t2, f = reflect(am)
        assert _is_anti_homomorphism(am, t2, f)
        assert {f[f2i] for f2i, _ in enumerate(am.elems)} == set(range(am.dim))


def test_reflect_is_involution(am2):
    t, f = reflect(am2)
    t2, f2 = reflect(t)
    assert t2 is am2
    assert all(f2[f[i]] == i for i in range(am2.dim))


def test_composite_rotate_reflect_is_isomorphism(am1, am2):
    for am in (am1, am2):
        t1, f = reflect(am)
        t2, r = rotate180(t1)
        comp = {i: r[f[i]] for i in range(am.dim)}
        for i in range(am.dim):
            for j in range(am.dim):
                img = frozenset(comp[l] for l in am.mult_table[(i, j)])
                assert img == t2.mult_table[(comp[i], comp[j])]


def test_rotate180_example_on_z1(am1):
    t, r = rotate180(am1)
    s = am1.index[ABasisElem((("a1", "a2"),), frozenset())]
    assert t.elems[r[s]] == ABasisElem((("a2", "a1"),), frozenset())


def test_beta_algebra_dimensions_match(am1, am2):
    assert enumerate_basis(flip_type(Z1)).dim == am1.dim
    assert enumerate_basis(flip_type(Z2)).dim == am2.dim
    assert enumerate_basis(reverse(Z2)).dim == am2.dim


def test_random_diagram_oracle_dimension_agreement():
    import random

    rng = random.Random(2024)
    for _ in range(6):
        z = random_diagram(rng, max_rank=2)
        am = enumerate_basis(z)
        assert am.dim == len(oracle_basis(z))
