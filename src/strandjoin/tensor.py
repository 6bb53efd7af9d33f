"""Box tensor products, external tensor over disjoint algebras, induced morphisms.

The box product pairs the right type-A side of the left factor with the left
type-D side of the right factor over a common algebra.  Iterated firings of
the D-side factor feed the A-side operations; firings that emit idempotents
interact only through the unital one-input action.  For a DD right factor
the second outputs accumulate into a single product, later-generation
factors multiplying on the left.  A type-D factor on the left (dbox) is
handled as the opposite of a box over the opposite algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arc_diagram import ArcDiagram, reverse
from .gf2 import Gf2Vector
from .strands import ABasisElem, AlgebraModel, enumerate_basis, rotate180
from .ainf import (
    ModuleStructure,
    Morphism,
    StructureError,
    f_max_right,
    oppositize,
    relabel,
)


@dataclass(frozen=True)
class BoxProduct:
    result: ModuleStructure


def _da_chains(n: ModuleStructure, kmax: int) -> dict:
    """For a DA right factor: (y0, bseq) -> {(argsC, y_end): parity} with all
    emitted b non-idempotent and len(bseq) <= kmax."""
    alg = n.left_alg
    firings: dict = {}
    for (y, blk), outs in n.table.items():
        firings.setdefault(y, []).append((blk, outs))
    chains: dict = {}
    for y in n.gens:
        chains.setdefault((y, ()), {})[((), y)] = 1
    frontier = {(y, ()): {((), y): 1} for y in n.gens}
    for _ in range(kmax):
        nxt: dict = {}
        for (y0, bseq), states in frontier.items():
            for (argsC, y), par in states.items():
                if not par:
                    continue
                for blk, outs in firings.get(y, ()):
                    for b, y2 in outs:
                        if alg.is_idempotent_elem(b):
                            continue
                        key = (y0, bseq + (b,))
                        st = nxt.setdefault(key, {})
                        skey = (argsC + blk, y2)
                        st[skey] = st.get(skey, 0) ^ 1
        for key, states in nxt.items():
            tgt = chains.setdefault(key, {})
            for skey, par in states.items():
                tgt[skey] = tgt.get(skey, 0) ^ par
        frontier = nxt
    return chains


def _dd_chains(n: ModuleStructure, kmax: int) -> dict:
    """For a DD right factor: (y0, bseq) -> {(cseq, y_end): parity}."""
    alg = n.left_alg
    chains: dict = {}
    for y in n.gens:
        chains.setdefault((y, ()), {})[((), y)] = 1
    frontier = {(y, ()): {((), y): 1} for y in n.gens}
    for _ in range(kmax):
        nxt: dict = {}
        for (y0, bseq), states in frontier.items():
            for (cseq, y), par in states.items():
                if not par:
                    continue
                for b, y2, c in n.dd(y):
                    if alg.is_idempotent_elem(b):
                        continue
                    key = (y0, bseq + (b,))
                    st = nxt.setdefault(key, {})
                    skey = (cseq + (c,), y2)
                    st[skey] = st.get(skey, 0) ^ 1
        for key, states in nxt.items():
            tgt = chains.setdefault(key, {})
            for skey, par in states.items():
                tgt[skey] = tgt.get(skey, 0) ^ par
        frontier = nxt
    return chains


def _collapse(alg: AlgebraModel, cseq: tuple, empty_idem: frozenset) -> Gf2Vector:
    """Multiply accumulated right outputs, later firings on the left."""
    if not cseq:
        return Gf2Vector.of(alg.idempotent_index(empty_idem))
    acc = Gf2Vector.of(cseq[0])
    for c in cseq[1:]:
        acc = alg.mul(Gf2Vector.of(c), acc)
    return acc


def box(m: ModuleStructure, n: ModuleStructure, validate: bool = True) -> BoxProduct:
    """The box tensor product of an A-side left factor with a D-side right factor."""
    if m.right_type != "A":
        raise StructureError("left factor must be type A on its right side")
    if n.left_type != "D":
        raise StructureError("right factor must be type D on its left side")
    if m.right_alg is not n.left_alg:
        raise StructureError("factors are over different algebras")
    alg = m.right_alg
    gens = tuple(
        (x, y) for x in m.gens for y in n.gens if m.ridem[x] == n.lidem[y]
    )
    genset = set(gens)
    kmax = m.max_right_len()
    table: dict = {}

    def add(key, val):
        table.setdefault(key, set())
        table[key] ^= {val}

    if n.kind == "DA":
        chains = _da_chains(n, kmax)
        res_kind = m.left_type + "A"
        lidem = {(x, y): m.lidem[x] for (x, y) in gens}
        ridem = {(x, y): n.ridem[y] for (x, y) in gens}
        if m.kind == "AA":
            for (argsL, x, bseq), outs in m.table.items():
                for y in n.gens:
                    if ((x, y)) not in genset:
                        continue
                    for (argsC, y2), par in chains.get((y, bseq), {}).items():
                        if not par:
                            continue
                        for x2 in outs:
                            add((argsL, (x, y), argsC), (x2, y2))
            # Unital interaction: a single idempotent emission acts as identity.
            for (y, blk), outs in n.table.items():
                for b, y2 in outs:
                    if not alg.is_idempotent_elem(b):
                        continue
                    subset = alg.elems[b].occupied
                    for x in m.gens:
                        if m.ridem[x] == subset and (x, y) in genset:
                            add(((), (x, y), blk), (x, y2))
        else:  # m.kind == "DA"
            for (x, bseq), outs in m.table.items():
                for y in n.gens:
                    if (x, y) not in genset:
                        continue
                    for (argsC, y2), par in chains.get((y, bseq), {}).items():
                        if not par:
                            continue
                        for a, x2 in outs:
                            add(((x, y), argsC), (a, (x2, y2)))
            for (y, blk), outs in n.table.items():
                for b, y2 in outs:
                    if not alg.is_idempotent_elem(b):
                        continue
                    subset = alg.elems[b].occupied
                    for x in m.gens:
                        if m.ridem[x] == subset and (x, y) in genset:
                            ia = m.left_alg.idempotent_index(m.lidem[x])
                            add(((x, y), blk), (ia, (x, y2)))
        result = ModuleStructure(
            res_kind,
            m.left_alg,
            n.right_alg,
            gens,
            lidem,
            ridem,
            table,
            validate=validate,
            name=f"({m.name}x{n.name})",
        )
    elif n.kind == "DD":
        chains = _dd_chains(n, kmax)
        res_kind = m.left_type + "D"
        lidem = {(x, y): m.lidem[x] for (x, y) in gens}
        ridem = {(x, y): n.ridem[y] for (x, y) in gens}
        ralg = n.right_alg
        if m.kind == "AA":
            for (argsL, x, bseq), outs in m.table.items():
                for y in n.gens:
                    if (x, y) not in genset:
                        continue
                    for (cseq, y2), par in chains.get((y, bseq), {}).items():
                        if not par:
                            continue
                        for c in _collapse(ralg, cseq, n.ridem[y]):
                            for x2 in outs:
                                add((argsL, (x, y)), ((x2, y2), c))
            for y, outs in n.table.items():
                for b, y2, c in outs:
                    if not alg.is_idempotent_elem(b):
                        continue
                    subset = alg.elems[b].occupied
                    for x in m.gens:
                        if m.ridem[x] == subset and (x, y) in genset:
                            add(((), (x, y)), ((x, y2), c))
        else:  # m.kind == "DA"
            for (x, bseq), outs in m.table.items():
                for y in n.gens:
                    if (x, y) not in genset:
                        continue
                    for (cseq, y2), par in chains.get((y, bseq), {}).items():
                        if not par:
                            continue
                        for c in _collapse(ralg, cseq, n.ridem[y]):
                            for a, x2 in outs:
                                add((x, y), (a, (x2, y2), c))
            for y, outs in n.table.items():
                for b, y2, c in outs:
                    if not alg.is_idempotent_elem(b):
                        continue
                    subset = alg.elems[b].occupied
                    for x in m.gens:
                        if m.ridem[x] == subset and (x, y) in genset:
                            ia = m.left_alg.idempotent_index(m.lidem[x])
                            add((x, y), (ia, (x, y2), c))
        result = ModuleStructure(
            res_kind,
            m.left_alg,
            n.right_alg,
            gens,
            lidem,
            ridem,
            table,
            validate=validate,
            name=f"({m.name}x{n.name})",
        )
    else:
        raise StructureError(f"unsupported right factor kind {n.kind}")
    return BoxProduct(result)


def dbox(d: ModuleStructure, a: ModuleStructure, validate: bool = True) -> ModuleStructure:
    """The box product d box a of a right type-D side with a left type-A side.

    Computed as the opposite of the A-side-first box of the opposites, over
    the opposite algebra; generators are (y, x) with y from d and x from a.
    """
    flipped = oppositize(box(oppositize(a), oppositize(d), validate=False).result)
    return relabel(flipped, lambda g: (g[1], g[0]), validate=validate)


# -- external tensor over disjoint algebras ------------------------------------


def disjoint_union_diagram(z1: ArcDiagram, z2: ArcDiagram) -> ArcDiagram:
    if z1.kind != z2.kind:
        raise ValueError("disjoint union requires matching diagram kinds")
    arcs = tuple(tuple(("L", p) for p in arc) for arc in z1.arcs) + tuple(
        tuple(("R", p) for p in arc) for arc in z2.arcs
    )
    matching = {("L", p): i for p, i in z1.matching}
    matching.update({("R", p): i + z1.rank for p, i in z2.matching})
    return ArcDiagram(arcs, matching, z1.kind)


class TensorAlgebra:
    """The algebra of a disjoint union, with the pairing onto factor elements."""

    def __init__(self, am1: AlgebraModel, am2: AlgebraModel):
        self.factors = (am1, am2)
        self.union = enumerate_basis(
            disjoint_union_diagram(am1.arc_diagram, am2.arc_diagram)
        )
        self.shift = am1.k
        self.pair_index: dict = {}
        self.split: dict = {}
        for i, e in enumerate(self.union.elems):
            movers1 = tuple((s[1], t[1]) for s, t in e.movers if s[0] == "L")
            movers2 = tuple((s[1], t[1]) for s, t in e.movers if s[0] == "R")
            occ1 = frozenset(j for j in e.occupied if j <= self.shift)
            occ2 = frozenset(j - self.shift for j in e.occupied if j > self.shift)
            e1 = am1.index[ABasisElem(movers1, occ1)]
            e2 = am2.index[ABasisElem(movers2, occ2)]
            self.pair_index[(e1, e2)] = i
            self.split[i] = (e1, e2)


def external_tensor(m: ModuleStructure, n: ModuleStructure) -> ModuleStructure:
    """The DG-type module M (x) N over the tensor of their algebras.

    m is a left module over A, n a right module over B; the result is a left
    module over the algebra of the disjoint union of A's diagram and the
    reverse of B's (realizing B-opposite), with the combined one-input
    action.
    """
    if not (m.kind == "AA" and m.right_alg is None and m.left_alg is not None):
        raise StructureError("first factor must be a left type-A module")
    if not (n.kind == "AA" and n.left_alg is None and n.right_alg is not None):
        raise StructureError("second factor must be a right type-A module")
    if not m.is_dg_type() or not n.is_dg_type():
        raise StructureError("external tensor requires DG-type factors")
    A, B = m.left_alg, n.right_alg
    brev, brot = rotate180(B)
    ta = TensorAlgebra(A, brev)
    U = ta.union
    gens = tuple((x, y) for x in m.gens for y in n.gens)
    lidem = {
        (x, y): m.lidem[x] | frozenset(j + ta.shift for j in n.ridem[y])
        for (x, y) in gens
    }
    ridem = {g: frozenset() for g in gens}
    table: dict = {}

    def add(key, val):
        table.setdefault(key, set())
        table[key] ^= {val}

    # Differential: Leibniz.
    for (argsL, x, _), outs in m.table.items():
        if argsL:
            continue
        for y in n.gens:
            for x2 in outs:
                add(((), (x, y), ()), (x2, y))
    for (_, y, argsR), outs in n.table.items():
        if argsR:
            continue
        for x in m.gens:
            for y2 in outs:
                add(((), (x, y), ()), (x, y2))
    # Combined one-input action by union basis elements.
    rot_inv = {v: k for k, v in brot.items()}
    for u in range(U.dim):
        e1, e2 = ta.split[u]
        a_idem = A.is_idempotent_elem(e1)
        b_idem = brev.is_idempotent_elem(e2)
        if a_idem and b_idem:
            continue
        b_orig = rot_inv[e2]
        for x in m.gens:
            xs = (
                frozenset([x])
                if a_idem and A.elems[e1].occupied == m.lidem[x]
                else m.table.get(((e1,), x, ()), frozenset())
                if not a_idem
                else frozenset()
            )
            if not xs:
                continue
            for y in n.gens:
                ys = (
                    frozenset([y])
                    if b_idem and B.elems[b_orig].occupied == n.ridem[y]
                    else n.table.get(((), y, (b_orig,)), frozenset())
                    if not b_idem
                    else frozenset()
                )
                if not ys:
                    continue
                for x2 in xs:
                    for y2 in ys:
                        add(((u,), (x, y), ()), (x2, y2))
    return ModuleStructure(
        "AA", U, None, gens, lidem, ridem, table, name=f"({m.name}(x){n.name})"
    )


# -- induced morphisms ----------------------------------------------------------


def induced(f: Morphism, other: ModuleStructure, side: str) -> Morphism:
    """f boxed with an identity: side names where `other` attaches."""
    if side == "right":
        src_box = box(f.src, other, validate=False).result
        dst_box = box(f.dst, other, validate=False).result
        kmax = f_max_right(f)
        if other.kind == "DA":
            chains = _da_chains(other, kmax)
        else:
            chains = _dd_chains(other, kmax)
        table: dict = {}

        def add(key, val):
            table.setdefault(key, set())
            table[key] ^= {val}

        if f.kind == "AA" and other.kind == "DA":
            for (argsL, x, bseq), outs in f.table.items():
                for y in other.gens:
                    if (x, y) not in src_box.genset:
                        continue
                    for (argsC, y2), par in chains.get((y, bseq), {}).items():
                        if not par:
                            continue
                        for x2 in outs:
                            add((argsL, (x, y), argsC), (x2, y2))
        elif f.kind == "AA" and other.kind == "DD":
            ralg = other.right_alg
            for (argsL, x, bseq), outs in f.table.items():
                for y in other.gens:
                    if (x, y) not in src_box.genset:
                        continue
                    for (cseq, y2), par in chains.get((y, bseq), {}).items():
                        if not par:
                            continue
                        for c in _collapse(ralg, cseq, other.ridem[y]):
                            for x2 in outs:
                                add((argsL, (x, y)), ((x2, y2), c))
        else:
            raise StructureError("unsupported induced-map combination")
        return Morphism(src_box, dst_box, table)
    if side == "left":
        # id_other (x) f with f a morphism of left type-D structures.
        if f.kind != "DA" or other.right_type != "A":
            raise StructureError("unsupported induced-map combination")
        src_box = box(other, f.src, validate=False).result
        dst_box = box(other, f.dst, validate=False).result
        kmax = other.max_right_len()
        chains_src = _da_chains(f.src, kmax)
        chains_dst = _da_chains(f.dst, kmax)
        table = {}

        def add2(key, val):
            table.setdefault(key, set())
            table[key] ^= {val}

        alg = other.right_alg
        # One f-firing amid structure firings of src then dst.
        for y0 in f.src.gens:
            for (y0b, bseq1), sm1 in chains_src.items():
                if y0b != y0:
                    continue
                for (args1, ymid), par1 in sm1.items():
                    if not par1:
                        continue
                    for (ymm, blkf), fouts in f.table.items():
                        if ymm != ymid:
                            continue
                        for bf, ymid2 in fouts:
                            for (y2b, bseq2), sm2 in chains_dst.items():
                                if y2b != ymid2:
                                    continue
                                for (args2, yend), par2 in sm2.items():
                                    if not par2:
                                        continue
                                    bmid = (
                                        ()
                                        if alg.is_idempotent_elem(bf)
                                        else (bf,)
                                    )
                                    if alg.is_idempotent_elem(bf) and (bseq1 or bseq2):
                                        continue
                                    full = bseq1 + bmid + bseq2
                                    for x in other.gens:
                                        if (x, y0) not in src_box.genset:
                                            continue
                                        if alg.is_idempotent_elem(bf) and not full:
                                            subset = alg.elems[bf].occupied
                                            if other.ridem[x] != subset:
                                                continue
                                            if other.kind == "AA":
                                                add2(
                                                    ((), (x, y0), args1 + blkf + args2),
                                                    (x, yend),
                                                )
                                            else:
                                                ia = other.left_alg.idempotent_index(
                                                    other.lidem[x]
                                                )
                                                add2(
                                                    ((x, y0), args1 + blkf + args2),
                                                    (ia, (x, yend)),
                                                )
                                            continue
                                        if other.kind == "AA":
                                            for (argsL, xx, bseq), outs in other.table.items():
                                                if xx != x or bseq != full:
                                                    continue
                                                for x2 in outs:
                                                    add2(
                                                        (argsL, (x, y0), args1 + blkf + args2),
                                                        (x2, yend),
                                                    )
                                        else:
                                            for (xx, bseq), outs in other.table.items():
                                                if xx != x or bseq != full:
                                                    continue
                                                for a, x2 in outs:
                                                    add2(
                                                        ((x, y0), args1 + blkf + args2),
                                                        (a, (x2, yend)),
                                                    )
        return Morphism(src_box, dst_box, table)
    raise ValueError("side must be 'left' or 'right'")

