"""Tensor constructions the tests use, and hand-rolled references for the
library's.

`cone_induced(f, other, side)` is f boxed with the identity of `other` on
either hand: the box of f's mapping cone (src and dst side by side, f joining
them) with the other factor, keeping the entries from src to dst, so it meets
whatever `box` meets.  `induced` builds the same map directly, for the
combinations it supports: on the right, f's entries consume chains of the
other factor's firings; on the left, chains of src's firings, one f firing
and chains of dst's firings are interleaved by hand, with a lone idempotent f
firing acting as the identity.

The library's `box` takes a type-D factor on either hand.  `dbox` is the
original left-hand builder: the A-side-first box of the two opposites,
turned back and relabelled.

The library's external tensor is the fold of the ground-ring tensor; the
`external_tensor` here is the original builder, which walks the union
algebra's basis and reads both factors' tables directly, in the AA layout of
`ainf_oracle.kind_layout`.

`TensorAlgebra(am1, am2)` is the original two-factor pairing: the algebra of
the disjoint union of any two diagrams, with its elements split into an
element of each factor's algebra.  The library's `tensor.tensor_algebra(am)`
is the case am2 = A(-Z), read back onto A through `rotate180`.

`fold` is the library's fold as first written: its AA branch runs every
union-algebra element against every generator, an idempotent factor acting
as the unit.  The library reads each generator's own one-input entries.

`assert_same_structure` is the label-for-label comparison the differential
tests use for every such pair of builders.
"""

from __future__ import annotations

from ainf_oracle import from_kind_layout, kind_layout
from strandjoin.ainf import (
    ModuleStructure,
    Morphism,
    StructureError,
    _add,
    _max_input_len,
    oppositize,
    relabel,
    validated,
)
from strandjoin.arc_diagram import ArcDiagram
from strandjoin.strands import ABasisElem, AlgebraModel, enumerate_basis, rotate180
from strandjoin.tensor import _collapse, _d_chains, box, tensor_algebra


def _box_table(f, n: ModuleStructure, genset: set) -> dict:
    """The terms of f box n (f a structure or a morphism) in which f's stored
    entries consume chains of n's firings."""
    ralg = n.right_alg if n.right_type == "D" else None
    table: dict = {}
    chains = _d_chains(n, _max_input_len(f, 2), 0)
    for (argsL, x, bseq), outs in f.table.items():
        for y in n.gens:
            if (x, y) not in genset:
                continue
            for (argsC, cseq, y2), par in chains.get((y, bseq), {}).items():
                if not par:
                    continue
                key = (argsL, (x, y), argsC)
                for c in (None,) if ralg is None else _collapse(ralg, cseq, n.ridem[y]):
                    for a, x2, _ in outs:
                        _add(table, key, (a, (x2, y2), c))
    return table


def _cone(f: Morphism) -> ModuleStructure:
    """The mapping cone of f: generators ("s", g) for src, ("t", g) for dst.

    Its table holds src's entries, dst's entries and f's from s to t.  It is
    not validated: its structure equation is df = 0.
    """
    parts = (("s", f.src), ("t", f.dst))
    gens = [(tag, g) for tag, m in parts for g in m.gens]
    lidem = {(tag, g): m.lidem[g] for tag, m in parts for g in m.gens}
    ridem = {(tag, g): m.ridem[g] for tag, m in parts for g in m.gens}
    table: dict = {}
    for m, tag_in, tag_out in ((f.src, "s", "s"), (f.dst, "t", "t"), (f, "s", "t")):
        for (argsL, g, argsR), outs in m.table.items():
            key = (argsL, (tag_in, g), argsR)
            for a, y, b in outs:
                _add(table, key, (a, (tag_out, y), b))
    return ModuleStructure(f.src.kind, f.src.left_alg, f.src.right_alg, gens, lidem, ridem, table)


def cone_induced(f: Morphism, other: ModuleStructure, side: str) -> Morphism:
    """f boxed with the identity of `other`, attached on `side` ("left" or "right").

    The box of f's mapping cone with `other`, restricted to the entries from
    src's generators to dst's: every chain from src to dst crosses exactly
    one firing of f, and box's unital term covers a lone idempotent one.
    """
    if side == "right":
        boxed, slot = (lambda m: box(m, other)), 0
    elif side == "left":
        boxed, slot = (lambda m: box(other, m)), 1
    else:
        raise ValueError("side must be 'left' or 'right'")

    def untag(g):
        return (g[0][1], g[1]) if slot == 0 else (g[0], g[1][1])

    table: dict = {}
    for (argsL, g, argsR), outs in boxed(_cone(f)).table.items():
        if g[slot][0] != "s":
            continue
        key = (argsL, untag(g), argsR)
        for a, y, b in outs:
            if y[slot][0] == "t":
                _add(table, key, (a, untag(y), b))
    return Morphism(boxed(f.src), boxed(f.dst), table)


def induced(f: Morphism, other: ModuleStructure, side: str) -> Morphism:
    """f boxed with an identity, built directly: side names where `other` attaches."""
    if side == "right":
        if f.src.kind != "AA":
            raise StructureError("unsupported induced-map combination")
        src_box = box(f.src, other)
        dst_box = box(f.dst, other)
        return Morphism(src_box, dst_box, _box_table(f, other, src_box.genset))
    if side == "left":
        # id_other (x) f with f a morphism of left type-D structures.
        if f.src.kind != "DA" or other.right_type != "A":
            raise StructureError("unsupported induced-map combination")
        src_box = box(other, f.src)
        dst_box = box(other, f.dst)
        alg = other.right_alg
        kmax = _max_input_len(other, 2)
        chains_src = _d_chains(f.src, kmax, 0)
        chains_dst = _d_chains(f.dst, kmax, 0)
        by_start: dict = {}
        for (y0, bseq), states in chains_dst.items():
            by_start.setdefault(y0, []).append((bseq, states))
        f_firings: dict = {}
        for (_, y, blkf), fouts in f.table.items():
            f_firings.setdefault(y, []).append((blkf, fouts))
        other_by: dict = {}
        for (argsL, x, bseq), outs in other.table.items():
            other_by.setdefault((x, bseq), []).append((argsL, outs))
        table: dict = {}
        # One f-firing amid structure firings of src then dst.
        for (y0, bseq1), sm1 in chains_src.items():
            for (args1, _, ymid), par1 in sm1.items():
                if not par1:
                    continue
                for blkf, fouts in f_firings.get(ymid, ()):
                    for bf, ymid2, _ in fouts:
                        unital = alg.is_idempotent_elem(bf)
                        if unital and bseq1:
                            continue
                        for bseq2, sm2 in by_start.get(ymid2, ()):
                            if unital and bseq2:
                                continue
                            full = bseq1 + (() if unital else (bf,)) + bseq2
                            for (args2, _, yend), par2 in sm2.items():
                                if not par2:
                                    continue
                                args = args1 + blkf + args2
                                for x in other.gens:
                                    if (x, y0) not in src_box.genset:
                                        continue
                                    if unital:
                                        # full is empty: bf acts as the identity.
                                        if other.ridem[x] != alg.elems[bf].occupied:
                                            continue
                                        a = (
                                            other.left_alg.idempotent_index(other.lidem[x])
                                            if other.left_type == "D"
                                            else None
                                        )
                                        terms = [((), [(a, x, None)])]
                                    else:
                                        terms = other_by.get((x, full), ())
                                    for argsL, outs in terms:
                                        for a, x2, _ in outs:
                                            _add(
                                                table,
                                                (argsL, (x, y0), args),
                                                (a, (x2, yend), None),
                                            )
        return Morphism(src_box, dst_box, table)
    raise ValueError("side must be 'left' or 'right'")


def dbox(d: ModuleStructure, a: ModuleStructure) -> ModuleStructure:
    """The box product d box a of a right type-D side with a left type-A side,
    as the opposite of the A-side-first box of the opposites, over the
    opposite algebra; generators are (y, x) with y from d and x from a."""
    flipped = oppositize(box(oppositize(a), oppositize(d)))
    return relabel(flipped, lambda g: (g[1], g[0]))


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


def assert_same_structure(got: ModuleStructure, ref: ModuleStructure) -> None:
    """Equal kind, algebras (by identity), generator order, idempotents and table."""
    assert got.kind == ref.kind
    assert got.left_alg is ref.left_alg and got.right_alg is ref.right_alg
    assert got.gens == ref.gens
    assert got.lidem == ref.lidem and got.ridem == ref.ridem
    assert got.table == ref.table


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
    mtable, ntable = kind_layout(m), kind_layout(n)
    # Differential: Leibniz.
    for (argsL, x, _), outs in mtable.items():
        if argsL:
            continue
        for y in n.gens:
            for x2 in outs:
                _add(table, ((), (x, y), ()), (x2, y))
    for (_, y, argsR), outs in ntable.items():
        if argsR:
            continue
        for x in m.gens:
            for y2 in outs:
                _add(table, ((), (x, y), ()), (x, y2))
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
                else mtable.get(((e1,), x, ()), frozenset())
                if not a_idem
                else frozenset()
            )
            if not xs:
                continue
            for y in n.gens:
                ys = (
                    frozenset([y])
                    if b_idem and B.elems[b_orig].occupied == n.ridem[y]
                    else ntable.get(((), y, (b_orig,)), frozenset())
                    if not b_idem
                    else frozenset()
                )
                if not ys:
                    continue
                for x2 in xs:
                    for y2 in ys:
                        _add(table, ((u,), (x, y), ()), (x2, y2))
    return validated(ModuleStructure(
        "AA", U, None, gens, lidem, ridem, from_kind_layout("AA", table),
        name=f"({m.name}(x){n.name})",
    ))


def fold(w: ModuleStructure) -> ModuleStructure:
    """A bimodule over (A, A) read as a left module over tensor_algebra(A).

    A DD bimodule becomes a left type-D module emitting pair_index[(a, b)]
    for each output pair (a, b).  A DG-type AA bimodule becomes a left type-A
    module with the same differential, on which pair_index[(a, b)] acts as
    a . - . b.
    """
    A = w.left_alg
    if w.kind not in ("AA", "DD") or not w.is_dg_type() or A is None or w.right_alg is not A:
        raise StructureError("only a DD or a DG-type AA bimodule over one algebra folds")
    ta = tensor_algebra(A)
    kind = w.left_type + "A"
    table: dict = {}
    # The differential; a DD output pair (a, b) is emitted as one union element.
    for (argsL, g, argsR), outs in w.table.items():
        if argsL or argsR:
            continue
        for a, y, b in outs:
            u = None if a is None else ta.pair_index[(a, b)]
            _add(table, ((), g, ()), (u, y, None))
    if kind == "AA":

        def act(e, idem, key):
            """The generators at key, whose one input is e; an idempotent e acts as the unit."""
            if A.is_idempotent_elem(e):
                return (key[1],) if A.elems[e].occupied == idem[key[1]] else ()
            return [y for _, y, _ in w.table.get(key, ())]

        for u, (a, b) in ta.split.items():
            if A.is_idempotent_elem(a) and A.is_idempotent_elem(b):
                continue
            for g in w.gens:
                for y in act(b, w.ridem, ((), g, (b,))):
                    for z in act(a, w.lidem, ((a,), y, ())):
                        _add(table, ((u,), g, ()), (None, z, None))
    return validated(ModuleStructure(
        kind,
        ta.union,
        None,
        w.gens,
        {g: w.lidem[g] | frozenset(j + A.k for j in w.ridem[g]) for g in w.gens},
        {g: frozenset() for g in w.gens},
        table,
        name=w.name,
    ))
