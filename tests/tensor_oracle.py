"""The hand-rolled induced map: the reference for `tensor.induced`.

The library boxes the mapping cone of f (src and dst side by side, f joining
them) with the other factor and keeps the entries from src to dst.  The
functions here build f boxed with an identity directly: on the right, f's
entries consume chains of the other factor's firings; on the left, chains
of src's firings, one f firing and chains of dst's firings are interleaved
by hand, with a lone idempotent f firing acting as the identity.
"""

from __future__ import annotations

from strandjoin.ainf import (
    ModuleStructure,
    Morphism,
    StructureError,
    _add,
    _entries,
    _from_aa_key,
    _from_out,
    _max_input_len,
)
from strandjoin.tensor import _collapse, _d_chains, box


def _box_table(f, n: ModuleStructure, kind: str, genset: set) -> dict:
    """The terms of f box n (f a structure or a morphism) in which f's stored
    entries consume chains of n's firings; the result has the given kind."""
    ralg = n.right_alg if n.right_type == "D" else None
    table: dict = {}
    chains = _d_chains(n, _max_input_len(f, 2))
    for (argsL, x, bseq), outs in _entries(f):
        for y in n.gens:
            if (x, y) not in genset:
                continue
            for (argsC, cseq, y2), par in chains.get((y, bseq), {}).items():
                if not par:
                    continue
                key = _from_aa_key(kind, argsL, (x, y), argsC)
                for c in (None,) if ralg is None else _collapse(ralg, cseq, n.ridem[y]):
                    for a, x2, _ in outs:
                        _add(table, key, _from_out(kind, a, (x2, y2), c))
    return table


def induced(f: Morphism, other: ModuleStructure, side: str) -> Morphism:
    """f boxed with an identity: side names where `other` attaches."""
    if side == "right":
        if f.kind != "AA":
            raise StructureError("unsupported induced-map combination")
        src_box = box(f.src, other, validate=False).result
        dst_box = box(f.dst, other, validate=False).result
        return Morphism(src_box, dst_box, _box_table(f, other, src_box.kind, src_box.genset))
    if side == "left":
        # id_other (x) f with f a morphism of left type-D structures.
        if f.kind != "DA" or other.right_type != "A":
            raise StructureError("unsupported induced-map combination")
        src_box = box(other, f.src, validate=False).result
        dst_box = box(other, f.dst, validate=False).result
        kind = src_box.kind
        alg = other.right_alg
        kmax = other.max_right_len()
        chains_src = _d_chains(f.src, kmax)
        chains_dst = _d_chains(f.dst, kmax)
        by_start: dict = {}
        for (y0, bseq), states in chains_dst.items():
            by_start.setdefault(y0, []).append((bseq, states))
        f_firings: dict = {}
        for (_, y, blkf), fouts in _entries(f):
            f_firings.setdefault(y, []).append((blkf, fouts))
        other_by: dict = {}
        for (argsL, x, bseq), outs in _entries(other):
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
                                                _from_aa_key(kind, argsL, (x, y0), args),
                                                _from_out(kind, a, (x2, yend), None),
                                            )
        return Morphism(src_box, dst_box, table)
    raise ValueError("side must be 'left' or 'right'")
