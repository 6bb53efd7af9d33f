"""Hand-rolled references for the algebra modules and the cancellation source.

The library builds the algebra as a module over itself (`alg_as_aa`,
`left_module_from_right_idem`) from the nonzero
entries of the product table, and the cancellation source
I box A-dual box I box A (`join.dd_sandwich_da_bimodule`) as iterated box
products with `tensor.box`, whose type-D factor stands on either hand.  This
oracle keeps the builders they replaced: the two module builders probe
every (element, generator) pair of the product table, and
`dd_sandwich_da_bimodule` writes the carrier and the firings of the two
identity bimodules out by hand, finding the dual-slot terms by scanning the
whole algebra for inverse images.  None of
them is validated here; the differential tests compare their output with the
library's.  Each writes its table in its kind's own layout and converts it with
`ainf_oracle.from_kind_layout`.
"""

from __future__ import annotations

from ainf_oracle import from_kind_layout
from strandjoin.ainf import ModuleStructure, _add
from strandjoin.standard_models import identity_firings
from strandjoin.strands import AlgebraModel


def alg_as_aa(am: AlgebraModel) -> ModuleStructure:
    """The algebra as a DG-type bimodule over itself."""
    gens = tuple(range(am.dim))
    lidem = {g: am.left_idem[g] for g in gens}
    ridem = {g: am.right_idem[g] for g in gens}
    table: dict = {}
    for g in gens:
        if am.diff_table[g]:
            table[((), g, ())] = set(am.diff_table[g])
    for a in range(am.dim):
        if am.is_idempotent_elem(a):
            continue
        for g in gens:
            out = am.mult_table.get((a, g), frozenset())
            if out:
                table[((a,), g, ())] = set(out)
            out = am.mult_table.get((g, a), frozenset())
            if out:
                table[((), g, (a,))] = set(out)
    return ModuleStructure(
        "AA", am, am, gens, lidem, ridem, from_kind_layout("AA", table), name="A"
    )


def left_module_from_right_idem(am: AlgebraModel, I) -> ModuleStructure:
    """The left module A.iota_I: basis elements with right idempotent I, left action."""
    I = frozenset(I)
    gens = tuple(g for g in range(am.dim) if am.right_idem[g] == I)
    lidem = {g: am.left_idem[g] for g in gens}
    ridem = {g: frozenset() for g in gens}
    table: dict = {}
    genset = set(gens)
    for g in gens:
        if am.diff_table[g]:
            table[((), g, ())] = set(am.diff_table[g]) & genset
    for a in range(am.dim):
        if am.is_idempotent_elem(a):
            continue
        for g in gens:
            out = am.mult_table.get((a, g), frozenset())
            if out:
                table[((a,), g, ())] = set(out) & genset
    return ModuleStructure(
        "AA", am, None, gens, lidem, ridem, from_kind_layout("AA", table),
        name=f"A.i{sorted(I)}",
    )


def dd_sandwich_da_bimodule(am: AlgebraModel) -> ModuleStructure:
    """identity (x) dual algebra (x) identity (x) algebra, as a DA bimodule.

    Carrier: (I, dual algebra element, K, algebra element) with the dual slot
    framed by the two identity bimodules and the algebra slot consuming
    external right inputs.
    """
    firings = identity_firings(am)
    full = frozenset(range(1, am.k + 1))
    gens = []
    for I in am.all_idempotent_subsets():
        Ic = full - I
        for a in range(am.dim):
            # a^ has left idem = ridem(a), right idem = lidem(a).
            if am.right_idem[a] != Ic:
                continue
            K = am.left_idem[a]
            for b in range(am.dim):
                if am.left_idem[b] != full - K:
                    continue
                gens.append((tuple(sorted(I)), a, tuple(sorted(K)), b))
    gens = tuple(gens)
    lidem = {g: frozenset(g[0]) for g in gens}
    ridem = {g: am.right_idem[g[3]] for g in gens}
    table: dict = {}

    nonidem = [e for e in range(am.dim) if not am.is_idempotent_elem(e)]
    for g in gens:
        I, a, K, b = frozenset(g[0]), g[1], frozenset(g[2]), g[3]
        iI = am.idempotent_index(I)
        # differentials of the dual slot and the algebra slot
        for a2 in range(am.dim):
            if a in am.diff_table[a2] and am.right_idem[a2] == full - I and am.left_idem[a2] == K:
                _add(table, (g, ()), (iI, (g[0], a2, g[2], b)))
        for db in am.diff_table[b]:
            _add(table, (g, ()), (iI, (g[0], a, g[2], db)))
        # first identity fires: emits c, acts on the dual slot through x.ct
        for c, J, ct in firings[I]:
            for a2 in range(am.dim):
                if a in am.mult_table[(a2, ct)] and am.right_idem[a2] == full - J:
                    _add(table, (g, ()), (c, (tuple(sorted(J)), a2, g[2], b)))
        # second identity fires: left chord into the dual slot, complement into b
        for c, K2, ct in firings[K]:
            for a2 in range(am.dim):
                if a in am.mult_table[(c, a2)]:
                    for b2 in am.mult_table[(ct, b)]:
                        _add(table, (g, ()), (iI, (g[0], a2, tuple(sorted(K2)), b2)))
        # external right input
        for e in nonidem:
            for b2 in am.mult_table[(b, e)]:
                _add(table, (g, (e,)), (iI, (g[0], a, g[2], b2)))
    return ModuleStructure(
        "DA", am, am, gens, lidem, ridem, from_kind_layout("DA", table),
        name="IA^IA",
    )
