"""The concrete named modules: elementary modules, the algebra as a bimodule
over itself, its dual, and the DA/DD identity bimodules.

The DD identity is the chord-sum construction: its structure map sends the
generator indexed by a subset I to the sum over one-mover basis elements c
with left idempotent I of c (x) *_{J(c)} (x) rotate180(c), the last factor
living in the algebra of the reversed diagram.  The construction is gated
behind two machine validations: the DD structure equation and the vanishing
of the differential of the cancellation morphism (see the join module);
together they pin down the idempotent conventions.

Every builder here validates what it returns except `dual_alg_as_aa`, and
each model is built once per algebra model and argument (`once_per_algebra`).
"""

from __future__ import annotations

import functools

from .strands import ABasisElem, AlgebraModel
from .strands import gamma_block  # noqa: F401  (re-exported)
from .ainf import ModuleStructure, StructureError, dualize, validated


def once_per_algebra(build=None, *, key=lambda: ()):
    """Keep build(am, *args) in am.models under build's name and key(*args),
    which normalizes the arguments (a subset to a frozenset, defaults filled
    in).  Callers share what it returns and must not change it.  A build
    that raises StructureError is kept too, and each later call raises it
    again, so a model that fails validation is built and validated once."""
    if build is None:
        return functools.partial(once_per_algebra, key=key)

    @functools.wraps(build)
    def once(am: AlgebraModel, *args, **kwargs):
        memo = (build.__name__, *key(*args, **kwargs))
        if memo not in am.models:
            try:
                am.models[memo] = build(am, *args, **kwargs)
            except StructureError as err:
                am.models[memo] = err
        kept = am.models[memo]
        if isinstance(kept, StructureError):
            raise kept
        return kept

    return once


@once_per_algebra(key=lambda I, side, hand="left": (frozenset(I), side, hand))
def elementary(am: AlgebraModel, I, side: str, hand: str = "left") -> ModuleStructure:
    """The one-generator left module for the cap with elementary dividing set I.

    The type-D module carries the idempotent of I itself, the type-A module
    that of the complement; all structure maps vanish.  `hand="right"` gives
    its mirror image, the right module dualize(elementary(am, I, side)) under
    the same name; perfbench/child.py builds its U that way.
    """
    if side not in ("A", "D"):
        raise ValueError("side must be 'A' or 'D'")
    if hand == "right":
        m = elementary(am, I, side)
        return dualize(m, name=m.name)
    I = frozenset(I)
    subset = frozenset(range(1, am.k + 1)) - I if side == "A" else I
    gen = ("e", side, tuple(sorted(subset)))
    return validated(ModuleStructure(
        "AA" if side == "A" else "DA", am, None, (gen,), {gen: subset}, {gen: frozenset()}, {},
        name=f"elem{side}({sorted(I)})",
    ))


def algebra_module(am: AlgebraModel, gens, right: bool, name: str) -> ModuleStructure:
    """The basis elements `gens` of the algebra as a DG-type module over it.

    The differential is the algebra's; the product acts from the left, and
    from the right too when `right` is set (the right side otherwise has no
    algebra).  `gens` must be closed under d and under the actions kept, so
    each nonzero product table entry is one action entry.
    """
    genset = set(gens)
    shared: dict = {}  # one output set per distinct product or differential

    def outs(elems):
        out = shared.get(elems)
        if out is None:
            out = shared[elems] = frozenset((None, y, None) for y in elems)
        return out

    table = {((), g, ()): outs(am.diff_table[g]) for g in gens if am.diff_table[g]}
    for (a, b), out in am.mult_table.items():
        if b in genset and not am.is_idempotent_elem(a):
            table[((a,), b, ())] = outs(out)
        if right and a in genset and not am.is_idempotent_elem(b):
            table[((), a, (b,))] = outs(out)
    lidem = {g: am.left_idem[g] for g in gens}
    ridem = {g: am.right_idem[g] if right else frozenset() for g in gens}
    return validated(ModuleStructure(
        "AA", am, am if right else None, gens, lidem, ridem, table, name=name
    ))


@once_per_algebra(key=lambda I: (frozenset(I),))
def left_module_from_right_idem(am: AlgebraModel, I) -> ModuleStructure:
    """The left module A.iota_I: basis elements with right idempotent I, left action."""
    I = frozenset(I)
    gens = tuple(g for g in range(am.dim) if am.right_idem[g] == I)
    return algebra_module(am, gens, False, f"A.i{sorted(I)}")


@once_per_algebra
def alg_as_aa(am: AlgebraModel) -> ModuleStructure:
    """The algebra as a DG-type bimodule over itself (the negative twisting slice)."""
    return algebra_module(am, range(am.dim), True, "A")


@once_per_algebra
def dual_alg_as_aa(am: AlgebraModel) -> ModuleStructure:
    """The dual bimodule (the positive twisting slice): the dual of the
    validated A, checked by `check structures` but not here."""
    return dualize(alg_as_aa(am), name="A^")


@once_per_algebra
def da_identity(am: AlgebraModel) -> ModuleStructure:
    """The DA identity bimodule: generators are the ground-ring idempotents."""
    gens = tuple(("i", tuple(sorted(s))) for s in am.all_idempotent_subsets())
    subset_of = {g: frozenset(g[1]) for g in gens}
    lidem = {g: subset_of[g] for g in gens}
    ridem = {g: subset_of[g] for g in gens}
    by_subset = {frozenset(g[1]): g for g in gens}
    table: dict = {}
    for b in range(am.dim):
        if am.is_idempotent_elem(b):
            continue
        g = by_subset[am.left_idem[b]]
        tgt = by_subset[am.right_idem[b]]
        table.setdefault(((), g, (b,)), set()).add((b, tgt, None))
    return validated(ModuleStructure("DA", am, am, gens, lidem, ridem, table, name="IdDA"))


def identity_firings(am: AlgebraModel) -> dict:
    """subset I -> list of (left chord, new subset J, right chord).

    The firing data of the identity DD bimodule: movers s -> t with source
    pair inside I and target pair outside; the left output is completed by
    I minus the source pair, the right output by the complement minus the
    target pair.
    """
    full = frozenset(range(1, am.k + 1))
    pair_of = am.arc_diagram.match
    movers = sorted({e.movers[0] for e in am.elems if len(e.movers) == 1})
    out: dict = {}
    for I in am.all_idempotent_subsets():
        firings = []
        for s, t in movers:
            ps, pt = pair_of[s], pair_of[t]
            if ps not in I or pt in I:
                continue
            left = am.index[ABasisElem(((s, t),), I - {ps})]
            right = am.index[ABasisElem(((s, t),), (full - I) - {pt})]
            firings.append((left, (I - {ps}) | {pt}, right))
        out[I] = firings
    return out


@once_per_algebra
def dd_identity(am: AlgebraModel) -> ModuleStructure:
    """The DD identity bimodule, via the validated chord-sum formula.

    Generators x_I carry complementary idempotents (I on the left, its
    complement on the right).  The structure map of x_I sums the firings of
    identity_firings(am)[I].  Right outputs mathematically live in the
    reversed diagram's algebra and are stored as their rotate180 preimages,
    so both slots are elements of the algebra itself.
    """
    full = frozenset(range(1, am.k + 1))
    gens = tuple(("x", tuple(sorted(s))) for s in am.all_idempotent_subsets())
    subset_of = {g: frozenset(g[1]) for g in gens}
    by_subset = {frozenset(g[1]): g for g in gens}
    lidem = {g: subset_of[g] for g in gens}
    ridem = {g: full - subset_of[g] for g in gens}
    table = {
        ((), by_subset[I], ()): {(left, by_subset[J], right) for left, J, right in firings}
        for I, firings in identity_firings(am).items()
    }
    return validated(ModuleStructure("DD", am, am, gens, lidem, ridem, table, name="IdDD"))

