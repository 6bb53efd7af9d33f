"""Box tensor products, the ground-ring tensor and its fold over disjoint
algebras.

The box product meets one factor's type-A side with the other's type-D side
over a common algebra, the type-D factor on either hand.  Its generators are
(x, y), the left factor's first, in the type-A factor's generator order.
Chains of the type-D factor's firings feed the type-A factor's operations,
the first firing's output in the innermost input slot; firings that emit
idempotents interact only through the unital one-input action.  A chain's
inputs and outputs on the type-D factor's far side accumulate as placed:
each firing's inputs outside the earlier ones, its output next to the
generator, inside theirs.

The ground-ring tensor of a left and a right structure is a bimodule; fold
reads a bimodule over (A, A) as a left module over A (x) A-opposite, which
tensor_algebra builds once per algebra on Z beside -Z.  Every tensor-algebra
module (the external tensor, the join's pair modules) is built from the two.
"""

from __future__ import annotations

from types import SimpleNamespace

from .arc_diagram import ArcDiagram
from .strands import ABasisElem, AlgebraModel, enumerate_basis
from .ainf import (
    ModuleStructure,
    StructureError,
    _add,
    _max_input_len,
    validated,
)
from .standard_models import once_per_algebra


def _hand(m: ModuleStructure, side: int) -> tuple:
    """m's type, algebra and generator idempotents on one side (0 = left, 2 = right)."""
    return (m.left_type, m.left_alg, m.lidem) if side == 0 else (m.right_type, m.right_alg, m.ridem)


def _d_chains(n: ModuleStructure, kmax: int, side: int) -> dict:
    """Chains of firings of n's type-D side (0 = left, 2 = right):
    (y0, bseq) -> {(argsC, cseq, y_end): parity}.

    bseq is the input tuple the non-idempotent emissions fill on the facing
    type-A side, len(bseq) <= kmax; argsC and cseq are the far side's inputs
    and outputs, as placed (see above).  All three list their entries as
    tuples on the type-D side's hand do: innermost first on the right, last
    on the left.
    """
    alg, far = _hand(n, side)[1], 2 - side

    def outside(inner: tuple, outer: tuple) -> tuple:
        return inner + outer if side == 0 else outer + inner

    firings: dict = {}
    for key, outs in n.table.items():
        firings.setdefault(key[1], []).append((key[far], outs))
    chains: dict = {(y, ()): {((), (), y): 1} for y in n.gens}
    frontier = {(y, ()): {((), (), y): 1} for y in n.gens}
    for _ in range(kmax):
        nxt: dict = {}
        for (y0, bseq), states in frontier.items():
            for (argsC, cseq, y), par in states.items():
                if not par:
                    continue
                for blk, outs in firings.get(y, ()):
                    for out in outs:
                        b, y2, c = out[side], out[1], out[far]
                        if alg.is_idempotent_elem(b):
                            continue
                        st = nxt.setdefault((y0, outside(bseq, (b,))), {})
                        skey = (outside(argsC, blk), cseq if c is None else outside((c,), cseq), y2)
                        st[skey] = st.get(skey, 0) ^ 1
        for key, states in nxt.items():
            tgt = chains.setdefault(key, {})
            for skey, par in states.items():
                tgt[skey] = tgt.get(skey, 0) ^ par
        frontier = nxt
    return chains


def _collapse(alg: AlgebraModel, cseq: tuple, empty_idem: frozenset) -> frozenset:
    """Multiply accumulated far-side outputs in the order placed."""
    if not cseq:
        return alg.idempotent(empty_idem)
    acc = frozenset({cseq[0]})
    for c in cseq[1:]:
        acc = alg.mul(acc, frozenset({c}))
    return acc


def box(m: ModuleStructure, n: ModuleStructure) -> ModuleStructure:
    """The box tensor product of m and n, a type-D factor on either hand.

    Like every product here but fold, the result is not validated.
    """
    if m.right_type == "A" and n.left_type == "D":
        a, d, side = m, n, 0
    elif m.right_type == "D" and n.left_type == "A":
        a, d, side = n, m, 2
    else:
        raise StructureError("a box meets a type-A side with a type-D side")
    if m.right_alg is not n.left_alg:
        raise StructureError("factors are over different algebras")
    # d's type-D side is `side`, and a faces it with its `far` side.  Pairs and
    # triples are written a's part first and reversed when d is on the left.
    alg, far, order = m.right_alg, 2 - side, 1 if side == 0 else -1
    a_idem, d_idem = _hand(a, far)[2], _hand(d, side)[2]
    a_far_type, a_far_alg, a_far_idem = _hand(a, side)
    d_far_type, d_far_alg, d_far_idem = _hand(d, far)
    # Generators pair up through matching idempotents; both indexes keep order.
    d_at: dict = {}
    for y in d.gens:
        d_at.setdefault(d_idem[y], []).append(y)
    a_at: dict = {}
    for x in a.gens:
        a_at.setdefault(a_idem[x], []).append(x)
    gens = tuple((x, y)[::order] for x in a.gens for y in d_at.get(a_idem[x], ()))
    table: dict = {}
    # a's stored entries consume chains of d's firings.
    chains = _d_chains(d, _max_input_len(a, far), side)
    for key, outs in a.table.items():
        x = key[1]
        for y in d_at.get(a_idem[x], ()):
            for (argsC, cseq, y2), par in chains.get((y, key[far]), {}).items():
                if not par:
                    continue
                k = (key[side], (x, y)[::order], argsC)[::order]
                cs = _collapse(d_far_alg, cseq, d_far_idem[y]) if d_far_type == "D" else (None,)
                for c in cs:
                    for out in outs:
                        _add(table, k, (out[side], (out[1], y2)[::order], c)[::order])
    # Unital interaction: a single idempotent emission acts as identity.
    for key, outs in d.table.items():
        y = key[1]
        for out in outs:
            b = out[side]
            if not alg.is_idempotent_elem(b) or d_idem[y] != alg.elems[b].occupied:
                continue
            for x in a_at.get(d_idem[y], ()):
                e = a_far_alg.idempotent_index(a_far_idem[x]) if a_far_type == "D" else None
                k = ((), (x, y)[::order], key[far])[::order]
                _add(table, k, (e, (x, out[1])[::order], out[far])[::order])
    return ModuleStructure(
        m.left_type + n.right_type,
        m.left_alg,
        n.right_alg,
        gens,
        {g: m.lidem[g[0]] for g in gens},
        {g: n.ridem[g[1]] for g in gens},
        table,
        name=f"({m.name}x{n.name})",
    )


# -- the ground-ring tensor and its fold over disjoint algebras -----------------


def ground_tensor(m: ModuleStructure, n: ModuleStructure) -> ModuleStructure:
    """m (x) n over the ground ring, for a left structure m and a right structure n.

    Generators are (x, y).  Each factor's entries act on its own side, one
    side at a time; the other side takes no inputs and, if it is type D,
    emits the idempotent of its factor's generator.  Not validated: fold
    validates what it folds, and pair_bimodule validates its own result.
    """
    if m.right_alg is not None or n.left_alg is not None:
        raise StructureError("ground tensor takes a left structure, then a right structure")
    A, B = m.left_alg, n.right_alg
    kind = m.left_type + n.right_type
    gens = tuple((x, y) for x in m.gens for y in n.gens)
    table: dict = {}
    for (argsL, x, _), outs in m.table.items():
        for y in n.gens:
            b = B.idempotent_index(n.ridem[y]) if kind[1] == "D" else None
            for a, x2, _ in outs:
                _add(table, (argsL, (x, y), ()), (a, (x2, y), b))
    for (_, y, argsR), outs in n.table.items():
        for x in m.gens:
            a = A.idempotent_index(m.lidem[x]) if kind[0] == "D" else None
            for _, y2, b in outs:
                _add(table, ((), (x, y), argsR), (a, (x, y2), b))
    return ModuleStructure(
        kind,
        A,
        B,
        gens,
        {(x, y): m.lidem[x] for (x, y) in gens},
        {(x, y): n.ridem[y] for (x, y) in gens},
        table,
        name=f"({m.name}(x){n.name})",
    )


@once_per_algebra
def tensor_algebra(am: AlgebraModel) -> SimpleNamespace:
    """A (x) A-opposite as the algebra `union` of Z beside -Z, Z's points
    tagged "L" and -Z's "R", -Z's pairs numbered after Z's k pairs.

    pair_index[(a, b)] is the union element a (x) b, and split its inverse.
    A strand s -> t on -Z is the element of A with the strand t -> s, so
    (a (x) b)(a' (x) b') = aa' (x) b'b.
    """
    z = am.arc_diagram
    arcs = tuple(tuple(("L", p) for p in arc) for arc in z.arcs)
    arcs += tuple(tuple(("R", p) for p in reversed(arc)) for arc in z.arcs)
    matching = {("L", p): i for p, i in z.matching}
    matching.update({("R", p): i + am.k for p, i in z.matching})
    union = enumerate_basis(ArcDiagram(arcs, matching, z.kind))
    pair_index: dict = {}
    split: dict = {}
    for u, e in enumerate(union.elems):
        a = am.index[ABasisElem(
            ((s[1], t[1]) for s, t in e.movers if s[0] == "L"),
            (j for j in e.occupied if j <= am.k),
        )]
        b = am.index[ABasisElem(
            ((t[1], s[1]) for s, t in e.movers if s[0] == "R"),
            (j - am.k for j in e.occupied if j > am.k),
        )]
        pair_index[(a, b)] = u
        split[u] = (a, b)
    return SimpleNamespace(union=union, pair_index=pair_index, split=split)


def fold(w: ModuleStructure) -> ModuleStructure:
    """A bimodule over (A, A) read as a left module over tensor_algebra(A).

    A DD bimodule becomes a left type-D module emitting pair_index[(a, b)]
    for each output pair (a, b).  A DG-type AA bimodule becomes a left type-A
    module with the same differential, on which pair_index[(a, b)] acts as
    a . - . b, read off w's one-input entries with no union element listed.
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
        # Each generator's one-input actions as (input, output), its unit first.
        left = {g: [(A.idempotent_index(w.lidem[g]), g)] for g in w.gens}
        right = {g: [(A.idempotent_index(w.ridem[g]), g)] for g in w.gens}
        for (argsL, g, argsR), outs in w.table.items():
            if argsL or argsR:
                acts = left[g] if argsL else right[g]
                acts += [((argsL or argsR)[0], y) for _, y, _ in outs]
        # (a (x) b) . g = a . (g . b), but for the unit acting on both sides.
        for g in w.gens:
            for b, y in right[g]:
                for a, z in left[y]:
                    if not (A.is_idempotent_elem(a) and A.is_idempotent_elem(b)):
                        _add(table, ((ta.pair_index[(a, b)],), g, ()), (None, z, None))
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


def external_tensor(m: ModuleStructure, n: ModuleStructure) -> ModuleStructure:
    """The DG-type module M (x) N over A (x) A-opposite, for a left module m
    and a right module n over A, with the combined one-input action."""
    return fold(ground_tensor(m, n))
