"""The algebra's action on a module, on homology blocks, read off the join.

The join of caps with a left module N sends (u, p) (x) (q^, v) to
sum_x <q, x.p> (u, x^, v): the action is a gluing map, a special case of the
join (arXiv:1010.3496, the section on gluing), and the multiplication is the
case N = A.iota_K.  action_on_homology induces N's action on the homology
blocks and compares it exactly with the direct action.
"""

from __future__ import annotations

from .gf2 import ChainComplexGf2, Gf2Matrix, homology, vsum
from .strands import AlgebraModel, gamma_block
from .strands import homology_blocks  # noqa: F401  (re-exported)
from .ainf import ModuleStructure, StructureError, _add, dualize, validated
from .standard_models import once_per_algebra
from .join import join_columns


@once_per_algebra(key=lambda c: (c.basis, c.differential.nonzero))
def block_homology(am: AlgebraModel, c: ChainComplexGf2) -> tuple:
    """The homology representatives of a complex over am and their coordinate
    map, computed once per algebra for each basis and differential."""
    return homology(c)[1:]


@once_per_algebra
def caps(am: AlgebraModel) -> ModuleStructure:
    """The structureless left type-D module with one generator per subset:
    every cap at once."""
    gens = tuple(("e", "D", tuple(sorted(I))) for I in am.all_idempotent_subsets())
    lidem = {g: frozenset(g[2]) for g in gens}
    ridem = dict.fromkeys(gens, frozenset())
    return validated(ModuleStructure("DA", am, None, gens, lidem, ridem, {}, name="caps"))


def joined_action(N: ModuleStructure) -> dict:
    """N's action {(x, p): set of q}, unit terms included, read off the join
    of caps with N: the column ((u, p), (q, v)) of join_columns(U, N, V), V
    the caps and U their dual, holds (u, x, v) exactly when q occurs in x.p."""
    V = caps(N.left_alg)
    action: dict = {}
    for ((_, p), (q, _)), rows in join_columns(dualize(V), N, V).items():
        for _, x, _ in rows:
            _add(action, (x, p), q)
    return action


def module_block(N: ModuleStructure, I) -> ChainComplexGf2:
    """The summand iota_I . N of a left type-A module N."""
    I = frozenset(I)
    basis = tuple(p for p in N.gens if N.lidem[p] == I)
    images = {p: {q for _, q, _ in N.table.get(((), p, ()), ())} for p in basis}
    return ChainComplexGf2(basis, Gf2Matrix.from_columns(basis, basis, images))


def action_on_homology(N: ModuleStructure) -> dict:
    """(I, J) -> N's action H(iota_I.A.iota_J) (x) H(iota_J.N) -> H(iota_I.N),
    for each (I, J) with both domain blocks non-empty, read off
    joined_action(N) and verified against N's table and unit terms: both
    chain-level actions are induced on homology, and they must agree."""
    am = N.left_alg
    joined = joined_action(N)
    unit = {p: am.idempotent_index(N.lidem[p]) for p in N.gens}

    def direct(x, p) -> frozenset:
        out = frozenset(q for _, q, _ in N.table.get(((x,), p, ()), ()))
        return out ^ {p} if x == unit[p] else out

    def read_off(x, p) -> frozenset:
        return frozenset(joined.get((x, p), ()))

    subsets = list(am.all_idempotent_subsets())
    blocks = {I: module_block(N, I) for I in subsets}
    induced = {}
    for I in subsets:
        for J in subsets:
            if not blocks[J].dim or not (c := gamma_block(am, I, J)).dim:
                continue
            reps_a, _ = block_homology(am, c)
            reps_n, _ = block_homology(am, blocks[J])
            reps_out, coordinates = block_homology(am, blocks[I])
            cols = tuple((i, j) for i in range(len(reps_a)) for j in range(len(reps_n)))
            on_direct, on_joined = (
                {(("h", k), (i, j)) for i, j in cols
                 for k in coordinates(vsum(act(x, p) for x in reps_a[i] for p in reps_n[j]))}
                for act in (direct, read_off)
            )
            if on_direct != on_joined:
                raise StructureError("join-composite action disagrees with the direct action")
            rows = tuple(("h", k) for k in range(len(reps_out)))
            induced[(I, J)] = Gf2Matrix(rows, cols, on_direct)
    return induced
