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


def _verified_on_homology(am, c1, c2, c3, direct, joined, error: str) -> Gf2Matrix:
    """Induce two chain-level bilinear maps C1 (x) C2 -> C3 on homology and
    return the first, or raise StructureError(error) where they differ."""
    reps1, _ = block_homology(am, c1)
    reps2, _ = block_homology(am, c2)
    reps3, coordinates = block_homology(am, c3)
    induced = []
    for image_of_pair in (direct, joined):
        nz = set()
        for i, r1 in enumerate(reps1):
            for j, r2 in enumerate(reps2):
                img = vsum(image_of_pair(x, y) for x in r1 for y in r2)
                nz.update((("h", k), (i, j)) for k in coordinates(img))
        induced.append(nz)
    if induced[0] != induced[1]:
        raise StructureError(error)
    rows = tuple(("h", i) for i in range(len(reps3)))
    cols = tuple((i, j) for i in range(len(reps1)) for j in range(len(reps2)))
    return Gf2Matrix(rows, cols, induced[0])


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
    joined_action(N) and verified against N's table and unit terms."""
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
            if blocks[J].dim and (c := gamma_block(am, I, J)).dim:
                induced[(I, J)] = _verified_on_homology(
                    am, c, blocks[J], blocks[I], direct, read_off,
                    "join-composite action disagrees with the direct action",
                )
    return induced
