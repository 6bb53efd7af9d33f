"""The algebra's multiplication and module action on homology blocks, read off the join.

The join of caps with A.iota_K sends (u, a) (x) (q^, v) to sum_x <q, x.a>
(u, x^, v): multiplication is a gluing map, a special case of the join
(arXiv:1010.3496, the section on gluing), so the joins over all K hold the
whole product.  m_H and mu_H induce it on the homology blocks of the algebra
and compare it exactly with the direct action and multiplication.
"""

from __future__ import annotations

from .gf2 import ChainComplexGf2, Gf2Matrix, homology, homology_coordinates, vsum
from .strands import AlgebraModel, ProductTable, gamma_block
from .strands import homology_blocks  # noqa: F401  (re-exported)
from .ainf import ModuleStructure, StructureError, dualize, validated
from .standard_models import algebra_module, left_module_from_right_idem, once_per_algebra
from .join import join_columns


@once_per_algebra(key=lambda c: (c.basis, c.differential.nonzero))
def block_homology(am: AlgebraModel, c: ChainComplexGf2) -> tuple:
    """The homology representatives of a complex over am and their coordinate
    map, computed once per algebra for each basis and differential."""
    _, reps = homology(c)
    return reps, homology_coordinates(c, reps)


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
def joined_products(am: AlgebraModel) -> ProductTable:
    """The nonzero products x.a of basis elements, read off the joins of caps.

    V is the structureless left type-D module with one generator per subset,
    every cap at once, and U its dual.  The column ((u, a), (q, v)) of
    join_columns(U, A.iota_K, V) holds (u, x, v) exactly when q occurs in
    x.a, so the joins over all K give every product.
    """
    gens = tuple(("e", "D", tuple(sorted(I))) for I in am.all_idempotent_subsets())
    lidem = {g: frozenset(g[2]) for g in gens}
    ridem = dict.fromkeys(gens, frozenset())
    V = validated(ModuleStructure("DA", am, None, gens, lidem, ridem, {}, name="caps"))
    U = dualize(V)
    table = ProductTable()
    for K in am.all_idempotent_subsets():
        columns = join_columns(U, left_module_from_right_idem(am, K), V)
        for ((_, a), (q, _)), rows in columns.items():
            for _, x, _ in rows:
                table[(x, a)] ^= {q}
    return table


def _targets(u: ModuleStructure, key) -> frozenset:
    """The generators y of the outputs (a, y, b) of u's table at key."""
    return frozenset(y for _, y, _ in u.table.get(key, ()))


def right_module_block(u: ModuleStructure, I) -> ChainComplexGf2:
    """The summand of a right type-A module with right idempotent I."""
    if u.kind != "AA" or u.right_alg is None:
        raise StructureError("expected a module with a right action")
    I = frozenset(I)
    basis = tuple(g for g in u.gens if u.ridem[g] == I)
    images = {g: _targets(u, ((), g, ())) & set(basis) for g in basis}
    d = Gf2Matrix.from_columns(basis, basis, images)
    return ChainComplexGf2(basis, d)


def _direct_action(u: ModuleStructure, x, a) -> frozenset:
    am = u.right_alg
    if am.is_idempotent_elem(a):
        return frozenset({x}) if u.ridem[x] == am.elems[a].occupied else frozenset()
    return _targets(u, ((), x, (a,)))


def m_H(u: ModuleStructure, I, J) -> Gf2Matrix:
    """x (x) a -> sum x . b over the b in iota_I . a read off the join of caps
    with A.iota_J (see joined_products), induced on homology as
    H(u . iota_I) (x) H(block I -> J) -> H(u . iota_J) and verified against
    the direct right action."""
    am = u.right_alg
    products = joined_products(am)
    return _verified_on_homology(
        am, right_module_block(u, I), gamma_block(am, I, J), right_module_block(u, J),
        lambda x, a: _direct_action(u, x, a),
        lambda x, a: vsum(_direct_action(u, x, b) for b in products[(am.idempotent_index(I), a)]),
        "join-composite action disagrees with the direct action",
    )


def alg_as_right_module(am: AlgebraModel) -> ModuleStructure:
    """The algebra as a right module over itself."""
    return algebra_module(am, range(am.dim), False, True, "A_r")


def mu_H(am: AlgebraModel, I, J, K) -> Gf2Matrix:
    """x (x) a -> sum_q <q, x.a> q read off the join of caps with A.iota_K (see
    joined_products), induced on homology as H(block I->J) (x) H(block J->K)
    -> H(block I->K) and verified against multiplication."""
    products = joined_products(am)
    return _verified_on_homology(
        am, gamma_block(am, I, J), gamma_block(am, J, K), gamma_block(am, I, K),
        lambda x, a: am.mult_table[(x, a)],
        lambda x, a: products[(x, a)],
        "join-composite product disagrees with multiplication",
    )
