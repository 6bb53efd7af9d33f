"""Reconstruction of the algebra and its module action from homology blocks.

The homology of the algebra splits over pairs of idempotents; multiplication
descends to a map between blocks that the gluing theorem identifies with the
join against an elementary cap module followed by the cancellation
equivalence.  Both sides are computed here and compared exactly on homology.
"""

from __future__ import annotations

from .gf2 import ChainComplexGf2, Gf2Matrix, homology, homology_coordinates, vsum
from .strands import AlgebraModel, gamma_block, homology_blocks  # noqa: F401  (re-exported)
from .ainf import ModuleStructure, StructureError
from .standard_models import algebra_module
from .join import cancel_cA


def _bilinear_on_homology(c1, c2, c3, *images_of_pair) -> list[Gf2Matrix]:
    """Induce each chain-level bilinear map C1 (x) C2 -> C3 on homology.

    The homologies of the three complexes are computed once for all the maps.
    """
    _, reps1 = homology(c1)
    _, reps2 = homology(c2)
    _, reps3 = homology(c3)
    coordinates = homology_coordinates(c3, reps3)
    rows = tuple(("h", i) for i in range(len(reps3)))
    cols = tuple((i, j) for i in range(len(reps1)) for j in range(len(reps2)))
    out = []
    for image_of_pair in images_of_pair:
        nz = set()
        for i, r1 in enumerate(reps1):
            for j, r2 in enumerate(reps2):
                img = vsum(image_of_pair(x, y) for x in r1 for y in r2)
                for k in coordinates(img):
                    nz.add((("h", k), (i, j)))
        out.append(Gf2Matrix(rows, cols, frozenset(nz)))
    return out


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


def _cancel_emissions(cA_table, I, a):
    """The algebra elements b of the join-and-cancel composite on x (x) a.

    The join against the cap module for I sends x (x) a to the state with
    the dual idempotent slot; the cancellation entry keyed by that state, a
    source generator (I, a', K, a) with no inputs, emits b, which the caller
    lets act on x.
    """
    Ituple = tuple(sorted(I))
    for (_, g, argsR), outs in cA_table.items():
        if argsR or g[0] != Ituple or g[3] != a:
            continue
        for b, _tgt, _ in outs:
            yield b


def m_H(u: ModuleStructure, I, J) -> Gf2Matrix:
    """The homology-level action H(u . iota_I) (x) H(block I -> J) -> H(u . iota_J).

    Computed through the join-and-cancel composite; verified against the
    direct right action.
    """
    am = u.right_alg
    I, J = frozenset(I), frozenset(J)
    cA = cancel_cA(am)
    c1 = right_module_block(u, I)
    c2 = gamma_block(am, I, J)
    c3 = right_module_block(u, J)

    direct, composite = _bilinear_on_homology(
        c1,
        c2,
        c3,
        lambda x, a: _direct_action(u, x, a),
        lambda x, a: vsum(_direct_action(u, x, b) for b in _cancel_emissions(cA.table, I, a)),
    )
    if direct.nonzero != composite.nonzero:
        raise StructureError("join-composite action disagrees with the direct action")
    return direct


def alg_as_right_module(am: AlgebraModel) -> ModuleStructure:
    """The algebra as a right module over itself."""
    return algebra_module(am, range(am.dim), False, True, "A_r")


def mu_H(am: AlgebraModel, I, J, K) -> Gf2Matrix:
    """Multiplication on homology blocks, verified against the join composite.

    Maps H(block I->J) (x) H(block J->K) -> H(block I->K); products across
    mismatched middle subsets vanish by idempotent orthogonality.
    """
    I, J, K = frozenset(I), frozenset(J), frozenset(K)
    cA = cancel_cA(am)
    c1 = gamma_block(am, I, J)
    c2 = gamma_block(am, J, K)
    c3 = gamma_block(am, I, K)

    def direct(x, a):
        return am.mult_table[(x, a)]

    def composite(x, a):
        return vsum(am.mult_table[(x, b)] for b in _cancel_emissions(cA.table, J, a))

    m1, m2 = _bilinear_on_homology(c1, c2, c3, direct, composite)
    if m1.nonzero != m2.nonzero:
        raise StructureError("join-composite product disagrees with multiplication")
    return m1
