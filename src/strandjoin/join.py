"""The algebraic join morphism, the chain-level join/gluing maps, the double
and its diagonal cycle, the cancellation morphism, and the identity check.

Everything here is assembled from explicit finite formulas.  A left type-A
module M over the algebra pairs with its dual through the join morphism.
Every box product is a call to tensor.box, and a chain complex is the
underlying complex of one; _sandwich flattens the three-factor product
L box B box R to generators (l, b, r).  Tensor products over the ground ring
and modules over the tensor algebra come from tensor.ground_tensor and
tensor.fold; the identity DD bimodule mediates between a module and its
dual with complementary idempotents on its two sides (see
standard_models.dd_identity).

Conventions (pinned by the validation suite): a right type-D module's
iterated outputs feed left input slots outermost-first, so temporal order
(c_1, ..., c_k) enters an A-side operation as (c_k, ..., c_1); a left type-D
module's outputs feed right input slots in temporal order.  tensor._d_chains
keys the chains of either by the input tuple they fill.
"""

from __future__ import annotations

from .gf2 import ChainComplexGf2, Gf2Matrix, vsum
from .strands import AlgebraModel
from .ainf import ModuleStructure, Morphism, StructureError, _add, validated
from .ainf import dualize, oppositize, relabel
from .standard_models import (
    alg_as_aa,
    da_identity,
    dd_identity,
    dual_alg_as_aa,
    elementary,
    identity_firings,
    left_module_from_right_idem,
    once_per_algebra,
)
from .tensor import _d_chains, box, external_tensor, fold, ground_tensor, tensor_algebra


# -- module-shape helpers --------------------------------------------------------


def _require_left_a(M: ModuleStructure):
    if not (M.kind == "AA" and M.right_alg is None and M.left_alg is not None):
        raise StructureError("expected a left type-A module")


def _require_right_d(U: ModuleStructure):
    if not (U.kind == "AD" and U.left_alg is None):
        raise StructureError("expected a right type-D module")


def _require_left_d(V: ModuleStructure):
    if not (V.kind == "DA" and V.right_alg is None):
        raise StructureError("expected a left type-D module")


def _d_chain_ends(D: ModuleStructure, kmax: int, side: int) -> dict:
    """D's chains on its type-D side (0 = left, 2 = right) by the input tuple
    they fill and their start's idempotent on that side: (bseq, idem) ->
    [(d0, ends)], ends the d_end reached from d0 an odd number of times
    (starts with none are left out)."""
    idem = D.lidem if side == 0 else D.ridem
    chains: dict = {}
    for (d0, seq), states in _d_chains(D, kmax, side).items():
        ends = [d for (_, _, d), par in states.items() if par]
        if ends:
            chains.setdefault((seq, idem[d0]), []).append((d0, ends))
    return chains


def _sandwich(L: ModuleStructure, B: ModuleStructure, R: ModuleStructure) -> ModuleStructure:
    """L box (B box R), its generators flattened to (l, b, r)."""
    return relabel(box(L, box(B, R)), lambda g: (g[0], *g[1]))


# -- the pair bimodule and nabla ---------------------------------------------------


def pair_bimodule(M: ModuleStructure) -> ModuleStructure:
    """M (x) M-dual as an (A, A)-bimodule, operations touching one side at a time."""
    _require_left_a(M)
    return validated(ground_tensor(M, dualize(M, name="dual")))


def _nabla_table(M: ModuleStructure) -> dict:
    """The table of the join morphism of a left type-A module M.

    Each entry q in m(a_1, ..., a_n, p) gives for each j the term
    (a_{j+1}, ..., a_n), (p, q), (a_1, ..., a_{j-1}) -> a_j: the inputs after
    a_j act on the left of the dual algebra, those before it on the right.
    The unital action m(iota, p) = p gives (), (p, p), () -> iota.
    """
    table: dict = {}
    for (args, p, _), outs in M.table.items():
        for _, q, _ in outs:
            for j, mid in enumerate(args):
                _add(table, (args[j + 1 :], (p, q), args[:j]), (None, mid, None))
    for p in M.gens:
        _add(table, ((), (p, p), ()), (None, M.left_alg.idempotent_index(M.lidem[p]), None))
    return table


def nabla(M: ModuleStructure) -> Morphism:
    """The join morphism from M (x) M-dual to the dual algebra bimodule."""
    _require_left_a(M)
    return Morphism(pair_bimodule(M), dual_alg_as_aa(M.left_alg), _nabla_table(M))


# -- join instances ------------------------------------------------------------------


class JoinInstance:
    def __init__(self, domain: ChainComplexGf2, codomain: ChainComplexGf2, matrix: Gf2Matrix):
        self.domain, self.codomain, self.matrix = domain, codomain, matrix

    def is_chain_map(self) -> bool:
        lhs = self.matrix.compose(self.domain.differential)
        rhs = self.codomain.differential.compose(self.matrix)
        return lhs.nonzero == rhs.nonzero


def join_columns(U: ModuleStructure, M: ModuleStructure, V: ModuleStructure) -> dict:
    """The columns of the chain-level join map id_U box nabla_M box id_V, for a
    bounded left type-A module M: {((u, p), (q, v)): set of (u2, a, v2)}.

    A term of nabla's table with inputs (argsL, (p, q), argsR) meets the chains
    of U that fill argsL from a start with p's idempotent and those of V that
    fill argsR from a start with q's, so each key is a generator of the domain
    (U box M) (x) (M-dual box V) and no basis is built.
    """
    _require_right_d(U)
    _require_left_a(M)
    _require_left_d(V)
    if U.right_alg is not M.left_alg or V.left_alg is not M.left_alg:
        raise StructureError("join factors over different algebras")
    table = _nabla_table(M)
    uchains = _d_chain_ends(U, max((len(k[0]) for k in table), default=0), 2)
    vchains = _d_chain_ends(V, max((len(k[2]) for k in table), default=0), 0)
    columns: dict = {}
    for (argsL, (p, q), argsR), outs in table.items():
        for u0, uends in uchains.get((argsL, M.lidem[p]), ()):
            for v0, vends in vchains.get((argsR, M.lidem[q]), ()):
                img = columns.setdefault(((u0, p), (q, v0)), set())
                for _, mid, _ in outs:
                    for u2 in uends:
                        for v2 in vends:
                            img ^= {(u2, mid, v2)}
    return columns


def join_general(U: ModuleStructure, M: ModuleStructure, V: ModuleStructure) -> JoinInstance:
    """The join map of join_columns with its domain (U box M) (x) (M-dual box V)
    and its codomain U box A-dual box V as complexes."""
    columns = join_columns(U, M, V)
    domain = ground_tensor(box(U, M), box(dualize(M), V)).underlying_complex()
    codomain = _sandwich(U, dual_alg_as_aa(M.left_alg), V).underlying_complex()
    nonzero = ((r, c) for c, rows in columns.items() for r in rows)
    return JoinInstance(domain, codomain, Gf2Matrix(codomain.basis, domain.basis, nonzero))


# -- the double and the diagonal ------------------------------------------------------


@once_per_algebra
def dd_middle(am: AlgebraModel) -> ModuleStructure:
    """The identity-algebra-identity sandwich as a DD bimodule over (A, A)."""
    firings = identity_firings(am)
    gens = []
    for I in am.all_idempotent_subsets():
        Ic = frozenset(range(1, am.k + 1)) - I
        for a in range(am.dim):
            if am.left_idem[a] != Ic:
                continue
            K = am.right_idem[a]
            gens.append((tuple(sorted(I)), a, tuple(sorted(K))))
    gens = tuple(gens)
    full = frozenset(range(1, am.k + 1))
    lidem = {g: frozenset(g[0]) for g in gens}
    ridem = {g: full - frozenset(g[2]) for g in gens}
    table: dict = {}

    for g in gens:
        I, a, K = frozenset(g[0]), g[1], frozenset(g[2])
        iI = am.idempotent_index(I)
        iKc = am.idempotent_index(full - K)
        key = ((), g, ())
        for da in am.diff_table[a]:
            _add(table, key, (iI, (g[0], da, g[2]), iKc))
        for c, J, ct in firings[I]:
            for a2 in am.mult_table[(ct, a)]:
                _add(table, key, (c, (tuple(sorted(J)), a2, g[2]), iKc))
        for c, K2, ct in firings[K]:
            for a2 in am.mult_table[(a, c)]:
                _add(table, key, (iI, (g[0], a2, tuple(sorted(K2))), ct))
    return validated(ModuleStructure("DD", am, am, gens, lidem, ridem, table, name="IAI"))


def double_module(M: ModuleStructure) -> ChainComplexGf2:
    """The double of M: M-dual box (identity, algebra, identity) box M."""
    _require_left_a(M)
    am = M.left_alg
    c = _sandwich(dualize(M), dd_middle(am), M).underlying_complex()
    c.check_d_squared()
    return c


def _diagonal_terms(M: ModuleStructure) -> list:
    """The terms (p, mid) of M's diagonal cycle: p^ (x) mid (x) p, where mid is
    the idempotent complementary to p's in I box A box I."""
    am = M.left_alg
    full = frozenset(range(1, am.k + 1))
    terms = []
    for p in M.gens:
        L = M.lidem[p]
        mid = (tuple(sorted(L)), am.idempotent_index(full - L), tuple(sorted(full - L)))
        terms.append((p, mid))
    return terms


def diagonal(M: ModuleStructure) -> tuple[ChainComplexGf2, frozenset]:
    """The diagonal cycle in the double of M."""
    _require_left_a(M)
    c = double_module(M)
    cycle = frozenset((p, mid, p) for p, mid in _diagonal_terms(M))
    if not cycle <= set(c.basis):
        raise StructureError("diagonal term outside the double's carrier")
    return c, cycle


# -- the cancellation morphism ---------------------------------------------------------


def dd_sandwich_da_bimodule(am: AlgebraModel) -> ModuleStructure:
    """identity box dual algebra box identity box algebra, as a DA bimodule.

    Generators are (I, a, K, b): the first identity's subset I, the dual
    algebra element a, the second identity's subset K and the algebra
    element b, listed by I (in subset order), then a, then b.
    """
    X = dd_identity(am)
    m = box(X, box(dual_alg_as_aa(am), box(X, alg_as_aa(am))))
    order = {I: n for n, I in enumerate(am.all_idempotent_subsets())}

    def flat(g):
        (_, I), (a, ((_, K), b)) = g
        return (I, a, K, b)

    def position(g):
        I, a, _, b = flat(g)
        return (order[frozenset(I)], a, b)

    return validated(relabel(m, flat, order=position, name="IA^IA"))


@once_per_algebra
def cancel_cA(am: AlgebraModel) -> Morphism:
    """The cancellation morphism onto the DA identity bimodule."""
    src = dd_sandwich_da_bimodule(am)
    dst = da_identity(am)
    table: dict = {}
    for g in src.gens:
        a, b = g[1], g[3]
        if not am.is_idempotent_elem(a):
            continue
        # the dual slot holds an idempotent: by the carrier constraints its
        # subset equals both the complement of I and K.
        tgt = ("i", tuple(sorted(am.right_idem[b])))
        table[((), g, ())] = {(b, tgt, None)}
    return Morphism(src, dst, table)


# -- identity check --------------------------------------------------------------


def _identity_composite(U: ModuleStructure, M: ModuleStructure) -> Gf2Matrix:
    """(id x c_A x id) . Psi_M . (id (x) Delta_M) on U box I box M.

    U is read as a structureless right type-A module, so U box I is too, with
    generators (u, x_K).  Psi_M is join_columns against I box A box I box M;
    c_A keeps the codomain terms whose dual slot and middle algebra slot are
    idempotents and sends each to the basis element (u, K2, p2).
    """
    _require_right_d(U)
    _require_left_a(M)
    if U.table:
        raise StructureError("identity check implemented for structureless U only")
    am = M.left_alg
    UA = validated(ModuleStructure("AA", None, am, U.gens, U.lidem, U.ridem, {}, name=U.name))
    UI = box(UA, dd_identity(am))
    psi = join_columns(UI, M, box(dd_middle(am), M))
    delta = _diagonal_terms(M)
    # The carrier of U box I box M: the identity bimodule bridges complementary
    # idempotents, so a generator (u, K, p) has ridem(u) = K and lidem(p) = full - K.
    images = {}
    for ui in UI.gens:
        u, (_, K) = ui
        for p in M.gens:
            if M.lidem[p] != UI.ridem[ui]:
                continue
            acc: frozenset = frozenset()
            for q, mid in delta:
                for _, e, ((_, a2, K2), p2) in psi.get(((ui, p), (q, (mid, q))), ()):
                    if am.is_idempotent_elem(e) and am.is_idempotent_elem(a2):
                        acc ^= {(u, K2, p2)}
            images[(u, K, p)] = acc
    basis = tuple(images)
    return Gf2Matrix.from_columns(basis, basis, images)


def join_identity_check(U: ModuleStructure, M: ModuleStructure) -> bool:
    """Verify (id x c_A x id) . Psi_M . (id (x) Delta_M) = id on U box I box M.

    The composite keeps only the terms whose nabla output is an idempotent, so
    it sees nabla's unit terms and the diagonal's idempotent part, and none of
    nabla's action terms: with nabla cut to its unit terms it still passes.
    """
    composite = _identity_composite(U, M)
    return composite.nonzero == Gf2Matrix.identity(composite.cols).nonzero


def join_symmetry_verdict(
    U: ModuleStructure, M: ModuleStructure, V: ModuleStructure
) -> bool:
    """Compare the join with its reflection through the opposite algebra.

    The reflected join is join_columns(op V, op M-dual, op U) over the formal
    opposite algebra, so the verdict checks that the join is natural under
    the op functor.  The carrier identification swaps the domain factors and
    reverses the codomain sandwich: the nonzero columns of the two must agree.
    """
    refl = join_columns(oppositize(V), oppositize(dualize(M)), oppositize(U))
    reflected = {
        ((v, q), (p, u)): {(v2, a, u2) for u2, a, v2 in rows}
        for ((u, p), (q, v)), rows in join_columns(U, M, V).items()
        if rows
    }
    return reflected == {g: rows for g, rows in refl.items() if rows}


# -- associativity apparatus ---------------------------------------------------------


def pair_d_module(U: ModuleStructure, V: ModuleStructure) -> ModuleStructure:
    """U (x) V as a right type-D module over A (x) A-opposite, for a right
    type-D module U and a left type-D module V over A.  Built as the dual of
    the fold of the dual pair.
    """
    _require_right_d(U)
    _require_left_d(V)
    return dualize(fold(ground_tensor(dualize(U), dualize(V))), name=f"({U.name}(x){V.name})")


def three_joins(
    U: ModuleStructure,
    M: ModuleStructure,
    X: ModuleStructure,
    N: ModuleStructure,
    V: ModuleStructure,
) -> bool:
    """Verify the three ways of composing two joins agree on the nose.

    U is a right type-D module, M and N DG-type left modules, X a DD
    bimodule, V a left type-D module; the middle complex is
    M-dual box X box N.  Each route is composed from the nonzero columns of
    its join maps, so no generator of a domain is listed.
    """
    _require_right_d(U)
    _require_left_a(M)
    _require_left_a(N)
    _require_left_d(V)
    am = M.left_alg
    if not (M.is_dg_type() and N.is_dg_type()):
        raise StructureError("associativity test requires DG-type modules")

    # First composition: join at M, then at N.
    V1 = validated(box(X, N))
    j1 = join_columns(U, M, V1)
    U2 = validated(_sandwich(U, dual_alg_as_aa(am), X))
    j2 = join_columns(U2, N, V)

    # Second composition: join at N, then at M.
    U2p = validated(box(dualize(M), X))
    j2p = join_columns(U2p, N, V)
    V1p = validated(_sandwich(X, dual_alg_as_aa(am), V))
    j1p = join_columns(U, M, V1p)

    # Simultaneous join over the tensor algebra.
    j3 = join_columns(pair_d_module(U, V), external_tensor(M, dualize(N)), fold(X))
    split = tensor_algebra(am).split

    # Each route as {(g1, (q, x, p), g3): codomain generators ((u, a, x), b, v)},
    # g1 in U box M, (q, x, p) in M-dual box X box N and g3 in N-dual box V.
    j2_at, j1p_at, route1, route2 = {}, {}, {}, {}
    for (d1, g3), img in j2.items():
        j2_at.setdefault(d1, []).append((g3, img))
    for (g1, d2), img in j1p.items():
        j1p_at.setdefault(d2, []).append((g1, {((u, a, x), b, v) for u, a, (x, b, v) in img}))
    for (g1, (q, (x, p))), mid in j1.items():
        for u, a, (x2, p2) in mid:
            for g3, img in j2_at.get(((u, a, x2), p2), ()):
                route1[g1, (q, x, p), g3] = route1.get((g1, (q, x, p), g3), set()) ^ img
    for (((q, x), p), g3), mid in j2p.items():
        for (q2, x2), b, v in mid:
            for g1, img in j1p_at.get((q2, (x2, b, v)), ()):
                route2[g1, (q, x, p), g3] = route2.get((g1, (q, x, p), g3), set()) ^ img
    route3 = {
        ((u, p), (q2, x, p2), (q, v)): {
            ((u2, split[e][0], x2), split[e][1], v2) for (u2, v2), e, x2 in img
        }
        for (((u, v), (p, q)), ((q2, p2), x)), img in j3.items()
    }
    nonzero = [{g: img for g, img in route.items() if img} for route in (route1, route2, route3)]
    return nonzero[0] == nonzero[1] == nonzero[2]


# -- self join -----------------------------------------------------------------------


def self_join(U_pair: ModuleStructure, M: ModuleStructure):
    """The self-join map, the join against the diagonal cycle of the double.

    U_pair is a right type-D module over A (x) A-opposite, A being M's
    algebra, playing both ends; M must be DG-type (the external tensor
    packaging requires it).
    """
    _require_left_a(M)
    if not M.is_dg_type():
        raise StructureError("self join implemented for DG-type modules")
    Mt = external_tensor(M, dualize(M))
    Vmid = fold(dd_middle(M.left_alg))
    columns = join_columns(U_pair, Mt, Vmid)
    codomain = _sandwich(U_pair, dual_alg_as_aa(Mt.left_alg), Vmid).underlying_complex()
    # Domain: U_pair box Mt; apply the join against the diagonal terms.
    C = box(U_pair, Mt).underlying_complex()
    terms = _diagonal_terms(M)
    images = {
        g: vsum(columns.get((g, ((p, p), mid)), frozenset()) for p, mid in terms) for g in C.basis
    }
    matrix = Gf2Matrix.from_columns(codomain.basis, C.basis, images)
    return JoinInstance(C, codomain, matrix)


def left_module_candidates(am: AlgebraModel):
    """The bounded left modules exercised by the check suites."""
    for I in am.all_idempotent_subsets():
        yield elementary(am, I, "A")
        yield left_module_from_right_idem(am, I)
