"""Hand-wired join walkers: the references for `join_columns`,
`join_symmetry_verdict`, `join_identity_check` and the join's tensor-algebra
modules.

`reference_join` is the join as `join_general` first built it: the domain
(U box M) (x) (M^dual box V) and the codomain U box A^dual box V as
complexes, and a walk over nabla's table that keeps only the pairs of chain
starts forming a domain generator and only the ends forming a codomain
generator.  `assert_columns_match` checks `join_columns`, which builds
neither complex, against it.

The library builds the reflected side of the symmetry verdict by running
`join_general` over the formal opposite algebra.  The functions here build
the same join directly from a right type-A module, with three box complexes
wired by hand: U hooks the right side of each middle factor and V its left.
`assert_reflection_matches` checks that `join_general(op V, op M^dual, op U)`
over the opposite algebra equals `join_general_right(V^dual, M^dual, U^dual)`,
with identical basis labels, differentials and matrix columns.

`identity_composite` walks chains of identity firings of the double's left
identity slot into M's operations by hand and applies the cancellation to
the surviving states; the library composes the same map from `join_general`
against the double.

`_left_d_chains` and `_right_d_chains` index a type-D module's chains by its
emissions in firing order, the right-hand ones read off the opposite
module: the walkers' own chain index, and the reference for the library's
one index by filled input tuple (`join._d_chain_ends`).

`tensor_complex`, `pair_bimodule`, `pair_d_module` and `dd_as_left_module`
are the original hand builders of the join's domain and its pair modules;
the library builds each from the ground-ring tensor and its fold.

`three_joins` is the associativity verdict as first written: it lists the
generators of C1 = U box M, C2 = M^dual box X box N and C3 = N^dual box V and
compares the three routes at every triple of C1 x C2 x C3.  The library
builds each route from the nonzero columns of its join maps only.  It calls
the library's `join_columns` through the module, so a test that patches
`strandjoin.join.join_columns` reaches both.

Every walker reads and writes tables in their kind's own layout, through
`ainf_oracle.kind_layout` and `ainf_oracle.from_kind_layout`.
"""

from __future__ import annotations

from ainf_oracle import from_kind_layout, kind_layout
from tensor_oracle import TensorAlgebra
from strandjoin import join
from strandjoin.ainf import (
    ModuleStructure,
    StructureError,
    _add,
    _max_input_len,
    dualize,
    oppositize,
    validated,
)
from strandjoin.gf2 import ChainComplexGf2, Gf2Matrix, vsum
from strandjoin.join import (
    JoinInstance,
    _identity_composite,
    _nabla_table,
    _require_left_a,
    _require_left_d,
    _require_right_d,
    _sandwich,
    diagonal,
    join_columns,
    join_general,
)
from strandjoin.standard_models import dual_alg_as_aa, identity_firings
from strandjoin.strands import rotate180
from strandjoin.tensor import _d_chains, box, external_tensor, fold, ground_tensor, tensor_algebra


def _require_right_a(M: ModuleStructure):
    if not (M.kind == "AA" and M.left_alg is None and M.right_alg is not None):
        raise StructureError("expected a right type-A module")


def _left_d_chains(V: ModuleStructure, kmax: int) -> dict:
    """temporal output tuple -> [(v0, ends)], non-idempotent emissions.

    ends lists the v_end reached from v0 an odd number of times; starts with
    no such end are left out.
    """
    chains: dict = {}
    for (v0, seq), states in _d_chains(V, kmax, 0).items():
        ends = [v for (_, _, v), par in states.items() if par]
        if ends:
            chains.setdefault(seq, []).append((v0, ends))
    return chains


def _right_d_chains(U: ModuleStructure, kmax: int) -> dict:
    """The same chains for a right type-D module, read off its opposite."""
    return _left_d_chains(oppositize(U), kmax)


def _idem_firings_right_d(U: ModuleStructure):
    """Single firings of a right type-D module that emit an idempotent."""
    for ((), u), outs in kind_layout(U).items():
        for u2, a in outs:
            if U.right_alg.is_idempotent_elem(a):
                yield u, u2, U.right_alg.elems[a].occupied


def _idem_firings_left_d(V: ModuleStructure):
    for (v, argsR), outs in kind_layout(V).items():
        if argsR:
            continue
        for a, v2 in outs:
            if V.left_alg.is_idempotent_elem(a):
                yield v, v2, V.left_alg.elems[a].occupied


def dm_right_complex(U: ModuleStructure, M: ModuleStructure) -> ChainComplexGf2:
    """The complex of (right type-D) box (right type-A): emissions act in firing order."""
    _require_right_d(U)
    _require_right_a(M)
    if U.right_alg is not M.right_alg:
        raise StructureError("box over different algebras")
    basis = tuple((u, q) for u in U.gens for q in M.gens if U.ridem[u] == M.ridem[q])
    basis_set = set(basis)
    chains = _right_d_chains(U, _max_input_len(M, 2))
    images = {g: frozenset() for g in basis}
    for (_, q, argsR), outs in kind_layout(M).items():
        for u0, ends in chains.get(argsR, ()):
            if (u0, q) not in basis_set:
                continue
            for u2 in ends:
                for q2 in outs:
                    images[(u0, q)] ^= frozenset({(u2, q2)})
    for u, u2, subset in _idem_firings_right_d(U):
        for q in M.gens:
            if M.ridem[q] == subset and (u, q) in basis_set:
                images[(u, q)] ^= frozenset({(u2, q)})
    d = Gf2Matrix.from_columns(basis, basis, images)
    return ChainComplexGf2(basis, d)


def md_left_complex(M: ModuleStructure, V: ModuleStructure) -> ChainComplexGf2:
    """The complex of (left type-A) box (left type-D): emissions act outermost-last."""
    _require_left_a(M)
    _require_left_d(V)
    if M.left_alg is not V.left_alg:
        raise StructureError("box over different algebras")
    basis = tuple((p, v) for p in M.gens for v in V.gens if M.lidem[p] == V.lidem[v])
    basis_set = set(basis)
    chains = _left_d_chains(V, _max_input_len(M, 0))
    images = {g: frozenset() for g in basis}
    for (argsL, p, _), outs in kind_layout(M).items():
        for v0, ends in chains.get(argsL[::-1], ()):
            if (p, v0) not in basis_set:
                continue
            for v2 in ends:
                for p2 in outs:
                    images[(p, v0)] ^= frozenset({(p2, v2)})
    for v, v2, subset in _idem_firings_left_d(V):
        for p in M.gens:
            if M.lidem[p] == subset and (p, v) in basis_set:
                images[(p, v)] ^= frozenset({(p, v2)})
    d = Gf2Matrix.from_columns(basis, basis, images)
    return ChainComplexGf2(basis, d)


def sandwich_complex_right(
    U: ModuleStructure, B: ModuleStructure, V: ModuleStructure
) -> ChainComplexGf2:
    """The mirror-wired sandwich: U hooks the middle's right side, V its left."""
    _require_right_d(U)
    _require_left_d(V)
    if B.kind != "AA" or B.left_alg is not V.left_alg or B.right_alg is not U.right_alg:
        raise StructureError("middle factor shape mismatch")
    basis = tuple(
        (u, x, v)
        for u in U.gens
        for x in B.gens
        for v in V.gens
        if U.ridem[u] == B.ridem[x] and B.lidem[x] == V.lidem[v]
    )
    basis_set = set(basis)
    uchains = _right_d_chains(U, _max_input_len(B, 2))
    vchains = _left_d_chains(V, _max_input_len(B, 0))
    images = {g: frozenset() for g in basis}
    for (argsL, x, argsR), outs in kind_layout(B).items():
        for u0, uends in uchains.get(argsR, ()):
            for v0, vends in vchains.get(argsL[::-1], ()):
                if (u0, x, v0) not in basis_set:
                    continue
                for u2 in uends:
                    for v2 in vends:
                        for x2 in outs:
                            images[(u0, x, v0)] ^= frozenset({(u2, x2, v2)})
    for u, u2, subset in _idem_firings_right_d(U):
        for (uu, x, v) in basis:
            if uu == u and B.ridem[x] == subset:
                images[(u, x, v)] ^= frozenset({(u2, x, v)})
    for v, v2, subset in _idem_firings_left_d(V):
        for (u, x, vv) in basis:
            if vv == v and B.lidem[x] == subset:
                images[(u, x, v)] ^= frozenset({(u, x, v2)})
    d = Gf2Matrix.from_columns(basis, basis, images)
    return ChainComplexGf2(basis, d)


def reference_join(U: ModuleStructure, M: ModuleStructure, V: ModuleStructure) -> JoinInstance:
    """The join built on its two complexes, its walk filtered through their bases."""
    _require_right_d(U)
    _require_left_a(M)
    _require_left_d(V)
    am = M.left_alg
    if U.right_alg is not am or V.left_alg is not am:
        raise StructureError("join factors over different algebras")
    domain = ground_tensor(box(U, M), box(dualize(M), V)).underlying_complex()
    codomain = _sandwich(U, dual_alg_as_aa(am), V).underlying_complex()
    cod_set = set(codomain.basis)
    dom_set = set(domain.basis)
    table = _nabla_table(M)
    uchains = _right_d_chains(U, max((len(k[0]) for k in table), default=0))
    vchains = _left_d_chains(V, max((len(k[2]) for k in table), default=0))
    images: dict = {}
    for (argsL, (p, q), argsR), outs in table.items():
        # U's chains fill argsL innermost-first: its firing order reversed.
        for u0, uends in uchains.get(argsL[::-1], ()):
            for v0, vends in vchains.get(argsR, ()):
                g = ((u0, p), (q, v0))
                if g not in dom_set:
                    continue
                img = images.setdefault(g, set())
                for _, mid, _ in outs:
                    for u2 in uends:
                        for v2 in vends:
                            tgt = (u2, mid, v2)
                            if tgt in cod_set:
                                img ^= {tgt}
    matrix = Gf2Matrix.from_columns(codomain.basis, domain.basis, images)
    return JoinInstance(domain, codomain, matrix)


def assert_columns_match(U: ModuleStructure, M: ModuleStructure, V: ModuleStructure) -> dict:
    """join_columns(U, M, V) against the reference: every key a domain
    generator, every row a codomain generator, and the nonzero columns equal.
    Returns the nonzero columns."""
    got = join_columns(U, M, V)
    ref = reference_join(U, M, V)
    dom, cod = set(ref.domain.basis), set(ref.codomain.basis)
    assert set(got) <= dom, (U.name, M.name, V.name)
    assert all(rows <= cod for rows in got.values()), (U.name, M.name, V.name)
    nonzero = {g: frozenset(rows) for g, rows in got.items() if rows}
    want = {g: ref.matrix.column(g) for g in ref.domain.basis if ref.matrix.column(g)}
    assert nonzero == want, (U.name, M.name, V.name)
    return nonzero


def join_general_right(
    U: ModuleStructure, M: ModuleStructure, V: ModuleStructure
) -> JoinInstance:
    """The join built from a right type-A module; the mirror of join_general."""
    _require_right_d(U)
    _require_right_a(M)
    _require_left_d(V)
    am = M.right_alg
    if U.right_alg is not am or V.left_alg is not am:
        raise StructureError("join factors over different algebras")
    c1 = dm_right_complex(U, M)
    c2 = md_left_complex(dualize(M), V)
    domain = tensor_complex(c1, c2)
    codomain = sandwich_complex_right(U, dual_alg_as_aa(am), V)
    cod_set = set(codomain.basis)
    dom_set = set(domain.basis)
    maxlen = _max_input_len(M, 2) + 1
    uchains = _right_d_chains(U, maxlen)
    vchains = _left_d_chains(V, maxlen)
    images = {g: frozenset() for g in domain.basis}

    def right_entries_with_units(Mr):
        for (_, g, argsR), outs in kind_layout(Mr).items():
            yield g, argsR, outs
        for g in Mr.gens:
            ia = Mr.right_alg.idempotent_index(Mr.ridem[g])
            yield g, (ia,), frozenset([g])

    # Reflected formula: <m_M(q', c_1..c_k, a'', d_l..d_1), p> with the
    # structure acting on the first domain factor and pairing off the second.
    for q, args, outs in right_entries_with_units(M):
        for p in outs:
            for j, mid in enumerate(args):
                for u0, uends in uchains.get(args[:j], ()):
                    for v0, vends in vchains.get(args[j + 1 :][::-1], ()):
                        g = ((u0, q), (p, v0))
                        if g not in dom_set:
                            continue
                        for u2 in uends:
                            for v2 in vends:
                                tgt = (u2, mid, v2)
                                if tgt in cod_set:
                                    images[g] ^= frozenset({tgt})
    matrix = Gf2Matrix.from_columns(codomain.basis, domain.basis, images)
    return JoinInstance(domain, codomain, matrix)


def assert_reflection_matches(U: ModuleStructure, M: ModuleStructure, V: ModuleStructure):
    """The reflected side of the symmetry verdict equals the mirror join, label for label."""
    lib = join_general(oppositize(V), oppositize(dualize(M)), oppositize(U))
    ref = join_general_right(dualize(V), dualize(M), dualize(U))
    for a, b in ((lib.domain, ref.domain), (lib.codomain, ref.codomain)):
        assert a.basis == b.basis
        assert a.differential.nonzero == b.differential.nonzero
    for g in lib.domain.basis:
        assert lib.matrix.column(g) == ref.matrix.column(g), g


def identity_composite(U: ModuleStructure, M: ModuleStructure) -> Gf2Matrix:
    """(id x c_A x id) . Psi_M . (id (x) Delta_M) on U box I box M, walked by hand."""
    _require_right_d(U)
    _require_left_a(M)
    if U.table:
        raise StructureError("identity check implemented for structureless U only")
    am = M.left_alg
    full = frozenset(range(1, am.k + 1))
    firings = identity_firings(am)
    # The carrier of U box I box M: the identity bimodule bridges complementary
    # idempotents, so a generator (u, K, p) has ridem(u) = K and lidem(p) = full - K.
    basis = tuple(
        (u, tuple(sorted(U.ridem[u])), p)
        for u in U.gens
        for p in M.gens
        if M.lidem[p] == full - U.ridem[u]
    )
    dbl, delta = diagonal(M)
    delta_terms = list(delta)
    nonzero = {}
    for g in basis:
        u, Ktup, p = g
        K = frozenset(Ktup)
        acc = frozenset()
        for (q0, mid, p0) in delta_terms:
            Ltup, a_mid, Lctup = mid
            # Evaluate the join around (p, q0^): feed chains of identity
            # firings of the double's left identity slot into the module
            # operations, tracking the evolving middle state.
            # States: (current subset, dual-of-a accumulated?, ...) evolve as
            # (I', amid', K', p') with emissions d_1..d_j.
            states = {( (frozenset(Ltup), a_mid, frozenset(Lctup), p0), () ): 1}
            max_feed = _max_input_len(M, 0) + 1
            for _ in range(max_feed + 1):
                new_states = dict(states)
                for (st, seq), par in states.items():
                    if not par or len(seq) >= max_feed:
                        continue
                    I2, a2, K2, p2 = st
                    for c, J2, ct in firings[I2]:
                        for a3 in am.mult_table[(ct, a2)]:
                            key = ((J2, a3, K2, p2), seq + (c,))
                            new_states[key] = new_states.get(key, 0) ^ 1
                states = new_states
            for (st, dlist), par in states.items():
                if not par:
                    continue
                I2, a2, K2, p2 = st
                for args, pp, outs in _left_entries_aa(M):
                    if pp != p or q0 not in outs:
                        continue
                    n = len(args)
                    # left feeds are empty (U structureless); right feeds dlist.
                    if n < 1 or args[: n - 1] != dlist:
                        continue
                    if len(dlist) != n - 1:
                        continue
                    mid_elem = args[n - 1]
                    # step 3: cancellation needs the dual slot to hold the
                    # idempotent complementary to the ambient identity slot.
                    if not am.is_idempotent_elem(mid_elem):
                        continue
                    if am.elems[mid_elem].occupied != full - K:
                        continue
                    if I2 != full - K:
                        continue
                    # c_A emits the middle algebra content; a structureless U
                    # only survives idempotent emissions.
                    if not am.is_idempotent_elem(a2):
                        continue
                    if am.elems[a2].occupied != K:
                        continue
                    acc ^= frozenset({(u, tuple(sorted(K2)), p2)})
        nonzero[g] = acc
    return Gf2Matrix.from_columns(basis, basis, nonzero)


def _left_entries_aa(M: ModuleStructure):
    """Stored left-module operations plus the implicit unital actions, in the AA layout."""
    for (argsL, g, _), outs in kind_layout(M).items():
        yield argsL, g, outs
    for g in M.gens:
        ia = M.left_alg.idempotent_index(M.lidem[g])
        yield (ia,), g, frozenset([g])


def assert_identity_matches(U: ModuleStructure, M: ModuleStructure) -> Gf2Matrix:
    """The library's identity composite equals the hand walk, label for label;
    returns it."""
    lib = _identity_composite(U, M)
    ref = identity_composite(U, M)
    assert lib.rows == ref.rows and lib.cols == ref.cols
    assert lib.nonzero == ref.nonzero
    return lib


# -- the hand-built tensor-algebra modules -----------------------------------------
#
# The library builds these from `tensor.ground_tensor` and `tensor.fold`; the
# functions below are the original hand builders, each reading its factors'
# tables in their kind's layout directly.


def tensor_complex(c1: ChainComplexGf2, c2: ChainComplexGf2) -> ChainComplexGf2:
    basis = tuple((a, b) for a in c1.basis for b in c2.basis)
    images = {}
    for a in c1.basis:
        da = c1.differential.column(a)
        for b in c2.basis:
            db = c2.differential.column(b)
            img = frozenset((a2, b) for a2 in da) ^ frozenset((a, b2) for b2 in db)
            images[(a, b)] = img
    d = Gf2Matrix.from_columns(basis, basis, images)
    return ChainComplexGf2(basis, d)


def pair_bimodule(M: ModuleStructure) -> ModuleStructure:
    """M (x) M-dual as an (A, A)-bimodule, operations touching one side at a time."""
    _require_left_a(M)
    A = M.left_alg
    gens = tuple((p, q) for p in M.gens for q in M.gens)
    lidem = {(p, q): M.lidem[p] for (p, q) in gens}
    ridem = {(p, q): M.lidem[q] for (p, q) in gens}
    table: dict = {}

    entries = kind_layout(M)
    for (argsL, p, _), outs in entries.items():
        for q in M.gens:
            for p2 in outs:
                _add(table, (argsL, (p, q), ()), (p2, q))
    # The dual right action: <q^ . (b_1..b_j), x> = <q^, m(b_j, ..., b_1, x)>.
    for (argsL, x, _), outs in entries.items():
        argsR = tuple(reversed(argsL))
        for q in outs:
            for p in M.gens:
                _add(table, ((), (p, q), argsR), (p, x))
    return validated(ModuleStructure(
        "AA", A, A, gens, lidem, ridem, from_kind_layout("AA", table), name=f"({M.name}(x)dual)"
    ))


def join_domain(U: ModuleStructure, M: ModuleStructure, V: ModuleStructure) -> ChainComplexGf2:
    """The domain of join_general as first built: the tensor of two box complexes."""
    return tensor_complex(box(U, M).underlying_complex(), box(dualize(M), V).underlying_complex())


def pair_d_module(U: ModuleStructure, V: ModuleStructure, ta: TensorAlgebra) -> ModuleStructure:
    """U (x) V as a right type-D module over the tensor algebra.

    U is a right type-D module over the first factor; V a left type-D module
    over the algebra whose reversal is the second factor, so V's outputs are
    recorded through the rotation bijection.
    """
    _require_right_d(U)
    _require_left_d(V)
    am1, am2rev = ta.factors
    if U.right_alg is not am1:
        raise StructureError("first factor algebra mismatch")
    rev_alg, rot = rotate180(V.left_alg)
    if rev_alg is not am2rev:
        raise StructureError("second factor algebra mismatch")
    union = ta.union
    gens = tuple((u, v) for u in U.gens for v in V.gens)
    lidem = {g: frozenset() for g in gens}
    ridem = {
        (u, v): U.ridem[u] | frozenset(j + ta.shift for j in V.lidem[v])
        for (u, v) in gens
    }
    table: dict = {}
    utable, vtable = kind_layout(U), kind_layout(V)
    for (u, v) in gens:
        for u2, a in utable.get(((), u), ()):
            ib = am2rev.idempotent_index(V.lidem[v])
            pair = ta.pair_index[(a, ib)]
            _add(table, ((), (u, v)), ((u2, v), pair))
        for a, v2 in vtable.get((v, ()), ()):
            ia = am1.idempotent_index(U.ridem[u])
            pair = ta.pair_index[(ia, rot[a])]
            _add(table, ((), (u, v)), ((u, v2), pair))
    return validated(ModuleStructure(
        "AD", None, union, gens, lidem, ridem, from_kind_layout("AD", table),
        name=f"({U.name}(x){V.name})",
    ))


def dd_as_left_module(X: ModuleStructure, ta: TensorAlgebra) -> ModuleStructure:
    """A DD bimodule as a left type-D module over the tensor algebra."""
    if X.kind != "DD":
        raise StructureError("expected a DD bimodule")
    am1, am2rev = ta.factors
    if X.left_alg is not am1:
        raise StructureError("first factor algebra mismatch")
    rev_alg, rot = rotate180(X.right_alg)
    if rev_alg is not am2rev:
        raise StructureError("second factor algebra mismatch")
    union = ta.union
    gens = X.gens
    lidem = {
        g: X.lidem[g] | frozenset(j + ta.shift for j in X.ridem[g]) for g in gens
    }
    ridem = {g: frozenset() for g in gens}
    table: dict = {}
    xtable = kind_layout(X)
    for g in gens:
        for a, y, b in xtable.get(g, ()):
            pair = ta.pair_index[(a, rot[b])]
            _add(table, (g, ()), (pair, y))
    return validated(ModuleStructure(
        "DA", union, None, gens, lidem, ridem, from_kind_layout("DA", table), name=f"[{X.name}]"
    ))


# -- the associativity verdict over C1 x C2 x C3 ---------------------------------------


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
    M-dual box X box N.
    """
    _require_right_d(U)
    _require_left_a(M)
    _require_left_a(N)
    _require_left_d(V)
    am = M.left_alg
    if not (M.is_dg_type() and N.is_dg_type()):
        raise StructureError("associativity test requires DG-type modules")
    C1 = box(U, M).gens
    C2 = _sandwich(dualize(M), X, N).gens
    C3 = box(dualize(N), V).gens

    # First composition: join at M, then at N.
    V1 = validated(box(X, N))
    j1 = join.join_columns(U, M, V1)
    U2 = validated(_sandwich(U, dual_alg_as_aa(am), X))
    j2 = join.join_columns(U2, N, V)

    # Second composition: join at N, then at M.
    U2p = validated(box(dualize(M), X))
    j2p = join.join_columns(U2p, N, V)
    V1p = validated(_sandwich(X, dual_alg_as_aa(am), V))
    j1p = join.join_columns(U, M, V1p)

    # Simultaneous join over the tensor algebra.
    j3 = join.join_columns(join.pair_d_module(U, V), external_tensor(M, dualize(N)), fold(X))
    split = tensor_algebra(am).split

    # Composite 1 on C1 (x) C2 (x) C3 vs composite 2 vs simultaneous.
    def as_c2(g):
        q, x, p = g
        return (q, (x, p))

    def as_d1(g):
        u, a, xp = g
        x, p = xp
        return ((u, a, x), p)

    def as_c2p(g):
        q, x, p = g
        return ((q, x), p)

    def as_d2(g):
        qx, b, v = g
        q, x = qx
        return (q, (x, b, v))

    for g1 in C1:
        for g2 in C2:
            for g3 in C3:
                # route 1; j2 codomain gens are ((u,a,x), b, v)
                mid = j1.get((g1, as_c2(g2)), ())
                acc1 = vsum(j2.get((as_d1(t), g3), frozenset()) for t in mid)
                # route 2
                mid2 = j2p.get((as_c2p(g2), g3), ())
                acc2 = vsum(j1p.get((g1, as_d2(t)), frozenset()) for t in mid2)
                # identify codomains: route1 ((u,a,x),b,v) vs route2 (u,a,(x,b,v))
                acc2_flat = frozenset(((u, a, x), b, v) for (u, a, (x, b, v)) in acc2)
                if acc1 != acc2_flat:
                    return False
                # route 3
                u1, p1 = g1
                q2, x2, p2 = g2
                q3, v3 = g3
                dom3 = (((u1, v3), (p1, q3)), ((q2, p2), x2))
                acc3 = j3.get(dom3, ())
                acc3_flat = frozenset(
                    ((uv[0], split[ut][0], xx), split[ut][1], uv[1]) for (uv, ut, xx) in acc3
                )
                if acc1 != acc3_flat:
                    return False
    return True
