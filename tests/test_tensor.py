import itertools
import random

import pytest

import tensor_oracle
from ainf_oracle import identity_morphism, kind_layout
from tensor_oracle import cone_induced as induced
from strandjoin.arc_diagram import Z2, flip_type
from strandjoin.ainf import (
    ModuleStructure,
    Morphism,
    StructureError,
    _morphism_slots,
    check_structure,
    dualize,
    morphism_diff,
)
from strandjoin.standard_models import (
    alg_as_aa,
    da_identity,
    dd_identity,
    dual_alg_as_aa,
    elementary,
    left_module_from_right_idem,
)
from strandjoin.join import cancel_cA, dd_middle, dd_sandwich_da_bimodule, left_module_candidates
from strandjoin.strands import enumerate_basis
from strandjoin.tensor import (
    box,
    external_tensor,
    fold,
    ground_tensor,
    tensor_algebra,
)


def test_box_elementary_pair_compatibility(am1):
    # one-dimensional exactly when the two idempotents coincide as subsets
    for I in am1.all_idempotent_subsets():
        for J in am1.all_idempotent_subsets():
            eA = dualize(elementary(am1, I, "A"))
            eD = elementary(am1, J, "D")
            r = box(eA, eD)
            expected = 1 if eA.ridem[eA.gens[0]] == eD.lidem[eD.gens[0]] else 0
            assert len(r.gens) == expected
            assert not r.table


def test_box_algebra_with_elementary_block(am1):
    eD = elementary(am1, frozenset({1}), "D")
    r = box(alg_as_aa(am1), eD)
    assert check_structure(r) is None
    gens = {am1.elems[g[0]] for g in r.gens}
    assert gens == {am1.elems[g] for g in range(am1.dim) if am1.right_idem[g] == {1}}
    assert r.underlying_complex().differential.is_zero()


def test_box_da_identity_is_carrier_bijection(am1, am2):
    for am in (am1, am2):
        for I in am.all_idempotent_subsets():
            eD = elementary(am, I, "D")
            r = box(da_identity(am), eD)
            assert len(r.gens) == 1
            assert not r.table
            assert r.lidem[r.gens[0]] == frozenset(I)


def test_box_results_pass_check_structure(am1, am2):
    for am in (am1, am2):
        for I in am.all_idempotent_subsets():
            eD = elementary(am, I, "D")
            assert check_structure(box(alg_as_aa(am), eD)) is None
        assert check_structure(box(alg_as_aa(am), dd_identity(am))) is None
        assert check_structure(box(da_identity(am), dd_identity(am))) is None


def test_box_rejects_mismatches(am1, am2):
    eD = elementary(am2, frozenset(), "D")
    with pytest.raises(StructureError):
        box(alg_as_aa(am1), eD)
    eA = elementary(am1, frozenset(), "A")
    with pytest.raises(StructureError):
        box(eA, dualize(elementary(am1, frozenset(), "A")))


def test_box_needs_a_type_a_side_against_a_type_d_side(am1):
    eA, eD = elementary(am1, frozenset(), "A"), elementary(am1, frozenset(), "D")
    X = dd_identity(am1)
    for m, n in ((dualize(eA), eA), (X, X), (dualize(eD), eD), (X, dualize(X))):
        with pytest.raises(StructureError, match="type-A side with a type-D side"):
            box(m, n)


@pytest.fixture()
def constructions(monkeypatch):
    """The names of the ModuleStructures constructed until the test ends."""
    names = []
    real = ModuleStructure.__init__

    def counting(self, *args, **kwargs):
        names.append(kwargs.get("name", ""))
        real(self, *args, **kwargs)

    monkeypatch.setattr(ModuleStructure, "__init__", counting)
    return names


def test_box_constructs_one_module_on_either_hand(am2, constructions):
    X, IAI, A = dd_identity(am2), dd_middle(am2), alg_as_aa(am2)
    pairs = [(X, A), (IAI, A), (A, X), (A, IAI), (dualize(da_identity(am2)), A)]
    for M in left_module_candidates(am2):
        Md = dualize(M)
        pairs += [(X, M), (IAI, M), (Md, X), (Md, IAI), (box(Md, X), M)]
    for m, n in pairs:
        constructions.clear()
        box(m, n)
        assert len(constructions) == 1, (m.name, n.name)


def test_cancellation_source_constructs_at_most_four_modules(am2, constructions):
    # Three boxes and the flattened labels, listed in their final order: the
    # models it boxes are built once per algebra, beforehand.
    dd_identity(am2), dual_alg_as_aa(am2), alg_as_aa(am2)
    constructions.clear()
    dd_sandwich_da_bimodule(am2)
    assert len(constructions) <= 4, constructions


def test_external_tensor_elementary(am1):
    m = elementary(am1, frozenset({1}), "A")
    n = dualize(elementary(am1, frozenset(), "A"))
    r = external_tensor(m, n)
    assert len(r.gens) == 1
    assert check_structure(r) is None
    assert not r.table


def test_external_tensor_combined_action_grid(am1):
    M = left_module_from_right_idem(am1, {1})
    N = dualize(left_module_from_right_idem(am1, {1}))
    r = external_tensor(M, N)
    assert check_structure(r) is None
    ta = tensor_algebra(am1)
    rt, Mt, Nt = kind_layout(r), kind_layout(M), kind_layout(N)
    # the combined one-input action equals the two one-sided actions
    for u in range(ta.union.dim):
        e1, b = ta.split[u]
        for (x, y) in r.gens:
            got = rt.get(((u,), (x, y), ()), frozenset())
            xs = (
                frozenset([x])
                if am1.is_idempotent_elem(e1) and am1.elems[e1].occupied == M.lidem[x]
                else Mt.get(((e1,), x, ()), frozenset())
                if not am1.is_idempotent_elem(e1)
                else frozenset()
            )
            ys = (
                frozenset([y])
                if am1.is_idempotent_elem(b) and am1.elems[b].occupied == N.ridem[y]
                else Nt.get(((), y, (b,)), frozenset())
                if not am1.is_idempotent_elem(b)
                else frozenset()
            )
            expected = frozenset((x2, y2) for x2 in xs for y2 in ys)
            if am1.is_idempotent_elem(e1) and am1.is_idempotent_elem(b):
                expected = frozenset()
            assert got == expected


def test_external_tensor_requires_shapes(am2):
    M = left_module_from_right_idem(am2, {1})
    assert M.is_dg_type()
    n = dualize(left_module_from_right_idem(am2, {1}))
    with pytest.raises(StructureError):
        external_tensor(dualize(M), n)  # wrong handedness on the first factor
    with pytest.raises(StructureError):
        external_tensor(M, M)  # second factor must be a right module


def test_ground_tensor_requires_a_left_then_a_right_structure(am1):
    M = left_module_from_right_idem(am1, {1})
    for m, n in (
        (dualize(M), dualize(M)),  # the first factor is a right module
        (M, M),  # the second factor is a left module
        (alg_as_aa(am1), dualize(M)),  # the first factor is a bimodule
        (M, da_identity(am1)),  # the second factor is a bimodule
    ):
        with pytest.raises(StructureError, match="left structure, then a right"):
            ground_tensor(m, n)


def test_fold_rejects_other_inputs(am1, am2):
    with pytest.raises(StructureError, match="only a DD or a DG-type AA"):
        fold(da_identity(am1))
    # a well-typed AA bimodule with a two-input entry m(r; x; r) = y
    r = next(i for i in range(am1.dim) if not am1.is_idempotent_elem(i))
    L, R = am1.left_idem[r], am1.right_idem[r]
    w = ModuleStructure(
        "AA", am1, am1, ("x", "y"), {"x": R, "y": L}, {"x": L, "y": R},
        {((r,), "x", (r,)): {(None, "y", None)}},
    )
    assert not w.is_dg_type()
    with pytest.raises(StructureError, match="only a DD or a DG-type AA"):
        fold(w)
    # ground tensors over two different algebras, an AA and a DD bimodule
    M1, M2 = left_module_from_right_idem(am1, {1}), left_module_from_right_idem(am2, {1})
    D1, D2 = elementary(am1, {1}, "D"), elementary(am2, {1}, "D")
    for m, n in ((M1, dualize(M2)), (D1, dualize(D2)), (M2, dualize(M1))):
        w = ground_tensor(m, n)
        assert w.kind in ("AA", "DD") and w.is_dg_type() and w.left_alg is not w.right_alg
        with pytest.raises(StructureError, match="over one algebra"):
            fold(w)


def test_tensor_algebra_is_a_tensor_a_opposite(am1, am2, am3):
    # split is a bijection onto A x A; a (x) b has the idempotents
    # L(a) u shift(R(b)) on the left and R(a) u shift(L(b)) on the right,
    # d(a (x) b) = da (x) b + a (x) db and (a (x) b)(a' (x) b') = aa' (x) b'b.
    for am in (am1, am2, enumerate_basis(flip_type(Z2)), am3):
        ta = tensor_algebra(am)
        union, k = ta.union, am.k
        assert sorted(ta.split.values()) == list(itertools.product(range(am.dim), repeat=2))
        assert all(ta.pair_index[ab] == u for u, ab in ta.split.items())

        def tensor(xs, ys):
            return frozenset(ta.pair_index[(x, y)] for x in xs for y in ys)

        def shift(subset):
            return frozenset(j + k for j in subset)

        for u, (a, b) in ta.split.items():
            assert union.left_idem[u] == am.left_idem[a] | shift(am.right_idem[b])
            assert union.right_idem[u] == am.right_idem[a] | shift(am.left_idem[b])
            assert union.diff({u}) == tensor(am.diff({a}), {b}) ^ tensor({a}, am.diff({b}))
        if am is am3:
            # The stored (nonzero) products, and as many as A's squared.
            products = union.mult_table
            assert len(products) == len(am.mult_table) ** 2
        else:
            products = itertools.product(ta.split, repeat=2)
        for u, v in products:
            (a, b), (a2, b2) = ta.split[u], ta.split[v]
            assert union.mult_table[(u, v)] == tensor(am.mult_table[(a, a2)], am.mult_table[(b2, b)])


def test_induced_identity_and_zero(am2):
    eD = elementary(am2, frozenset({1}), "D")
    A = alg_as_aa(am2)
    idm = identity_morphism(A)
    ind = induced(idm, eD, "right")
    box_mod = box(A, eD)
    assert check_structure(box_mod) is None
    assert ind.table == identity_morphism(box_mod).table
    z = Morphism(A, A, {})
    assert not induced(z, eD, "right").table


def test_induced_is_dg_functor(am1):
    # d(induced f) = induced(df) for morphisms of the A-side factor
    M = alg_as_aa(am1)
    eD = elementary(am1, frozenset({1}), "D")
    rng = random.Random(13)
    slots = _morphism_slots(M, M, 2)
    for _ in range(8):
        f = Morphism(M, M, {k: {v} for k, v in rng.sample(slots, 3)})
        lhs = morphism_diff(induced(f, eD, "right"))
        rhs = induced(morphism_diff(f), eD, "right")
        assert lhs.table == rhs.table


def test_induced_left_identity(am1):
    eD = elementary(am1, frozenset({1}), "D")
    A = alg_as_aa(am1)
    idd = identity_morphism(eD)
    ind = induced(idd, A, "left")
    box_mod = box(A, eD)
    assert check_structure(box_mod) is None
    assert ind.table == identity_morphism(box_mod).table


def _seeded_morphisms(src, dst, rng, count, size, max_len):
    slots = _morphism_slots(src, dst, max_len)
    return [
        Morphism(src, dst, {k: {v} for k, v in rng.sample(slots, min(size, len(slots)))})
        for _ in range(count)
    ]


def _a_sides(am):
    """The algebra bimodule and the dualized amods: right type-A factors."""
    return [alg_as_aa(am)] + [
        dualize(left_module_from_right_idem(am, I)) for I in am.all_idempotent_subsets()
    ]


def test_induced_left_is_dg_functor(am1, am2):
    # d(id x f) = id x df for DA morphisms of the identity bimodule
    rng = random.Random(3)
    cases = nonzero = 0
    for am in (am1, am2):
        X = da_identity(am)
        for other in _a_sides(am):
            for f in _seeded_morphisms(X, X, rng, 12, 3, 2):
                lhs = morphism_diff(induced(f, other, "left"))
                rhs = induced(morphism_diff(f), other, "left")
                assert lhs.table == rhs.table
                cases += 1
                nonzero += bool(lhs.table)
    assert cases == 96 and nonzero


def test_induced_matches_hand_rolled_oracle(am1, am2):
    # The box of the mapping cone equals the hand-interleaved chains of src,
    # one f firing and dst, on both sides.
    rng = random.Random(5)
    cases = nonzero = 0
    for am in (am1, am2):
        X = da_identity(am)
        S = dd_sandwich_da_bimodule(am)
        da_maps = [cancel_cA(am), identity_morphism(X), identity_morphism(S)]
        da_maps += _seeded_morphisms(X, X, rng, 6, 3, 2) + _seeded_morphisms(S, X, rng, 4, 3, 1)
        aa_maps = []
        for M in _a_sides(am):
            aa_maps += [identity_morphism(M)] + _seeded_morphisms(M, M, rng, 3, 3, 2)
        d_sides = [elementary(am, I, "D") for I in am.all_idempotent_subsets()]
        for maps, others, side in (
            (da_maps, _a_sides(am), "left"),
            (aa_maps, d_sides + [X], "right"),
        ):
            for f in maps:
                for other in others:
                    got = induced(f, other, side)
                    ref = tensor_oracle.induced(f, other, side)
                    assert got.src.gens == ref.src.gens and got.dst.gens == ref.dst.gens
                    assert got.table == ref.table
                    cases += 1
                    nonzero += bool(got.table)
    assert 2 * nonzero > cases


def test_box_associativity_with_dg_middle(am1):
    # (A x IdDA) x elemD == A x (IdDA x elemD) under the re-association map
    A = alg_as_aa(am1)
    X = da_identity(am1)
    for I in am1.all_idempotent_subsets():
        eD = elementary(am1, I, "D")
        AX, XeD = box(A, X), box(X, eD)
        left_first, right_first = box(AX, eD), box(A, XeD)
        for m in (AX, XeD, left_first, right_first):
            assert check_structure(m) is None, m.name
        remap = {((x, i), e): (x, (i, e)) for ((x, i), e) in left_first.gens}
        assert set(remap.values()) == set(right_first.gens)
        relabeled = {}
        for (argsL, g, argsR), outs in left_first.table.items():
            relabeled[(argsL, remap[g], argsR)] = frozenset((a, remap[y], b) for a, y, b in outs)
        assert relabeled == {k: frozenset(v) for k, v in right_first.table.items()}


def test_double_reassociates_through_dbox(am1, am2):
    # (M^ x X) x M == M^ x (X x M) under the re-association map
    from strandjoin.join import dd_middle, left_module_candidates

    nontrivial = 0
    for am in (am1, am2):
        for X in (dd_middle(am), dd_identity(am)):
            for M in left_module_candidates(am):
                Md = dualize(M)
                left_first = box(box(Md, X), M)
                right_first = box(Md, box(X, M))
                remap = {((q, x), p): (q, (x, p)) for ((q, x), p) in left_first.gens}
                assert set(remap.values()) == set(right_first.gens)
                relabeled = {}
                for (argsL, g, argsR), outs in left_first.table.items():
                    relabeled[(argsL, remap[g], argsR)] = frozenset(
                        (a, remap[y], b) for a, y, b in outs
                    )
                assert relabeled == right_first.table
                nontrivial += bool(right_first.table)
    assert nontrivial


def test_module_tsv_dump(am1):
    from ainf_oracle import dump_module_tsv

    text = dump_module_tsv(alg_as_aa(am1))
    assert text.startswith("# kind: AA")
    assert "\t" in text.splitlines()[-1]
    t2 = dump_module_tsv(da_identity(am1))
    assert t2.startswith("# kind: DA")
    t3 = dump_module_tsv(dd_identity(am1))
    assert t3.startswith("# kind: DD")
