from strandjoin.arc_diagram import ArcDiagram, Z2, validate
from strandjoin.gf2 import homology
from strandjoin.ainf import check_structure
from strandjoin.standard_models import (
    alg_as_aa,
    da_identity,
    dd_identity,
    dual_alg_as_aa,
    elementary,
    gamma_block,
    left_module_from_right_idem,
)
from strandjoin.strands import enumerate_basis


def test_elementary_idempotent_conventions(am1):
    d = elementary(am1, frozenset({1}), "D")
    assert d.lidem[d.gens[0]] == {1}
    assert not d.table
    a = elementary(am1, frozenset({1}), "A")
    assert a.lidem[a.gens[0]] == frozenset()
    assert check_structure(a) is None and check_structure(d) is None


def test_alg_as_aa_is_dg_and_valid(am0, am1, am2):
    for am in (am0, am1, am2):
        m = alg_as_aa(am)
        assert m.is_dg_type()
        assert check_structure(m) is None
        # Leibniz reproduces the diff table through the scalar part
        c = m.underlying_complex()
        for g in range(am.dim):
            assert c.differential.column(g) == am.diff_table[g]


def test_algebra_module_shares_equal_outputs(am2, am3):
    for am in (am2, am3):
        for m in (alg_as_aa(am), left_module_from_right_idem(am, frozenset({1}))):
            first = {}
            for outs in m.table.values():
                assert first.setdefault(outs, outs) is outs
            assert len(first) <= am.dim + sum(1 for v in am.diff_table.values() if len(v) > 1)


def test_per_algebra_models_are_built_once():
    from strandjoin.arc_diagram import Z1
    from strandjoin.join import cancel_cA, dd_middle
    from strandjoin.strands import AlgebraModel

    am = AlgebraModel(Z1)
    builds = (alg_as_aa, dual_alg_as_aa, da_identity, dd_identity, dd_middle, cancel_cA)
    for build in builds:
        assert build(am) is build(am)
    assert set(am.models) == {(build.__name__,) for build in builds}
    assert dual_alg_as_aa(am).name == "A^"
    # The opposite algebra builds its own models.
    op = am.opposite
    assert "models" not in op.__dict__
    assert alg_as_aa(op) is not alg_as_aa(am) and alg_as_aa(op).left_alg is op
    assert set(op.models) == {("alg_as_aa",)} and op.opposite is am


def test_models_with_arguments_are_built_once_per_normalized_argument():
    from strandjoin.gf2 import ChainComplexGf2
    from strandjoin.sfh import block_homology
    from strandjoin.strands import AlgebraModel

    am = AlgebraModel(Z2)
    e = elementary(am, {1}, "D")
    for I in ({1}, frozenset({1}), (1,)):
        assert elementary(am, I, "D") is e
        assert elementary(am, I, "D", "left") is elementary(am, I, "D", hand="left") is e
    others = [elementary(am, {1}, "A"), elementary(am, {2}, "D"), elementary(am, (), "D")]
    right = elementary(am, {1}, "D", hand="right")
    assert right is elementary(am, (1,), "D", "right") and right.kind == "AD"
    assert len({id(m) for m in [e, right, *others]}) == 5
    m = left_module_from_right_idem(am, {1, 2})
    for I in ({2, 1}, frozenset({1, 2}), (2, 1)):
        assert left_module_from_right_idem(am, I) is m
    assert left_module_from_right_idem(am, {1}) is not m
    assert elementary(AlgebraModel(Z2), {1}, "D") is not e
    # block_homology keys a complex by its basis and differential.
    c = gamma_block(am, {1}, {1, 2})
    h = block_homology(am, c)
    assert block_homology(am, ChainComplexGf2(c.basis, c.differential)) is h
    assert block_homology(am, gamma_block(am, {1}, {1})) is not h


def test_dual_alg_double_dual(am1):
    from strandjoin.ainf import dualize

    m = alg_as_aa(am1)
    assert dualize(dual_alg_as_aa(am1)).table == m.table


def test_da_identity_structure(am0, am1, am2):
    for am in (am0, am1, am2):
        m = da_identity(am)
        assert check_structure(m) is None
        assert len(m.gens) == 2 ** am.k


def test_dd_identity_validated_convention(am0, am1, am2):
    for am in (am0, am1, am2):
        m = dd_identity(am)
        assert check_structure(m) is None
        for g in m.gens:
            assert m.ridem[g] == frozenset(range(1, am.k + 1)) - m.lidem[g]
    # rank one: no mover leaves its only pair, so the table is empty
    am1_ = enumerate_basis(ArcDiagram((("a1", "a2"),), {"a1": 1, "a2": 1}, "alpha"))
    assert not dd_identity(am1_).table
    # rank two interleaved: four chord firings
    am2_ = enumerate_basis(Z2)
    assert sum(len(v) for v in dd_identity(am2_).table.values()) == 4


def test_dd_identity_rank_three():
    z3 = ArcDiagram(
        (("a1", "a2", "a3", "a4", "a5", "a6"),),
        {"a1": 1, "a4": 1, "a2": 2, "a5": 2, "a3": 3, "a6": 3},
        "alpha",
    )
    assert validate(z3) == []
    am = enumerate_basis(z3)
    assert check_structure(dd_identity(am)) is None


def test_gamma_block_examples(am1):
    c = gamma_block(am1, {1}, {1})
    assert c.dim == 2 and homology(c)[0] == 2
    assert gamma_block(am1, frozenset(), {1}).dim == 0
    c0 = gamma_block(am1, frozenset(), frozenset())
    assert c0.dim == 1 and homology(c0)[0] == 1


def test_gamma_block_partition(am2):
    total = 0
    for I in am2.all_idempotent_subsets():
        for J in am2.all_idempotent_subsets():
            total += gamma_block(am2, I, J).dim
    assert total == am2.dim


def test_gamma_block_basis_is_the_idempotent_scan(am1, am2, am3):
    for am in (am1, am2, am3, am3.opposite):
        for I in am.all_idempotent_subsets():
            for J in am.all_idempotent_subsets():
                scan = tuple(
                    g for g in range(am.dim)
                    if am.left_idem[g] == I and am.right_idem[g] == J
                )
                assert gamma_block(am, I, J).basis == scan
        assert am.idem_blocks is am.idem_blocks


def test_gamma_block_matches_sandwich(am1, am2):
    from strandjoin.join import _sandwich
    from strandjoin.ainf import dualize

    for am in (am1, am2):
        for I in am.all_idempotent_subsets():
            for J in am.all_idempotent_subsets():
                U = dualize(elementary(am, I, "D"))
                V = elementary(am, J, "D")
                c = _sandwich(U, alg_as_aa(am), V).underlying_complex()
                blk = gamma_block(am, I, J)
                assert c.dim == blk.dim
                mapping = {g: (U.gens[0], g, V.gens[0]) for g in blk.basis}
                for g in blk.basis:
                    img = blk.differential.column(g)
                    img2 = c.differential.column(mapping[g])
                    assert {mapping[x] for x in img} == set(img2)
