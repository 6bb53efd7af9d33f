import itertools
import random

from diagrams import random_diagram
from strandjoin.ainf import dualize
from strandjoin.gf2 import ChainComplexGf2, Gf2Matrix, homology
from strandjoin.join import left_module_candidates
from strandjoin.strands import enumerate_basis
from strandjoin.standard_models import elementary, gamma_block, left_module_from_right_idem
from strandjoin.sfh import action_on_homology, homology_blocks, joined_action, module_block
from strandjoin.tensor import box


def _full_homology_dim(am):
    basis = tuple(range(am.dim))
    d = Gf2Matrix.from_columns(
        basis, basis, {i: am.diff_table[i] for i in basis}
    )
    return homology(ChainComplexGf2(basis, d))[0]


def test_homology_blocks_examples(am0, am1, am2):
    b0 = homology_blocks(am0)
    assert b0 == {(frozenset(), frozenset()): 1}
    b1 = homology_blocks(am1)
    assert b1[(frozenset(), frozenset())] == 1
    assert b1[(frozenset({1}), frozenset({1}))] == 2
    assert all(v == 0 for k, v in b1.items() if k not in
               {(frozenset(), frozenset()), (frozenset({1}), frozenset({1}))})
    # Z2 regression table from the brute-force oracle
    b2 = {k: v for k, v in homology_blocks(am2).items() if v}
    expect = {
        (frozenset(), frozenset()): 1,
        (frozenset({1}), frozenset({1})): 2,
        (frozenset({1}), frozenset({2})): 3,
        (frozenset({2}), frozenset({1})): 1,
        (frozenset({2}), frozenset({2})): 2,
        (frozenset({1, 2}), frozenset({1, 2})): 1,
    }
    assert b2 == expect


def test_blocks_sum_to_homology(am0, am1, am2):
    for am in (am0, am1, am2):
        assert sum(homology_blocks(am).values()) == _full_homology_dim(am)


def test_mu_H_verified_on_all_blocks(am0, am1, am2):
    # The product on homology is the action of A.iota_K, compared on every
    # (I, J) whose blocks I->J and J->K are non-empty.
    for am in (am0, am1, am2):
        subs = list(am.all_idempotent_subsets())
        for K in subs:
            # raises when the join composite disagrees
            checked = action_on_homology(left_module_from_right_idem(am, K))
            assert set(checked) == {
                (I, J) for I, J in itertools.product(subs, repeat=2)
                if gamma_block(am, I, J).dim and gamma_block(am, J, K).dim
            }


def _unit_position(am, I=frozenset({1})):
    """The position of [iota_I] among the homology representatives of the
    I->I block, the order of the columns' first index."""
    _, reps, _ = homology(gamma_block(am, I, I))
    iota = am.idempotent_index(I)
    return next(j for j, r in enumerate(reps) if r == {iota})


def test_mu_H_example_action_of_sigma(am1):
    one = frozenset({1})
    m = action_on_homology(left_module_from_right_idem(am1, one))[(one, one)]
    # H(block {1}->{1}) is 2-dimensional: [iota1], [sigma];
    # [iota1].[sigma] = [sigma] so the matrix is the full multiplication table
    assert len(m.rows) == 2
    # unital: [iota1] acts as identity
    unit = _unit_position(am1)
    for i in range(len(m.rows)):
        assert m.column((unit, i)) == {("h", i)}
    assert len(m.nonzero) >= 2


def test_mu_H_cross_blocks_zero(am2):
    # mu_H multiplies only blocks that share the middle idempotent: the
    # products between blocks with J != J' vanish.
    subs = list(am2.all_idempotent_subsets())
    for I, J, Jp, K in itertools.product(subs, repeat=4):
        if J != Jp:
            for x in gamma_block(am2, I, J).basis:
                for a in gamma_block(am2, Jp, K).basis:
                    assert not am2.mult_table[(x, a)]


def test_m_H_verified(am1, am2):
    # Every candidate's action, unit terms included: 16 comparisons on Z2.
    counts = []
    for am in (am1, am2):
        counts.append(sum(len(action_on_homology(N)) for N in left_module_candidates(am)))
    assert counts == [4, 16]


def test_m_H_unit_action(am1, am2):
    # the class of iota_I acts as the identity on the homology of iota_I . N
    for am in (am1, am2):
        for N in left_module_candidates(am):
            for (I, J), m in action_on_homology(N).items():
                if I == J:
                    unit = _unit_position(am, I)
                    for i in range(len(m.rows)):
                        assert m.column((unit, i)) == {("h", i)}


def _left_blocks(N):
    """I -> (homology dimension, block complex) of a left type-A module."""
    out = {}
    for I in N.left_alg.all_idempotent_subsets():
        c = module_block(N, I)
        out[I] = (homology(c)[0], c)
    return out


def test_bsa_blocks(am1):
    one, empty = frozenset({1}), frozenset()
    blocks = _left_blocks(left_module_from_right_idem(am1, one))
    assert blocks[one][1].dim == 2 and blocks[empty][1].dim == 0
    assert _left_blocks(left_module_from_right_idem(am1, empty))[empty][1].dim == 1
    total = sum(
        c.dim for K in am1.all_idempotent_subsets()
        for _, c in _left_blocks(left_module_from_right_idem(am1, K)).values()
    )
    assert total == am1.dim


def test_bsa_blocks_elementary(am1):
    e = elementary(am1, frozenset({1}), "A")
    blocks = _left_blocks(e)
    nonzero = {I: d for I, (d, c) in blocks.items() if c.dim}
    assert list(nonzero.values()) == [1]


def test_bsa_block_matches_box(am1, am2):
    # The block iota_I . N is U box N for the cap U of I; on A.iota_K it is
    # the gamma block I -> K itself.
    for am in (am1, am2):
        subs = list(am.all_idempotent_subsets())
        for N in left_module_candidates(am):
            for I in subs:
                c = box(dualize(elementary(am, I, "D")), N).underlying_complex()
                assert c.dim == module_block(N, I).dim
        for I, K in itertools.product(subs, repeat=2):
            N = left_module_from_right_idem(am, K)
            assert module_block(N, I) == gamma_block(am, I, K)


def test_mu_H_block_entries_on_z1(am1):
    # On the {1}->{1} block: [iota1] is a two-sided unit and [sigma][sigma] = 0.
    one = frozenset({1})
    m = action_on_homology(left_module_from_right_idem(am1, one))[(one, one)]
    blk = gamma_block(am1, frozenset({1}), frozenset({1}))
    _, reps, _ = homology(blk)
    rep_elems = [next(iter(r)) for r in reps]  # zero differential: reps are basis
    s_pos = rep_elems.index(1)   # the moving generator
    i_pos = rep_elems.index(2)   # the idempotent
    expected = {
        (("h", s_pos), (s_pos, i_pos)),
        (("h", s_pos), (i_pos, s_pos)),
        (("h", i_pos), (i_pos, i_pos)),
    }
    assert m.nonzero == frozenset(expected)


# Seeded diagrams of rank at most 3, alpha and beta, off the ladder.
SWEEP = [random_diagram(random.Random(s), max_rank=3) for s in range(19)]


def _nonzero(table) -> dict:
    return {k: frozenset(v) for k, v in table.items() if v}


def test_joined_action_is_the_action_table_with_its_unit_terms(am0, am1, am2, am3):
    for am in [am0, am1, am2, am3] + [enumerate_basis(z) for z in SWEEP]:
        for N in left_module_candidates(am):
            # Every candidate is DG-type: its action entries have one input.
            want = {(args[0], p): {q for _, q, _ in outs}
                    for (args, p, _), outs in N.table.items() if args}
            assert all(len(args) < 2 for args, _, _ in N.table)
            for p in N.gens:
                want.setdefault((am.idempotent_index(N.lidem[p]), p), set()).add(p)
            assert _nonzero(joined_action(N)) == _nonzero(want), N.name


def test_joined_products_read_back_the_product_table(am0, am1, am2, am3):
    # The actions of the A.iota_K, merged, are the whole product.
    for am in [am0, am1, am2, am3] + [enumerate_basis(z) for z in SWEEP]:
        merged: dict = {}
        for K in am.all_idempotent_subsets():
            merged.update(_nonzero(joined_action(left_module_from_right_idem(am, K))))
        assert merged == _nonzero(am.mult_table)


def test_sfh_suite_passes_on_random_diagrams():
    from strandjoin.cli import _suite_sfh

    for z in SWEEP:
        assert _suite_sfh(enumerate_basis(z), random.Random(0)) == []


def test_block_dimensions_match_homology(am0, am1, am2, am3):
    # homology_blocks reads dim - 2 rank d; homology eliminates for cycles too.
    for am in [am0, am1, am2, am3] + [enumerate_basis(z) for z in SWEEP]:
        subsets = list(am.all_idempotent_subsets())
        want = {(I, J): homology(gamma_block(am, I, J))[0] for I in subsets for J in subsets}
        assert homology_blocks(am) == want


def _suite_on_fresh_algebra(z, monkeypatch):
    """Run the sfh suite on a fresh algebra model of z, counting the calls of
    action_on_homology, join_columns and gf2.homology and the builds of the
    cancellation source."""
    import sys

    import strandjoin.gf2 as gf2
    import strandjoin.join as join
    import strandjoin.sfh as sfh
    from strandjoin.cli import _suite_sfh
    from strandjoin.strands import AlgebraModel

    calls = {"action_on_homology": 0, "join_columns": 0, "homology": 0,
             "dd_sandwich_da_bimodule": 0}

    def counting(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)

        return call

    for name, module in (("action_on_homology", sfh), ("join_columns", sfh),
                         ("dd_sandwich_da_bimodule", join)):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    real_homology, homology = gf2.homology, counting("homology", gf2.homology)
    for name, module in list(sys.modules.items()):
        if name.startswith("strandjoin") and getattr(module, "homology", None) is real_homology:
            monkeypatch.setattr(module, "homology", homology)
    am = AlgebraModel(z)
    assert _suite_sfh(am, random.Random(0)) == []
    return am, calls


def test_sfh_suite_joins_once_per_candidate(monkeypatch):
    # The full sfh suite on a fresh Z2 algebra: one action_on_homology call
    # and one walk over nabla's table per candidate module, and no build of
    # the cancellation source.
    from strandjoin.arc_diagram import Z2

    _, calls = _suite_on_fresh_algebra(Z2, monkeypatch)
    assert {k: calls[k] for k in ("action_on_homology", "join_columns",
                                  "dd_sandwich_da_bimodule")} == {
        "action_on_homology": 8, "join_columns": 8, "dd_sandwich_da_bimodule": 0
    }


def test_sfh_suite_computes_each_homology_once(am3, monkeypatch):
    # At most one homology per gamma block (the blocks of A.iota_K among
    # them), per elementary module's block and for the empty complex: 16 + 4
    # + 1 on Z2, 64 + 8 + 1 on the rank-3 ladder.
    from strandjoin.arc_diagram import Z2

    for z, bound in ((Z2, 21), (am3.arc_diagram, 73)):
        _, calls = _suite_on_fresh_algebra(z, monkeypatch)
        assert 0 < calls["homology"] <= bound
