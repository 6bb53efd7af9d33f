"""Differential tests: the algebra modules and the cancellation source against
their hand-rolled builders; the join's chain index by emitted sequence."""

import pytest

import models_oracle
from strandjoin.ainf import ModuleStructure, is_homomorphism
from strandjoin.join import _d_chain_ends, cancel_cA, dd_sandwich_da_bimodule
from strandjoin.standard_models import alg_as_aa, left_module_from_right_idem

RANKS = ("am0", "am1", "am2", "am3")


def _assert_same(m, ref):
    assert (m.kind, m.name) == (ref.kind, ref.name)
    assert m.left_alg is ref.left_alg and m.right_alg is ref.right_alg
    assert m.gens == ref.gens
    assert m.lidem == ref.lidem
    assert m.ridem == ref.ridem
    assert m.table == ref.table


@pytest.mark.parametrize("name", RANKS)
def test_algebra_modules_match_dense_builders(name, request):
    am = request.getfixturevalue(name)
    _assert_same(alg_as_aa(am), models_oracle.alg_as_aa(am))
    for I in am.all_idempotent_subsets():
        _assert_same(
            left_module_from_right_idem(am, I), models_oracle.left_module_from_right_idem(am, I)
        )


@pytest.mark.parametrize("name", RANKS)
def test_cancellation_source_matches_hand_rolled_builder(name, request):
    am = request.getfixturevalue(name)
    _assert_same(dd_sandwich_da_bimodule(am), models_oracle.dd_sandwich_da_bimodule(am))
    assert is_homomorphism(cancel_cA(am))


def test_d_chains_keep_the_ends_reached_an_odd_number_of_times(am2):
    # y0 emits b into y1 and into y2, and both emit c into y3: the two
    # chains y0 -> y3 emitting (b, c) cancel, so y0 is no start for (b, c).
    b, c = next(
        (b, c)
        for b, c in am2.mult_table
        if not am2.is_idempotent_elem(b) and not am2.is_idempotent_elem(c)
    )
    lidem = {
        "y0": am2.left_idem[b],
        "y1": am2.right_idem[b],
        "y2": am2.right_idem[b],
        "y3": am2.right_idem[c],
    }
    table = {
        ((), "y0", ()): {(b, "y1", None), (b, "y2", None)},
        ((), "y1", ()): {(c, "y3", None)},
        ((), "y2", ()): {(c, "y3", None)},
    }
    V = ModuleStructure(
        "DA", am2, None, tuple(lidem), lidem, {y: frozenset() for y in lidem}, table,
    )
    chains = _d_chain_ends(V, 2, 0)
    # Each chain is keyed by the tuple it fills and its start's idempotent.
    assert all(lidem[y] == idem for (_, idem), starts in chains.items() for y, _ in starts)
    assert sorted(s for (seq, _), starts in chains.items() if seq == () for s in starts) == [
        (y, [y]) for y in lidem
    ]
    [(start, ends)] = chains[((b,), lidem["y0"])]
    assert start == "y0" and sorted(ends) == ["y1", "y2"]
    assert chains[((c,), lidem["y1"])] == [("y1", ["y3"]), ("y2", ["y3"])]
    assert (b, c) not in {seq for seq, _ in chains}
