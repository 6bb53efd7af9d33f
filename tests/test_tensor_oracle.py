"""Differential tests: the tensor-algebra modules built from `ground_tensor`
and `fold`, and the box with its type-D factor on the left, against the
original hand builders in `tests/tensor_oracle.py` and
`tests/join_oracle.py`, label for label; and `fold`, which reads each
generator's own one-input actions, against `tensor_oracle.fold`, which runs
every union-algebra element against every generator."""

from __future__ import annotations

import itertools
import random

import join_oracle
import tensor_oracle
from tensor_oracle import assert_same_structure
from strandjoin.ainf import ModuleStructure, check_structure, dualize
from strandjoin.join import (
    _d_chain_ends,
    dd_middle,
    join_general,
    left_module_candidates,
    pair_bimodule,
    pair_d_module,
)
from strandjoin.arc_diagram import Z2, flip_type
from strandjoin.standard_models import alg_as_aa, da_identity, dd_identity, elementary
from strandjoin.strands import enumerate_basis, rotate180
from strandjoin.tensor import box, external_tensor, fold, ground_tensor, tensor_algebra


def _subsets(am):
    return list(am.all_idempotent_subsets())


def _oracle_pairing(am):
    """The two-factor pairing of A with the algebra of -Z, onto which
    rotate180 carries A's elements."""
    return tensor_oracle.TensorAlgebra(am, rotate180(am)[0])


def test_tensor_algebra_matches_the_two_factor_pairing(am1, am2, am3):
    for am in (am1, am2, enumerate_basis(flip_type(Z2)), am3):
        ta, ref = tensor_algebra(am), _oracle_pairing(am)
        rot = rotate180(am)[1]
        assert ta.union is ref.union
        assert ta.pair_index == {(a, b): ref.pair_index[(a, rot[b])] for a, b in ta.pair_index}
        assert ta.split == {u: (a, b) for (a, b), u in ta.pair_index.items()}


def test_pair_bimodule_matches_oracle(am1, am2, am3):
    # At rank 3 both builders validate (about 0.2 s each), so four modules.
    mods = [*left_module_candidates(am1), *left_module_candidates(am2)]
    mods += itertools.islice(left_module_candidates(am3), 4)
    for M in mods:
        got, ref = pair_bimodule(M), join_oracle.pair_bimodule(M)
        assert_same_structure(got, ref)
        assert got.name == ref.name


def test_external_tensor_matches_oracle(am1, am2):
    for am in (am1, am2):
        mods = list(left_module_candidates(am))
        for M, N in itertools.product(mods, repeat=2):
            got = external_tensor(M, dualize(N))
            ref = tensor_oracle.external_tensor(M, dualize(N))
            assert_same_structure(got, ref)
            assert got.name == ref.name


def test_fold_of_dd_matches_oracle(am1, am2):
    for am in (am1, am2):
        ta = _oracle_pairing(am)
        for X in (dd_identity(am), dd_middle(am)):
            assert_same_structure(fold(X), join_oracle.dd_as_left_module(X, ta))


def _candidate_ground_tensors(am) -> list:
    """M (x) N-dual for the candidates M and N, the AA bimodules that
    external_tensor folds."""
    mods = list(left_module_candidates(am))
    return [ground_tensor(M, dualize(N)) for M, N in itertools.product(mods, repeat=2)]


def test_fold_matches_its_first_form(am1, am2, am3):
    ws = [w for am in (am1, am2) for w in (dd_identity(am), dd_middle(am), alg_as_aa(am))]
    ws += [w for am in (am1, am2) for w in _candidate_ground_tensors(am)]
    ws += random.Random(36).sample(_candidate_ground_tensors(am3), 6)
    acting = 0
    for w in ws:
        got, ref = fold(w), tensor_oracle.fold(w)
        assert_same_structure(got, ref)
        assert got.name == ref.name
        acting += any(len(argsL) == 1 for argsL, _, _ in got.table)
    assert acting


def test_pair_d_module_matches_oracle(am1, am2):
    for am in (am1, am2):
        ta = _oracle_pairing(am)
        X = dd_identity(am)
        subs = _subsets(am)
        us = [dualize(elementary(am, I, "D")) for I in subs]
        vs = [elementary(am, J, "D") for J in subs]
        for M in left_module_candidates(am):
            us.append(box(dualize(M), X))
            vs.append(box(X, M))
            assert check_structure(us[-1]) is None and check_structure(vs[-1]) is None
        for U, V in itertools.product(us, vs):
            got, ref = pair_d_module(U, V), join_oracle.pair_d_module(U, V, ta)
            assert_same_structure(got, ref)
            assert got.name == ref.name


def test_join_domain_matches_tensor_complex(am2):
    subs = _subsets(am2)
    mods = list(left_module_candidates(am2))
    triples = list(itertools.product(range(len(subs)), range(len(mods)), range(len(subs))))
    for i, m, j in random.Random(14).sample(triples, 24):
        U = dualize(elementary(am2, subs[i], "D"))
        V = elementary(am2, subs[j], "D")
        got = join_general(U, mods[m], V).domain
        ref = join_oracle.join_domain(U, mods[m], V)
        assert got.basis == ref.basis
        assert got.differential.nonzero == ref.differential.nonzero


def _left_hand_d_factors(am):
    """Right type-D factors: IdDD, IAI, the dual of IdDA (whose far side takes
    inputs), the dual elementary D modules and M^dual box IdDD."""
    X = dd_identity(am)
    ds = [X, dd_middle(am), dualize(da_identity(am))]
    ds += [dualize(elementary(am, I, "D")) for I in _subsets(am)]
    ds += [box(dualize(M), X) for M in left_module_candidates(am)]
    return ds


def _left_hand_pairs(am):
    return itertools.product(
        _left_hand_d_factors(am), [*left_module_candidates(am), alg_as_aa(am)]
    )


def _two_input_module(am, d):
    """A left type-A module with an entry m(a_1, a_2, p_a) = q_a for each
    input pair a that some two-firing chain of d fills, or None.  It is not
    an A-infinity module, but it makes a box consume whole chains, which no
    DG-type module does."""
    fills = {seq[::-1] for seq in join_oracle._right_d_chains(d, 2) if len(seq) == 2}
    if not fills:
        return None
    lidem, table = {}, {}
    for args in sorted(fills):
        lidem[("p", args)] = am.right_idem[args[1]]
        lidem[("q", args)] = am.left_idem[args[0]]
        table[(args, ("p", args), ())] = {(None, ("q", args), None)}
    ridem = dict.fromkeys(lidem, frozenset())
    return ModuleStructure("AA", am, None, tuple(lidem), lidem, ridem, table)


def test_left_hand_box_matches_opposite_round_trip(am1, am2, am3):
    pairs = [*_left_hand_pairs(am1), *_left_hand_pairs(am2)]
    for d in _left_hand_d_factors(am2):
        M = _two_input_module(am2, d)
        if M is not None:
            pairs.append((d, M))
    pairs += random.Random(21).sample(list(_left_hand_pairs(am3)), 24)
    far_inputs = far_products = 0
    for d, a in pairs:
        got = box(d, a)
        assert_same_structure(got, tensor_oracle.dbox(d, a))
        far_inputs += any(argsL for argsL, _, _ in got.table)
        far_products += any(
            c is not None and not got.left_alg.is_idempotent_elem(c)
            for outs in got.table.values()
            for c, _, _ in outs
        )
    assert far_inputs and far_products


def _by_filled_tuple(chains: dict, fill) -> set:
    return {
        (fill(key), u0, frozenset(ends)) for key, starts in chains.items() for u0, ends in starts
    }


def test_right_hand_chains_are_the_opposite_chains_reversed(am2):
    # The library keys a right type-D module's chains by the left input tuple
    # they fill and their start's right idempotent; the oracle reads them off
    # the opposite in firing order.  The join looks U's chains up this way;
    # every module it joins today is DG-type, so only these chains pin the order.
    X = dd_identity(am2)
    long_chains = 0
    for M in left_module_candidates(am2):
        U = box(dualize(M), X)
        chains = _d_chain_ends(U, 3, 2)
        assert all(U.ridem[u0] == idem for (_, idem), starts in chains.items() for u0, _ in starts)
        got = _by_filled_tuple(chains, lambda key: key[0])
        ref = _by_filled_tuple(join_oracle._right_d_chains(U, 3), lambda seq: seq[::-1])
        assert got == ref
        long_chains += sum(len(seq) >= 2 for seq, _ in chains)
    assert long_chains
