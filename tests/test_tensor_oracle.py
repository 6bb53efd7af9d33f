"""Differential tests: the tensor-algebra modules built from `ground_tensor`
and `fold` against the original hand builders in `tests/tensor_oracle.py`
and `tests/join_oracle.py`, label for label."""

from __future__ import annotations

import itertools
import random

import join_oracle
import tensor_oracle
from tensor_oracle import assert_same_structure
from strandjoin.ainf import check_structure, dualize
from strandjoin.join import (
    dd_middle,
    join_general,
    left_module_candidates,
    pair_bimodule,
    pair_d_module,
)
from strandjoin.standard_models import dd_identity, elementary
from strandjoin.strands import rotate180
from strandjoin.tensor import TensorAlgebra, box, dbox, external_tensor, fold


def _subsets(am):
    return list(am.all_idempotent_subsets())


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
        ta = TensorAlgebra(am, rotate180(am)[0])
        for X in (dd_identity(am), dd_middle(am)):
            assert_same_structure(fold(X, ta), join_oracle.dd_as_left_module(X, ta))


def test_pair_d_module_matches_oracle(am1, am2):
    for am in (am1, am2):
        ta = TensorAlgebra(am, rotate180(am)[0])
        X = dd_identity(am)
        subs = _subsets(am)
        us = [dualize(elementary(am, I, "D")) for I in subs]
        vs = [elementary(am, J, "D") for J in subs]
        for M in left_module_candidates(am):
            us.append(box(dualize(M), X))
            vs.append(dbox(X, M))
            assert check_structure(us[-1]) is None and check_structure(vs[-1]) is None
        for U, V in itertools.product(us, vs):
            got, ref = pair_d_module(U, V, ta), join_oracle.pair_d_module(U, V, ta)
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
