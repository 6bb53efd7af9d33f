"""Differential tests: `join_columns`, the walk over nabla's table that builds
no complex, against `join_oracle.reference_join`, which builds the join's
domain and codomain and filters its walk through their bases.  The inputs
are those the library joins: elementary U and V, the caps of
`sfh.joined_action` with every candidate, the factors of the identity check
and, on Z2, the structured factors of `three_joins`.

`three_joins`, which composes its routes from the nonzero columns of its
joins, against `join_oracle.three_joins`, which compares them at every triple
of the three box products' generators: on the tuples of criterion 8, at rank
3, and with one of the five join maps perturbed."""

from __future__ import annotations

import itertools
import random

import join_oracle
from conftest import three_join_tuples
from join_oracle import assert_columns_match, reference_join
from strandjoin import join, sfh
from strandjoin.ainf import dualize
from strandjoin.join import join_general, join_identity_check, left_module_candidates, three_joins
from strandjoin.standard_models import dd_identity, elementary, left_module_from_right_idem


def _subsets(am):
    return list(am.all_idempotent_subsets())


def _joins_made(monkeypatch, module, run) -> list:
    """The (U, M, V) that run() passes to module.join_columns."""
    seen, real = [], join.join_columns

    def recording(U, M, V):
        seen.append((U, M, V))
        return real(U, M, V)

    with monkeypatch.context() as m:
        m.setattr(module, "join_columns", recording)
        run()
    return seen


def _elementary_triples(am):
    for I0, J0 in itertools.product(_subsets(am), repeat=2):
        for M in left_module_candidates(am):
            yield dualize(elementary(am, I0, "D")), M, elementary(am, J0, "D")


def test_columns_match_on_elementary_modules(am1, am2, am3):
    triples = [t for am in (am1, am2) for t in _elementary_triples(am)]
    triples += random.Random(33).sample(list(_elementary_triples(am3)), 24)
    nonzero = 0
    for U, M, V in triples:
        nonzero += bool(assert_columns_match(U, M, V))
        # join_general's matrix holds the same columns over the reference bases.
        got, ref = join_general(U, M, V), reference_join(U, M, V)
        assert (got.domain.basis, got.codomain.basis) == (ref.domain.basis, ref.codomain.basis)
        assert got.matrix.nonzero == ref.matrix.nonzero
    assert nonzero


def test_columns_match_on_the_caps_of_joined_products(am1, am2, am3, monkeypatch):
    # The products are the joins with the A.iota_K, among the candidates.
    for am in (am1, am2, am3):
        candidates = list(left_module_candidates(am))
        joins = _joins_made(monkeypatch, sfh, lambda: [sfh.joined_action(N) for N in candidates])
        assert [M for _, M, _ in joins] == candidates
        assert all(assert_columns_match(*t) for t in joins)


def test_columns_match_on_the_identity_check(am1, am2, am3, monkeypatch):
    pairs = [
        (dualize(elementary(am, I0, "D")), M)
        for am in (am1, am2)
        for I0 in _subsets(am)
        for M in left_module_candidates(am)
    ]
    pairs += [
        (dualize(elementary(am3, I0, "D")), left_module_from_right_idem(am3, K))
        for I0, K in (({1}, {1}), ({2}, {1, 2}), ({1, 2}, {3}), ({1}, {2, 3}))
    ]
    nonzero = 0
    for U, M in pairs:
        joins = _joins_made(monkeypatch, join, lambda: join_identity_check(U, M))
        assert len(joins) == 1
        nonzero += bool(assert_columns_match(*joins[0]))
    assert nonzero


def test_columns_match_on_the_factors_of_three_joins(am2, monkeypatch):
    # All 64 (I0, J0, K) of test_three_joins_z2_sample: each of the five joins,
    # the simultaneous one over the tensor algebra too, has a nonzero column
    # on some triple.
    X = dd_identity(am2)
    nonzero = [0] * 5
    for I0, J0, K in itertools.product(_subsets(am2), repeat=3):
        U = dualize(elementary(am2, I0, "D"))
        V = elementary(am2, J0, "D")
        M = left_module_from_right_idem(am2, K)
        N = elementary(am2, K, "A")
        joins = _joins_made(monkeypatch, join, lambda: three_joins(U, M, X, N, V))
        assert len(joins) == 5
        for i, t in enumerate(joins):
            nonzero[i] += bool(assert_columns_match(*t))
    assert all(nonzero), nonzero


def test_three_joins_matches_oracle(am1, am2, am3):
    tuples = [t for am in (am1, am2) for t in three_join_tuples(am)]
    U = dualize(elementary(am3, {1}, "D"))
    M = left_module_from_right_idem(am3, {1})
    tuples.append((U, M, dd_identity(am3), M, elementary(am3, {1}, "D")))
    assert len(tuples) == 1089
    for t in tuples:
        assert three_joins(*t) is join_oracle.three_joins(*t) is True


def _one_join_perturbed(seed: int, real=join.join_columns):
    """join_columns with one term dropped from one of the five joins that a
    three_joins call makes, the join, column and term drawn from seed."""
    rng, calls = random.Random(seed), itertools.count()
    which = rng.randrange(5)

    def perturbed(U, M, V):
        columns = real(U, M, V)
        nonzero = sorted((g for g, img in columns.items() if img), key=repr)
        if next(calls) == which and nonzero:
            g = rng.choice(nonzero)
            columns[g] = columns[g] - {rng.choice(sorted(columns[g], key=repr))}
        return columns

    return perturbed


def test_three_joins_matches_oracle_with_one_join_perturbed(am1, am2, monkeypatch):
    verdicts = []
    for seed, t in enumerate(t for am in (am1, am2) for t in three_join_tuples(am)):
        got = []
        for three in (three_joins, join_oracle.three_joins):
            monkeypatch.setattr(join, "join_columns", _one_join_perturbed(seed))
            got.append(three(*t))
        assert got[0] is got[1], seed
        verdicts.append(got[0])
    assert 0 < verdicts.count(False) < len(verdicts), verdicts.count(False)
