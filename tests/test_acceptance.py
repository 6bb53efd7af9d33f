"""Acceptance suite: one test per criterion, exact verification throughout.

Every criterion prints a PASS line on success; all comparisons are exact
GF(2) equalities (the underlying results are integers and finite tables, so
no numeric tolerances arise).
"""

import io
import itertools
import random
import time
from collections import Counter

from diagrams import random_diagram
from strandjoin import tensor
from strandjoin.arc_diagram import Z0, Z1, Z2
from strandjoin.gf2 import vsum
from strandjoin.strands import enumerate_basis, reflect, rotate180
from strandjoin.ainf import (
    Morphism,
    _morphism_slots,
    check_structure,
    dualize,
    homotopy_solver,
    is_homomorphism,
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
from strandjoin.join import (
    cancel_cA,
    diagonal,
    join_identity_check,
    join_symmetry_verdict,
    left_module_candidates,
    nabla,
    three_joins,
)
from strandjoin.sfh import action_on_homology, homology_blocks
from strandjoin.nice_diagram import (
    build_cap_diagram,
    build_twisting_slice_diagram,
    compare_with_algebra,
)
from strandjoin.cli import run as cli_run

from test_strands import Z2_BLOCK_TABLE, Z2_DIM, oracle_basis


def _assert_dga_axioms(am):
    n = am.dim
    for i in range(n):
        assert not vsum(am.diff_table[j] for j in am.diff_table[i])
    for i in range(n):
        for j in range(n):
            lhs = am.diff(am.mul(frozenset({i}), frozenset({j})))
            rhs = am.mul(am.diff(frozenset({i})), frozenset({j})) ^ am.mul(
                frozenset({i}), am.diff(frozenset({j}))
            )
            assert lhs == rhs
    for i in range(n):
        for j in range(n):
            ij = am.mult_table[(i, j)]
            for k in range(n):
                a = vsum(am.mult_table[(l, k)] for l in ij)
                b = am.mul(frozenset({i}), am.mult_table[(j, k)])
                assert a == b
    u = am.unit()
    for i in range(n):
        assert am.mul(u, frozenset({i})) == {i}
        assert am.mul(frozenset({i}), u) == {i}
        li, ri = am.left_idem[i], am.right_idem[i]
        for J in am.all_idempotent_subsets():
            left = am.mul(am.idempotent(J), frozenset({i}))
            assert left == ({i} if J == li else set())
            right = am.mul(frozenset({i}), am.idempotent(J))
            assert right == ({i} if J == ri else set())


def test_criterion_1_dga_axioms():
    start = time.time()
    rng = random.Random(20260810)
    diagrams = [Z0, Z1, Z2]
    while len(diagrams) < 28:
        z = random_diagram(rng, max_rank=3)
        am = enumerate_basis(z)
        if am.dim > 40:
            continue
        diagrams.append(z)
    for z in diagrams:
        _assert_dga_axioms(enumerate_basis(z))
    elapsed = time.time() - start
    assert elapsed < 60, f"criterion 1 exceeded budget: {elapsed:.1f}s"
    print(f"\nPASS criterion 1: DGA axioms on {len(diagrams)} diagrams ({elapsed:.1f}s)")


def test_criterion_2_variant_symmetries():
    for z in (Z0, Z1, Z2):
        am = enumerate_basis(z)
        rot_t, rot = rotate180(am)
        ref_t, ref = reflect(am)
        for t, b in ((rot_t, rot), (ref_t, ref)):
            assert t.dim == am.dim
            for i in range(am.dim):
                assert frozenset(b[j] for j in am.diff_table[i]) == t.diff_table[b[i]]
                for j in range(am.dim):
                    img = frozenset(b[l] for l in am.mult_table[(i, j)])
                    assert img == t.mult_table[(b[j], b[i])]
        t1, f = reflect(am)
        t2, r = rotate180(t1)
        comp = {i: r[f[i]] for i in range(am.dim)}
        for i in range(am.dim):
            assert frozenset(comp[j] for j in am.diff_table[i]) == t2.diff_table[comp[i]]
            for j in range(am.dim):
                img = frozenset(comp[l] for l in am.mult_table[(i, j)])
                assert img == t2.mult_table[(comp[i], comp[j])]
    print("\nPASS criterion 2: rotate/reflect anti-isomorphisms, composite isomorphism")


def test_criterion_3_regression_constants():
    assert enumerate_basis(Z0).dim == 1
    assert enumerate_basis(Z1).dim == 3
    am2 = enumerate_basis(Z2)
    # independent brute-force enumerator (separate code path)
    assert len(oracle_basis(Z2)) == Z2_DIM == am2.dim
    blocks = {
        (tuple(sorted(I)), tuple(sorted(J))): v
        for (I, J), v in homology_blocks(am2).items()
        if v
    }
    assert blocks == Z2_BLOCK_TABLE
    print("\nPASS criterion 3: regression constants (dims 1, 3, 16; Z2 block table)")


def test_criterion_4_structure_equations():
    for z in (Z0, Z1, Z2):
        am = enumerate_basis(z)
        models = [alg_as_aa(am), dual_alg_as_aa(am), da_identity(am), dd_identity(am)]
        for I in am.all_idempotent_subsets():
            models.append(elementary(am, I, "A"))
            models.append(elementary(am, I, "D"))
        for m in models:
            assert check_structure(m) is None, m.name
    print("\nPASS criterion 4: structure equations for all standard models")


def test_criterion_5_join_homomorphism():
    for z in (Z1, Z2):
        am = enumerate_basis(z)
        for M in left_module_candidates(am):
            assert is_homomorphism(nabla(M)), M.name
    print("\nPASS criterion 5: d(nabla) = 0 for all elementary and A.iota modules")


def test_criterion_6_diagonal_cycle():
    for z in (Z1, Z2):
        am = enumerate_basis(z)
        for M in left_module_candidates(am):
            c, vec = diagonal(M)
            assert not c.differential.apply(vec), M.name
    print("\nPASS criterion 6: d(Delta) = 0 for the same module family")


def test_criterion_7_cancellation():
    for z in (Z1, Z2):
        am = enumerate_basis(z)
        assert is_homomorphism(cancel_cA(am))
    print("\nPASS criterion 7: d(c_A) = 0 over Z1 and Z2 (validates the DD identity)")


def test_criterion_8_join_properties(monkeypatch):
    # Each build of tensor.tensor_algebra enumerates its union algebra once.
    builds: Counter = Counter()
    real = tensor.enumerate_basis
    monkeypatch.setattr(tensor, "enumerate_basis", lambda z: builds.update([z]) or real(z))
    start = time.time()
    for z in (Z1, Z2):
        am = enumerate_basis(z)
        subs = list(am.all_idempotent_subsets())
        X = dd_identity(am)
        for I0, J0 in itertools.product(subs, repeat=2):
            U = dualize(elementary(am, I0, "D"))
            V = elementary(am, J0, "D")
            for K in subs:
                for M in (elementary(am, K, "A"), left_module_from_right_idem(am, K)):
                    assert join_symmetry_verdict(U, M, V)
            for K1, K2 in itertools.product(subs, repeat=2):
                for M in (elementary(am, K1, "A"), left_module_from_right_idem(am, K1)):
                    for N in (elementary(am, K2, "A"), left_module_from_right_idem(am, K2)):
                        assert three_joins(U, M, X, N, V)
        for I0 in subs:
            U = dualize(elementary(am, I0, "D"))
            for K in subs:
                for M in (elementary(am, K, "A"), left_module_from_right_idem(am, K)):
                    assert join_identity_check(U, M)
    elapsed = time.time() - start
    assert elapsed < 120, f"criterion 8 exceeded budget: {elapsed:.1f}s"
    assert len(builds) <= 2 and max(builds.values(), default=0) <= 1, builds
    print(f"\nPASS criterion 8: join symmetry, associativity, identity, Z1 and Z2 ({elapsed:.1f}s)")


def test_criterion_9_nice_diagram_oracle():
    for z in (Z1, Z2):
        am = enumerate_basis(z)
        d = build_twisting_slice_diagram(z)
        v = compare_with_algebra(d, alg_as_aa(am))
        assert v.isomorphic, v.witness
        for I in am.all_idempotent_subsets():
            vc = compare_with_algebra(build_cap_diagram(z, I), elementary(am, I, "A"))
            assert vc.isomorphic, (I, vc.witness)
    print("\nPASS criterion 9: nice-diagram comparisons isomorphic (slices and caps)")


def test_criterion_10_sfh_reconstruction():
    # Each candidate's action on homology, the products as the actions of the
    # A.iota_K, equals the join composite.
    for z in (Z0, Z1, Z2):
        am = enumerate_basis(z)
        for M in left_module_candidates(am):
            action_on_homology(M)
    print("\nPASS criterion 10: every candidate's action equals the join composite on homology")


def test_criterion_11_homotopy_tooling():
    am = enumerate_basis(Z1)
    M = left_module_from_right_idem(am, {1})
    slots = _morphism_slots(M, M, 3)
    rng = random.Random(20260810)
    solve = homotopy_solver(M, M, 4)
    recovered = 0
    for _ in range(20):
        H0 = Morphism(M, M, {k: {v} for k, v in rng.sample(slots, 3)})
        f = morphism_diff(H0)
        H = solve(f.table)
        assert H is not None and morphism_diff(H).table == f.table
        recovered += 1
    assert recovered == 20
    print("\nPASS criterion 11: 20/20 planted homotopies recovered at max length 4")


def test_criterion_12_determinism(tmp_path):
    from strandjoin.arc_diagram import serialize

    p1 = tmp_path / "Z1.arcd"
    p1.write_text(serialize(Z1))
    p2 = tmp_path / "Z2.arcd"
    p2.write_text(serialize(Z2))
    commands = [
        ["blocks", str(p2)],
        ["join", str(p1), "elementary:D:{1}", "amod:{1}", "elementary:D:{1}"],
    ]
    for cmd in commands:
        outs = []
        for _ in range(3):
            buf = io.StringIO()
            rc = cli_run(cmd, buf)
            assert rc == 0
            outs.append(buf.getvalue())
        assert outs[0] == outs[1] == outs[2]
    print("\nPASS criterion 12: repeated blocks/join runs byte-identical")
