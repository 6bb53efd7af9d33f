"""Differential tests: the tables, their lazy build and the dga suite against the oracles."""

import copy
import io
import os
import random
import subprocess
import sys
import time

import pytest

from strands_oracle import (
    _OrbitCoding,
    _cross_count,
    dense_diff_table,
    dense_mult_table,
    dga_failures,
    named_basis,
    sparse_tables,
    variants_failures,
)
from diagrams import ladder, random_diagram
from strandjoin.arc_diagram import Z0, Z1, Z2, ArcDiagram, serialize
from strandjoin.cli import _suite_dga, _suite_variants, run
from strandjoin.strands import (
    AlgebraModel,
    ProductTable,
    SymmetrizationError,
    enumerate_basis,
    homology_blocks,
    reflect,
    rotate180,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _assert_matches_dense(table, dense):
    assert type(table) is ProductTable
    assert all(table.values()), "a stored product is zero"
    assert dict(table) == {key: v for key, v in dense.items() if v}
    for key in dense:
        if key not in table:
            assert table[key] == frozenset()
    assert len(table) == sum(1 for v in dense.values() if v)


def _models():
    ams = [enumerate_basis(z) for z in (Z0, Z1, Z2, ladder(3), ladder(3, "beta"))]
    ams += [variant(am)[0] for am in ams[1:4] for variant in (rotate180, reflect)]
    rng = random.Random(11)
    ams += [enumerate_basis(random_diagram(rng, max_rank=3)) for _ in range(4)]
    return ams


def test_sparse_table_matches_dense_oracle():
    for am in _models():
        _assert_matches_dense(am.mult_table, dense_mult_table(am))


def test_diff_table_matches_dense_oracle():
    for am in _models():
        assert am.diff_table == dense_diff_table(am)


# Z1, Z2, the rank-3 and rank-4 ladders of both types, and the 19 seeded
# draws of test_cli's off-ladder sweep.
_DIAGRAMS = [("Z1", Z1), ("Z2", Z2)]
_DIAGRAMS += [(f"R{k}{kind[0]}", ladder(k, kind)) for k in (3, 4) for kind in ("alpha", "beta")]
_DIAGRAMS += [(f"draw{s}", random_diagram(random.Random(s), max_rank=3)) for s in range(19)]


@pytest.mark.parametrize("z", [z for _, z in _DIAGRAMS], ids=[name for name, _ in _DIAGRAMS])
def test_tables_match_sparse_oracle(z):
    am = AlgebraModel(z)
    assert am.elems == named_basis(z)
    diff, mult = sparse_tables(am)
    assert type(am.mult_table) is ProductTable
    # equal dicts with equal iteration order
    assert am.diff_table == diff and list(am.diff_table) == list(diff)
    assert am.mult_table == mult and list(am.mult_table) == list(mult)


def test_equal_products_share_one_set():
    for z in (Z2, ladder(3), ladder(3, "beta")):
        outs = AlgebraModel(z).mult_table.values()
        assert all(len(v) == 1 for v in outs)
        assert len({id(v) for v in outs}) == len(set(outs))


def test_blocks_build_no_product_table(tmp_path):
    am = AlgebraModel(ladder(3))
    assert "diff_table" not in am.__dict__ and "mult_table" not in am.__dict__
    homology_blocks(am)
    assert "diff_table" in am.__dict__ and "mult_table" not in am.__dict__
    # The CLI takes its model from enumerate_basis's cache.  No other test
    # uses these point names, so no earlier test has built this model's
    # tables.
    points = tuple(f"lazy{i}" for i in range(1, 7))
    z = ArcDiagram((points,), {p: i % 3 + 1 for i, p in enumerate(points)}, "alpha")
    path = tmp_path / "lazy.arcd"
    path.write_text(serialize(z))
    assert run(["blocks", str(path)], io.StringIO()) == 0
    assert "diff_table" in enumerate_basis(z).__dict__
    assert "mult_table" not in enumerate_basis(z).__dict__


def test_opposite_of_a_fresh_model_matches_transposed_oracle():
    for z in (Z1, Z2, ladder(3)):
        am = AlgebraModel(z)
        op = am.opposite
        dense = dense_mult_table(am)
        _assert_matches_dense(op.mult_table, {(j, i): v for (i, j), v in dense.items()})
        assert op.diff_table == dense_diff_table(am)
        assert op.left_idem == am.right_idem and op.right_idem == am.left_idem
        assert op.opposite is am


def test_mask_test_agrees_with_crossing_counts():
    # Every composable pair of diagrams: the masks are disjoint exactly when
    # the composite keeps all c1 + c2 crossings.
    for am in _models():
        z, coding = am.arc_diagram, am._coding
        diagrams = [d for ds in coding.diagrams for d in ds]
        for d1 in diagrams:
            for d2 in diagrams:
                follow = dict(d2)
                if sorted(t for _, t in d1) != sorted(follow):
                    continue
                c1, c2, c = (
                    _cross_count(z, frozenset((coding.names[s], coding.names[t]) for s, t in d))
                    for d in (d1, d2, [(s, follow[t]) for s, t in d1])
                )
                kept = c == c1 + c2
                assert kept == (not coding.profile(d1)[1] & coding.profile(d2)[0])


def test_resolutions_match_the_recount():
    # The third-strand rule against the oracle, which rebuilds every
    # resolution and recounts its crossings.
    crossings = rejected = 0
    for am in _models() + [enumerate_basis(ladder(4))]:
        coding, oracle = am._coding, _OrbitCoding(am.arc_diagram, am.elems)
        for ds in coding.diagrams:
            for d in ds:
                kept = [coding.encode(r) for r in oracle.resolutions(d)]
                assert coding.resolutions(d) == kept, d
                n = sum(1 for _ in oracle._crossings(d))
                crossings, rejected = crossings + n, rejected + n - len(kept)
    assert 0 < rejected < crossings


def _code(coding, *strands):
    return coding.encode((coding.names.index(s), coding.names.index(t)) for s, t in strands)


def test_symmetrization_rejects_an_incomplete_orbit():
    am = enumerate_basis(ladder(3))
    coding = am._coding
    e = next(e for e in am.elems if e.movers and e.occupied)
    codes = [coding.encode(d) for d in coding.diagrams[am.index[e]]]
    assert coding.collect(codes) == {am.index[e]}
    with pytest.raises(SymmetrizationError, match="incomplete orbit"):
        coding.collect(codes[:1])
    # A repeated diagram cancels, leaving the orbit incomplete again.
    with pytest.raises(SymmetrizationError, match="incomplete orbit"):
        coding.collect(codes + codes[:1])


def test_symmetrization_rejects_a_key_outside_the_basis():
    am = enumerate_basis(ladder(3))
    coding = am._coding
    # x1 and x4 form pair 1: a mover leaving x1 beside a horizontal at x4
    # occupies pair 1 twice, which no basis element does.
    d = _code(coding, ("x1", "x2"), ("x4", "x4"))
    with pytest.raises(SymmetrizationError, match="not a basis element"):
        coding.collect([d])
    # Two movers leaving the same pair.
    d = _code(coding, ("x1", "x2"), ("x4", "x5"))
    with pytest.raises(SymmetrizationError, match="not a basis element"):
        coding.collect([d])


_TABLES_SCRIPT = """
import random
from diagrams import random_diagram
from strandjoin.arc_diagram import Z2, ArcDiagram
from strandjoin.strands import AlgebraModel, dump_diff_tsv, dump_mult_tsv
points = tuple(f"x{i}" for i in range(1, 7))
ladder = ArcDiagram((points,), {p: i % 3 + 1 for i, p in enumerate(points)}, "beta")
rng = random.Random(3)
for z in [Z2, ladder] + [random_diagram(rng, max_rank=3) for _ in range(3)]:
    am = AlgebraModel(z)
    print(dump_mult_tsv(am) + dump_diff_tsv(am))
    print(list(am.mult_table))
"""


def test_tables_do_not_depend_on_hash_seed():
    outs = []
    tests = os.path.dirname(os.path.abspath(__file__))
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join([SRC, tests]))
        outs.append(subprocess.run(
            [sys.executable, "-c", _TABLES_SCRIPT], env=env, capture_output=True,
            text=True, check=True,
        ).stdout)
    assert outs[0].count("\n") > 100
    assert outs[0] == outs[1]


def test_opposite_table_matches_transposed_dense_oracle():
    for am in (enumerate_basis(Z1), enumerate_basis(Z2), enumerate_basis(ladder(3))):
        dense = dense_mult_table(am)
        op = am.opposite
        _assert_matches_dense(op.mult_table, {(j, i): v for (i, j), v in dense.items()})
        assert op.opposite is am


def test_table_sizes_at_rank3_and_rank4():
    assert len(enumerate_basis(ladder(3)).mult_table) == 575
    start = time.time()
    am4 = AlgebraModel(ladder(4))
    elapsed = time.time() - start
    assert am4.dim == 1240
    assert len(am4.mult_table) == 13855
    assert elapsed < 10, f"rank-4 algebra build took {elapsed:.1f}s"


def _corrupt(am, rng, n):
    """A shallow copy of am with n seeded changes to its product table.

    Each change toggles one output of a stored product (dropping the entry if
    it empties) or gives a zero product one output.
    """
    table = dict(am.mult_table)
    for _ in range(n):
        if rng.random() < 0.5:
            key = rng.choice(sorted(table))
        else:
            key = (rng.randrange(am.dim), rng.randrange(am.dim))
        out = table.get(key, frozenset()) ^ {rng.randrange(am.dim)}
        if out:
            table[key] = out
        else:
            table.pop(key, None)
    bad = copy.copy(am)
    bad.mult_table = ProductTable(table)
    return bad


def test_dga_suite_agrees_with_brute_force_on_corruptions():
    am2 = enumerate_basis(Z2)
    assert _suite_dga(am2, random.Random(0)) == dga_failures(am2) == []
    rng = random.Random(5)
    failing = 0
    for _ in range(30):
        bad = _corrupt(am2, rng, rng.randint(1, 3))
        expected = dga_failures(bad)
        failing += any(f.startswith("associativity") for f in expected)
        assert _suite_dga(bad, random.Random(0)) == expected
    assert failing >= 25


def test_dga_suite_agrees_with_brute_force_at_rank3():
    # One brute-force pass costs seconds at rank 3, so one table carries
    # several corruptions at once.
    z = ladder(3)
    bad = _corrupt(enumerate_basis(z), random.Random(7), 6)
    expected = dga_failures(bad)
    assert any(f.startswith("associativity") for f in expected)
    assert _suite_dga(bad, random.Random(0)) == expected


def test_variants_suite_agrees_with_brute_force_on_corruptions():
    am2 = enumerate_basis(Z2)
    assert _suite_variants(am2, random.Random(0)) == variants_failures(am2) == []
    rng = random.Random(11)
    failing = 0
    for z, n in [(Z2, 30), (ladder(3), 5)]:
        am = enumerate_basis(z)
        for _ in range(n):
            bad = _corrupt(am, rng, rng.randint(1, 3))
            expected = variants_failures(bad)
            failing += bool(expected)
            assert _suite_variants(bad, random.Random(0)) == expected
    assert failing == 35
