"""Structure equations, joins and the nice-diagram oracle on the rank-3 ladder."""

import io
import itertools
import os
import random
import subprocess
import sys
import time

import pytest

from conftest import forget_models, join_suite_names, structures_suite_names
from join_oracle import assert_identity_matches, assert_reflection_matches
from strandjoin.ainf import check_structure, dualize
from strandjoin.arc_diagram import serialize
from strandjoin.cli import run
from strandjoin.gf2 import Gf2Matrix
from strandjoin.join import (
    dd_sandwich_da_bimodule,
    join_general,
    join_identity_check,
    join_symmetry_verdict,
    left_module_candidates,
    pair_bimodule,
    three_joins,
)
from strandjoin.nice_diagram import build_twisting_slice_diagram, count_domains
from strandjoin.standard_models import (
    alg_as_aa,
    da_identity,
    dd_identity,
    dual_alg_as_aa,
    elementary,
    left_module_from_right_idem,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture()
def r3_file(am3, tmp_path):
    p = tmp_path / "R3.arcd"
    p.write_text(serialize(am3.arc_diagram))
    return str(p)


def _run(argv):
    buf = io.StringIO()
    rc = run(argv, buf)
    return rc, buf.getvalue()


def test_alg_as_aa_validates_at_rank3(am3):
    start = time.time()
    m = alg_as_aa(am3)
    assert check_structure(m) is None
    elapsed = time.time() - start
    assert elapsed < 10, f"rank-3 alg_as_aa validation took {elapsed:.1f}s"


def test_standard_bimodules_validate_at_rank3(am3):
    models = [dual_alg_as_aa(am3), da_identity(am3), dd_identity(am3)]
    models.append(dd_sandwich_da_bimodule(am3))
    for m in models:
        assert check_structure(m) is None, m.name


def test_pair_bimodules_validate_at_rank3(am3):
    subsets = list(am3.all_idempotent_subsets())
    assert len(subsets) == 8
    for I in subsets:
        m = pair_bimodule(left_module_from_right_idem(am3, I))
        assert check_structure(m) is None, m.name


def test_check_structures_and_join_pass_at_rank3(am3, r3_file, structure_checks):
    forget_models(am3)
    rc, out = _run(["check", r3_file, "structures"])
    assert rc == 0 and out.endswith("structures: PASS\n")
    start = time.time()
    rc, out = _run(["check", r3_file, "join"])
    elapsed = time.time() - start
    assert rc == 0 and out.endswith("join: PASS\n")
    assert elapsed < 60, f"rank-3 check join took {elapsed:.1f}s"
    # The join run reuses the models the structures run built and validated.
    assert structure_checks.names() == structures_suite_names(am3) | join_suite_names(am3)
    assert not structure_checks.repeated()


def test_join_at_rank3_is_a_chain_map(am3, r3_file):
    rc, out = _run(["join", r3_file, "elementary:D:{1}", "amod:{1}", "elementary:D:{1}"])
    assert rc == 0 and "# matrix (row col) triplets, value 1" in out
    inst = join_general(
        dualize(elementary(am3, {1}, "D")),
        left_module_from_right_idem(am3, {1}),
        elementary(am3, {1}, "D"),
    )
    assert inst.is_chain_map()
    assert len(inst.matrix.nonzero) == out.split("value 1\n")[1].count("\n")


# (U's subset, V's subset, M's kind, K): M is elementary:A ("A") or amod
# ("amod") on the subset K.  The sample mixes U = V with U != V and ends on the largest join; it
# runs in about 3 s, where each join costs about 60 ms.
R3_SYMMETRY_SAMPLE = (
    ({1}, {1}, "A", {1}),
    ({1}, {1}, "amod", {1}),
    ({2}, {1}, "amod", {3}),
    ({1, 3}, {1, 3}, "A", {1, 3}),
    ({1, 2}, {1, 2}, "amod", {2, 3}),
    ({1, 2}, {2, 3}, "amod", {1, 3}),
    ({2, 3}, {1, 2}, "amod", {2, 3}),
    ({1, 2, 3}, {1, 2, 3}, "amod", {1, 2, 3}),
)


def test_join_symmetry_and_mirror_oracle_at_rank3(am3):
    for I0, J0, kind, K in R3_SYMMETRY_SAMPLE:
        U = dualize(elementary(am3, I0, "D"))
        V = elementary(am3, J0, "D")
        M = elementary(am3, K, "A") if kind == "A" else left_module_from_right_idem(am3, K)
        assert join_symmetry_verdict(U, M, V), (I0, J0, M.name)
        assert_reflection_matches(U, M, V)


# (I0, module kind, K): U = elementary:D:I0 (right), M = elementary:A:K or
# amod:K, each with a nonempty carrier U box I box M.
R3_IDENTITY_SAMPLE = (
    ({1}, "A", {1}),
    ({1, 3}, "A", {1, 3}),
    ({2}, "amod", {1, 2}),
    ({2, 3}, "amod", {3}),
    ({1, 2}, "amod", {3}),
    ({1}, "amod", {2, 3}),
)


def test_join_identity_and_hand_walker_at_rank3(am3):
    for I0, kind, K in R3_IDENTITY_SAMPLE:
        U = dualize(elementary(am3, I0, "D"))
        M = elementary(am3, K, "A") if kind == "A" else left_module_from_right_idem(am3, K)
        composite = assert_identity_matches(U, M)
        assert composite.cols, (I0, M.name)
        assert composite == Gf2Matrix.identity(composite.cols), (I0, M.name)


def test_join_identity_on_every_cap_and_candidate_at_rank3(am3):
    start = time.time()
    for I0 in am3.all_idempotent_subsets():
        U = dualize(elementary(am3, I0, "D"))
        for M in left_module_candidates(am3):
            assert join_identity_check(U, M), (I0, M.name)
    elapsed = time.time() - start
    assert elapsed < 30, f"128 rank-3 identity checks took {elapsed:.1f}s"


def test_join_symmetry_on_128_triples_at_rank3(am3):
    subs = list(am3.all_idempotent_subsets())
    mods = list(left_module_candidates(am3))
    start = time.time()
    for I0, J0, m in random.Random(33).sample(list(itertools.product(subs, subs, mods)), 128):
        U = dualize(elementary(am3, I0, "D"))
        assert join_symmetry_verdict(U, m, elementary(am3, J0, "D")), (I0, J0, m.name)
    elapsed = time.time() - start
    assert elapsed < 30, f"128 rank-3 symmetry verdicts took {elapsed:.1f}s"


def test_three_joins_at_rank3(am3):
    start = time.time()
    U = dualize(elementary(am3, {1}, "D"))
    V = elementary(am3, {1}, "D")
    M = left_module_from_right_idem(am3, {1})
    assert three_joins(U, M, dd_identity(am3), M, V)
    elapsed = time.time() - start
    assert elapsed < 30, f"one rank-3 three_joins took {elapsed:.1f}s"


def test_invalid_counted_slice_is_a_mismatch(r3_file):
    # The domain count of the rank-3 twisting slice violates its structure
    # equation; the CLI reports that as a failed comparison, not a traceback.
    rc, out = _run(["nice", r3_file, "slice"])
    assert rc == 2
    assert out.splitlines()[-1].startswith(
        "comparison: mismatch (counted model fails its structure equation at "
    )
    rc, out = _run(["check", r3_file, "nice"])
    assert rc == 2
    assert "nice: FAIL\n  slice: counted model fails its structure equation at " in out


def test_nice_mismatch_does_not_depend_on_hash_seed(r3_file):
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "strandjoin.cli", "nice", r3_file, "slice"],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 2
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


@pytest.mark.xfail(
    strict=True,
    reason="the rank-3 twisting-slice domain count violates its structure equation",
)
def test_count_domains_validates_at_rank3(am3):
    assert check_structure(count_domains(build_twisting_slice_diagram(am3.arc_diagram))) is None
