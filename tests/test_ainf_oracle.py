"""Differential tests: the support-driven checker against the brute-force oracle."""

import os
import random
import subprocess
import sys

from ainf_oracle import (
    diff,
    diff_window,
    equation,
    identity_morphism,
    oracle_check_structure,
    oracle_morphism_diff,
    structure_window,
)
from strandjoin.ainf import (
    ModuleStructure,
    Morphism,
    _diff_table,
    _max_input_len,
    _morphism_slots,
    _structure_sums,
    check_structure,
    dualize,
    morphism_diff,
    oppositize,
)
from strandjoin.arc_diagram import Z0, Z1, Z2
from strandjoin.join import (
    cancel_cA,
    dd_sandwich_da_bimodule,
    left_module_candidates,
    nabla,
    pair_bimodule,
)
from strandjoin.nice_diagram import build_cap_diagram, build_twisting_slice_diagram, count_domains
from strandjoin.standard_models import (
    alg_as_aa,
    da_identity,
    dd_identity,
    dual_alg_as_aa,
    elementary,
    left_module_from_right_idem,
)
from strandjoin.strands import AlgebraModel
from strandjoin.tensor import box

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def standard_models(am):
    out = [alg_as_aa(am), dual_alg_as_aa(am), da_identity(am), dd_identity(am)]
    for I in am.all_idempotent_subsets():
        for side in ("A", "D"):
            out.append(elementary(am, I, side))
            out.append(dualize(elementary(am, I, side)))
    return out


def box_results(am):
    out = [
        box(alg_as_aa(am), dd_identity(am)),
        box(da_identity(am), dd_identity(am)),
    ]
    for I in am.all_idempotent_subsets():
        eD = elementary(am, I, "D")
        out.append(box(alg_as_aa(am), eD))
        out.append(box(da_identity(am), eD))
    return out


def valid_families(am):
    z = am.arc_diagram
    yield from standard_models(am)
    for I in am.all_idempotent_subsets():
        yield left_module_from_right_idem(am, I)
    for M in left_module_candidates(am):
        yield pair_bimodule(M)
    yield dd_sandwich_da_bimodule(am)
    yield from box_results(am)
    yield count_domains(build_twisting_slice_diagram(z))
    for I in am.all_idempotent_subsets():
        yield count_domains(build_cap_diagram(z, I))
    # the mirrored kinds (AD and the reflected AA/DD) of a few of the above
    for m in (da_identity(am), dd_identity(am), left_module_from_right_idem(am, frozenset())):
        yield dualize(m)
        yield oppositize(m)


def reevaluate(m, witness) -> frozenset:
    return equation(m, witness)


def test_checker_agrees_with_oracle_on_valid_families(am0, am1, am2):
    seen = set()
    for am in (am0, am1, am2):
        for m in valid_families(am):
            assert check_structure(m) is None, m.name
            assert oracle_check_structure(m) is None, m.name
            seen.add(m.kind)
    assert seen == {"AA", "DA", "AD", "DD"}


def _corrupt(m, rng):
    """m with one output dropped from a stored entry or added at a compatible key."""
    table = {k: set(v) for k, v in m.table.items()}
    if table and rng.random() < 0.5:
        key = rng.choice(sorted(table, key=repr))
        table[key].discard(rng.choice(sorted(table[key], key=repr)))
    else:
        slots = _morphism_slots(m, m, max(1, _max_input_len(m, 0), _max_input_len(m, 2)))
        key, val = rng.choice([s for s in slots if s[1] not in table.get(s[0], ())])
        table.setdefault(key, set()).add(val)
    return ModuleStructure(
        m.kind, m.left_alg, m.right_alg, m.gens, m.lidem, m.ridem, table,
        name=f"corrupt({m.name})",
    )


def corruption_bases(am1, am2):
    bases = []
    for am in (am1, am2):
        bases += [alg_as_aa(am), da_identity(am), dd_identity(am), dualize(da_identity(am))]
        bases += [left_module_from_right_idem(am, I) for I in am.all_idempotent_subsets()]
    bases.append(dd_sandwich_da_bimodule(am1))
    bases.append(pair_bimodule(left_module_from_right_idem(am1, {1})))
    return bases


def test_checker_agrees_with_oracle_on_corruptions(am1, am2):
    rng = random.Random(20261018)
    bases = corruption_bases(am1, am2)
    failing = 0
    for trial in range(240):
        m = _corrupt(bases[trial % len(bases)], rng)
        witness = check_structure(m)
        assert witness == oracle_check_structure(m), (trial, m.name)
        if witness is not None:
            failing += 1
            assert reevaluate(m, witness), (trial, m.name, witness)
    # most single-entry corruptions break the structure equation
    assert failing >= 120


def test_known_corruption_witness(am2):
    # the entry deleted by test_check_structure_catches_corruption
    from strandjoin.strands import ABasisElem

    good = alg_as_aa(am2)
    s13 = am2.index[ABasisElem((("a1", "a3"),), frozenset())]
    table = dict(good.table)
    del table[((s13,), am2.idempotent_index({1}), ())]
    m = ModuleStructure("AA", am2, am2, good.gens, good.lidem, good.ridem, table)
    witness = check_structure(m)
    assert witness is not None and witness == oracle_check_structure(m)
    assert reevaluate(m, witness)


def _single_slot_morphisms(m, rng, n, max_len=2):
    slots = _morphism_slots(m, m, max_len)
    return [Morphism(m, m, {k: {v}}) for k, v in rng.sample(slots, min(n, len(slots)))]


def morphism_families(am0, am1, am2):
    rng = random.Random(4)
    morphisms = []
    for am in (am0, am1, am2):
        morphisms += [nabla(M) for M in left_module_candidates(am)]
        morphisms.append(cancel_cA(am))
        for m in standard_models(am)[:4] + [left_module_from_right_idem(am, frozenset())]:
            morphisms += [identity_morphism(m), Morphism(m, m, {})]
            # the oracle needs seconds per two-input slot of the Z2 algebra bimodules
            max_len = 1 if am is am2 and m.kind == "AA" else 2
            morphisms += _single_slot_morphisms(m, rng, 6, max_len)
        morphisms += _single_slot_morphisms(dualize(da_identity(am)), rng, 6)
    return morphisms


def test_morphism_diff_agrees_with_oracle(am0, am1, am2):
    for f in morphism_families(am0, am1, am2):
        assert morphism_diff(f).table == oracle_morphism_diff(f).table, f.src.kind


# The library sums every kind forward through one entry shape; the oracle
# writes a sum out per kind.  These compare the two on every window input,
# not only at the witnesses, and check that no nonzero library sum lies
# outside the window.


def _equation_agrees_on_window(m) -> tuple[int, int]:
    """(window inputs, inputs where the equation is nonzero), both sums agreeing."""
    sums = {key: outs for per_gen in _structure_sums(m) for key, outs in per_gen.items()}
    inputs = nonzero = 0
    for key in structure_window(m):
        value = equation(m, key)
        assert sums.pop(key, frozenset()) == value, (m.name, key)
        inputs += 1
        nonzero += bool(value)
    assert not sums, (m.name, "sums outside the window", sorted(sums, key=repr)[:3])
    return inputs, nonzero


def test_equation_agrees_with_per_kind_sums_on_valid_families(am0, am1, am2):
    seen = set()
    for am in (am0, am1, am2):
        for m in valid_families(am):
            if _equation_agrees_on_window(m)[0]:
                seen.add(m.kind)
    assert seen == {"AA", "DA", "AD", "DD"}


def test_equation_agrees_with_per_kind_sums_on_corruptions(am1, am2):
    rng = random.Random(20261018)
    bases = corruption_bases(am1, am2)
    failing = 0
    for trial in range(240):
        m = _corrupt(bases[trial % len(bases)], rng)
        failing += bool(_equation_agrees_on_window(m)[1])
    assert failing >= 120


def test_diff_agrees_with_per_kind_sums(am0, am1, am2):
    seen = set()
    for f in morphism_families(am0, am1, am2):
        table = _diff_table(f.src, f.dst, f.table)
        for key in diff_window(f):
            assert table.pop(key, frozenset()) == diff(f, key), (f.src.kind, key)
            seen.add(f.src.kind)
        assert not table, (f.src.kind, "sums outside the window", sorted(table, key=repr)[:3])
    assert seen == {"AA", "DA", "AD", "DD"}


def test_corrupted_dd_witness_is_a_generator(am1, am2):
    rng = random.Random(11)
    found = 0
    for am in (am1, am2):
        base = dd_identity(am)
        for _ in range(10):
            m = _corrupt(base, rng)
            witness = check_structure(m)
            assert witness == oracle_check_structure(m)
            if witness is not None:
                found += 1
                assert witness[0] == witness[2] == () and witness[1] in m.genset
                assert reevaluate(m, witness)
    assert found


_WITNESS_SCRIPT = """
import random
from strandjoin.arc_diagram import Z1, Z2
from strandjoin.ainf import check_structure
from strandjoin.strands import enumerate_basis
from test_ainf_oracle import _corrupt, corruption_bases
rng = random.Random(7)
bases = corruption_bases(enumerate_basis(Z1), enumerate_basis(Z2))
for trial in range(60):
    print(check_structure(_corrupt(bases[trial % len(bases)], rng)))
"""


def _run_with_hash_seed(seed: str, code: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join([SRC, os.path.dirname(os.path.abspath(__file__))])
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout


def test_witnesses_do_not_depend_on_hash_seed():
    first = _run_with_hash_seed("1", _WITNESS_SCRIPT)
    assert first.count("\n") == 60
    assert first == _run_with_hash_seed("2", _WITNESS_SCRIPT)


def test_inverse_index_is_built_on_first_use():
    am = AlgebraModel(Z2)
    assert "preimages" not in am.__dict__
    check_structure(alg_as_aa(am))
    assert "preimages" in am.__dict__
    dpre, mpre = am.preimages
    assert am.preimages[0] is dpre
    for c, pairs in mpre.items():
        for a, b in pairs:
            assert c in am.mult_table[(a, b)]
            assert not am.is_idempotent_elem(a) and not am.is_idempotent_elem(b)
    for c, elems in dpre.items():
        assert all(c in am.diff_table[a] for a in elems)
    assert "preimages" not in am.opposite.__dict__


def test_no_insertion_reaches_an_idempotent(am1, am2, am3):
    # The enumerator adds no pullbacks of the implicit unital entries: d and
    # mu2 of non-idempotent elements never contain an idempotent.
    for am in (am1, am2, am3, am2.opposite):
        dpre, mpre = am.preimages
        assert not any(am.is_idempotent_elem(c) for c in list(dpre) + list(mpre))


def _left_module(am, gens, table):
    r = _first_mover(am)
    idem = {g: am.left_idem[r] for g in gens}
    return ModuleStructure("AA", am, None, gens, idem, {g: frozenset() for g in gens}, table)


def _first_mover(am):
    return next(i for i in range(am.dim) if not am.is_idempotent_elem(i))


def _two_input_entries(r):
    # m(r, r; x) = y and m(r, r; y) = z: the equation is nonzero at
    # (r, r, r, r; x), twice the longest entry.
    return {((r, r), "x", ()): {(None, "y", None)}, ((r, r), "y", ()): {(None, "z", None)}}


def test_window_is_the_brute_force_window(am1):
    # A corrupted module that fails at (r, r; w) (m(r; w) = w) and, with four
    # inputs, at the earlier generator x.  Both checkers look up to twice the
    # longest entry, so both report the failure at x.
    r = _first_mover(am1)
    table = _two_input_entries(r)
    table[((r,), "w", ())] = {(None, "w", None)}
    m = _left_module(am1, ("x", "y", "z", "w"), table)
    assert reevaluate(m, ((r,) * 4, "x", ())) == {(None, "z", None)}
    assert check_structure(m) == oracle_check_structure(m) == ((r,) * 4, "x", ())


def test_checker_sees_failures_past_the_window(am1):
    m = _left_module(am1, ("x", "y", "z"), _two_input_entries(_first_mover(am1)))
    assert check_structure(m) is not None
