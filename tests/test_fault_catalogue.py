"""The catalogue of planted faults that the check suites must catch.

Each test breaks one library function in process and runs the `check` suite
that should see it on Z2.  A suite that still prints PASS with the fault in
place checks nothing there; such a fault is a strict xfail naming the
ROADMAP item that would mend it, so mending the item turns it into a
failing XPASS.
"""

import io

import pytest

from conftest import forget_models, nabla_one_action_term_dropped, nabla_unit_terms
from strandjoin import ainf, join, nice_diagram, standard_models, tensor
from strandjoin.arc_diagram import Z2, serialize
from strandjoin.cli import SUITES, run
from strandjoin.gf2 import ChainComplexError, ChainComplexGf2, StructureError
from strandjoin.strands import ProductTable, enumerate_basis


def _run(tmp_path, command, *args) -> tuple[int, str]:
    p = tmp_path / "Z2.arcd"
    p.write_text(serialize(Z2))
    buf = io.StringIO()
    return run([command, str(p), *args], buf), buf.getvalue()


def _check(tmp_path, suite) -> tuple[int, str]:
    return _run(tmp_path, "check", suite)


@pytest.fixture()
def fresh_z2():
    """Z2's algebra with no models kept, before the test and after it: a
    planted fault reaches the builds kept once per algebra, and nothing built
    under it outlives the test."""
    am = enumerate_basis(Z2)
    forget_models(am)
    yield
    forget_models(am)


def _plant_table(monkeypatch, name: str, table: dict) -> None:
    """Z2's diff_table or mult_table replaced for the test, and the caches
    read off it dropped until the test ends."""
    am = enumerate_basis(Z2)
    monkeypatch.setitem(am.__dict__, name, table)
    for derived in ("preimages", "opposite"):
        monkeypatch.delitem(am.__dict__, derived, raising=False)


def _verdicts(out: str) -> dict:
    """suite -> PASS or FAIL, off the verdict lines of `check all`."""
    return dict(line.split(": ") for line in out.splitlines() if line.split(":")[0] in SUITES)


def _plant_function(monkeypatch, real, fake) -> None:
    """fake in place of the library function real, in every module that binds it."""
    for module in (ainf, join, standard_models, tensor):
        for name, value in vars(module).items():
            if value is real:
                monkeypatch.setattr(module, name, fake)


def _without_unit_terms(M, nabla_table=join._nabla_table) -> dict:
    """nabla's table without its unital terms."""
    table = {key: set(outs) for key, outs in nabla_table(M).items()}
    for key, outs in nabla_unit_terms(M).items():
        table[key] -= outs
    return {key: outs for key, outs in table.items() if outs}


def test_homotopy_catches_slots_summed_at_their_own_generator_only(tmp_path, monkeypatch):
    # The solver drops the terms that start at a generator with an entry into
    # the slot's, so the H it returns, if any, has dH != t.
    monkeypatch.setattr(ainf, "_reaching", lambda m: {g: {g} for g in m.gens})
    rc, out = _check(tmp_path, "homotopy")
    assert rc == 2 and "homotopy: FAIL\n  plant-and-recover trial " in out


def test_nice_catches_strips_never_blocked(tmp_path, monkeypatch):
    # Every strip and rectangle counts, whatever points of g lie inside it, so
    # the counted slice is no longer a bimodule.
    monkeypatch.setattr(nice_diagram.PlanarDiagram, "_strip_ok", lambda self, g, moving, polys: True)
    rc, out = _check(tmp_path, "nice")
    assert rc == 2
    assert "nice: FAIL\n  slice: counted model fails its structure equation at " in out


def test_nice_catches_a_dropped_right_action(tmp_path, monkeypatch):
    # The count keeps its differential and left action, which still satisfy
    # the structure equation, but its right action is missing from the table.
    real = nice_diagram.PlanarDiagram._multi_strip_move

    def left_only(self, elem, g, by_obj, genset, side):
        return None if side == 1 else real(self, elem, g, by_obj, genset, side)

    monkeypatch.setattr(nice_diagram.PlanarDiagram, "_multi_strip_move", left_only)
    rc, out = _check(tmp_path, "nice")
    assert rc == 2
    assert "nice: FAIL\n  slice: table mismatch at " in out


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 14: the join suite checks only d(c_A) = 0, which the zero morphism passes",
)
def test_join_catches_a_zero_cancellation_morphism(tmp_path, monkeypatch):
    real = join.cancel_cA
    monkeypatch.setattr(join, "cancel_cA", lambda am: ainf.Morphism(real(am).src, real(am).dst, {}))
    rc, out = _check(tmp_path, "join")
    assert rc == 2 and "join: FAIL\n" in out


def test_sfh_catches_an_empty_nabla(tmp_path, monkeypatch, fresh_z2):
    # The joins of caps are then zero, so they read back no product.
    monkeypatch.setattr(join, "_nabla_table", lambda M: {})
    rc, out = _check(tmp_path, "sfh")
    assert rc == 2 and "sfh: FAIL\n" in out


@pytest.mark.parametrize("suite", ["join", "sfh"])
def test_join_and_sfh_catch_nabla_with_only_its_unit_terms(tmp_path, monkeypatch, fresh_z2,
                                                           suite):
    # d(nabla) != 0 without the action terms, and the joins of caps read back
    # only the products by idempotents.
    monkeypatch.setattr(join, "_nabla_table", nabla_unit_terms)
    rc, out = _check(tmp_path, suite)
    assert rc == 2 and f"{suite}: FAIL\n" in out


@pytest.mark.parametrize(
    "suite, line",
    [("join", "d(nabla) != 0 for A.i[1]"),
     ("sfh", "join-composite action disagrees with the direct action")],
    ids=["join", "sfh"],
)
def test_join_and_sfh_catch_nabla_without_its_unit_terms(tmp_path, monkeypatch, fresh_z2,
                                                         suite, line):
    # d(nabla) != 0 without the unit terms, and the joins of caps read back
    # no action of an idempotent.
    monkeypatch.setattr(join, "_nabla_table", _without_unit_terms)
    rc, out = _check(tmp_path, suite)
    assert rc == 2 and f"{suite}: FAIL\n" in out and f"\n  {line}\n" in out


@pytest.mark.parametrize("suite", ["join", "sfh"])
def test_join_and_sfh_catch_one_nabla_action_term_dropped(tmp_path, monkeypatch, fresh_z2,
                                                          suite):
    # d(nabla) != 0, and the join of caps reads back one action term short.
    monkeypatch.setattr(join, "_nabla_table", nabla_one_action_term_dropped(join._nabla_table))
    rc, out = _check(tmp_path, suite)
    assert rc == 2 and f"{suite}: FAIL\n" in out


def test_every_suite_but_homotopy_catches_a_missing_product(tmp_path, monkeypatch, fresh_z2):
    # The product of two non-idempotents, 1.7 = 3, read as 0: associativity,
    # the anti-homomorphisms and every model built on the algebra fail, and the
    # join suite reports its failing candidate instead of raising.
    am = enumerate_basis(Z2)
    assert am.mult_table[(1, 7)] == {3} and not (am.is_idempotent_elem(1) or am.is_idempotent_elem(7))
    table = ProductTable(am.mult_table)
    del table[(1, 7)]
    _plant_table(monkeypatch, "mult_table", table)
    rc, out = _check(tmp_path, "all")
    assert rc == 2
    assert _verdicts(out) == {s: "PASS" if s == "homotopy" else "FAIL" for s in SUITES}



@pytest.mark.parametrize("suite", ["structures", "join"])
def test_a_model_that_fails_validation_is_built_once(tmp_path, monkeypatch, fresh_z2, suite):
    # With 1.7 = 3 missing, A fails its structure equation.  The models built
    # on A raise its kept failure instead of building and validating A again,
    # and each still reports it.
    am = enumerate_basis(Z2)
    table = ProductTable(am.mult_table)
    del table[(1, 7)]
    _plant_table(monkeypatch, "mult_table", table)
    real, built = standard_models.algebra_module, []

    def counting(am, gens, right, name):
        built.append(name)
        return real(am, gens, right, name)

    monkeypatch.setattr(standard_models, "algebra_module", counting)
    rc, out = _check(tmp_path, suite)
    assert rc == 2 and out.count("  A: structure equation fails at ((), 1, (7, 10))\n") == 2
    assert built.count("A") == 1

def test_dga_sfh_and_blocks_catch_d_squared_nonzero(tmp_path, monkeypatch, fresh_z2):
    # d(2) = 6 and d(6) = 4, so d^2(2) = 4.
    am = enumerate_basis(Z2)
    assert not am.diff_table[2] and am.diff_table[6] == {4}
    _plant_table(monkeypatch, "diff_table", {**am.diff_table, 2: frozenset({6})})
    rc, out = _check(tmp_path, "all")
    verdicts = _verdicts(out)
    assert rc == 2 and list(verdicts) == list(SUITES)
    assert verdicts["dga"] == verdicts["sfh"] == "FAIL"
    assert _run(tmp_path, "blocks") == (2, "error: d^2 != 0\n")


@pytest.mark.parametrize("suite", ["join", "all"])
def test_join_reports_a_double_whose_d_squared_fails(tmp_path, monkeypatch, fresh_z2, suite):
    # Every complex's d^2 check fails, the doubles' included: the join suite
    # reports it as its FAIL line, as sfh does, instead of raising.
    def fail(c):
        raise ChainComplexError("d^2 != 0")

    monkeypatch.setattr(ChainComplexGf2, "check_d_squared", fail)
    rc, out = _check(tmp_path, suite)
    assert rc == 2 and "join: FAIL\n  d^2 != 0\n" in out


def test_join_lists_every_candidate_whose_nabla_fails(tmp_path, monkeypatch, fresh_z2):
    # Each candidate's pair bimodule fails with its own message: one failing
    # candidate hides none of the later ones.
    def planted(M):
        raise StructureError(f"{M.name}: planted")

    monkeypatch.setattr(join, "pair_bimodule", planted)
    rc, out = _check(tmp_path, "join")
    names = ["elemA([])", "A.i[]", "elemA([1])", "A.i[1]",
             "elemA([2])", "A.i[2]", "elemA([1, 2])", "A.i[1, 2]"]
    assert rc == 2 and out.endswith("join: FAIL\n" + "".join(f"  {n}: planted\n" for n in names))


def test_join_catches_a_box_without_its_unital_interaction(tmp_path, monkeypatch, fresh_z2):
    # The type-D factor's idempotent emissions dropped before each box: the
    # chains skip them anyway, so only the unital one-input action is lost.
    # The join suite's doubles and c_A stop being cycles; sfh boxes only
    # structureless caps, which emit nothing.
    real = tensor.box

    def box(m, n):
        side = 0 if n.left_type == "D" and m.right_type == "A" else 2
        d = n if side == 0 else m
        alg = d.left_alg if side == 0 else d.right_alg
        table = {k: {o for o in outs if not alg.is_idempotent_elem(o[side])}
                 for k, outs in d.table.items()}
        d = ainf.ModuleStructure(d.kind, d.left_alg, d.right_alg, d.gens, d.lidem, d.ridem,
                                 table, name=d.name)
        return real(m, d) if side == 0 else real(d, n)

    _plant_function(monkeypatch, real, box)
    rc, out = _check(tmp_path, "all")
    assert rc == 2
    assert _verdicts(out) == {s: "FAIL" if s == "join" else "PASS" for s in SUITES}
    assert "\n  d(c_A) != 0\n" in out


def test_suites_reading_the_algebra_bimodule_catch_a_failing_alg_as_aa(tmp_path, monkeypatch,
                                                                      fresh_z2):
    # A without its right action 1.7 = 3, while the algebra's own tables stay
    # whole: dga, variants and the suites that never build A as a bimodule pass.
    real = standard_models.alg_as_aa

    def alg_as_aa(am):
        A = real(am)
        assert A.table[((), 1, (7,))] == {(None, 3, None)}
        table = {k: v for k, v in A.table.items() if k != ((), 1, (7,))}
        return ainf.validated(ainf.ModuleStructure("AA", am, am, A.gens, A.lidem, A.ridem, table,
                                                   name="A"))

    _plant_function(monkeypatch, real, alg_as_aa)
    rc, out = _check(tmp_path, "all")
    assert rc == 2
    failing = {"structures", "join", "nice"}
    assert _verdicts(out) == {s: "FAIL" if s in failing else "PASS" for s in SUITES}
    assert out.count("  A: structure equation fails at ((), 1, (7, 10))\n") == 5


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 14: IdDD without one chord still satisfies its structure equation, "
    "and no suite checks that c_A induces an isomorphism at each cap pair",
)
def test_suites_catch_dd_identity_missing_one_chord(tmp_path, monkeypatch, fresh_z2):
    # The first firing of x_{1}: every suite still prints PASS, while the cap
    # homologies of IA^IA differ from those of IdDA at four cap pairs.
    real = standard_models.identity_firings

    def one_chord_short(am):
        firings = dict(real(am))
        firings[frozenset({1})] = firings[frozenset({1})][1:]
        return firings

    monkeypatch.setattr(standard_models, "identity_firings", one_chord_short)
    rc, out = _check(tmp_path, "all")
    assert rc == 2 and "FAIL\n" in out


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP items 5 and 12: every module the suites join is DG-type, so nabla's "
    "terms fill no input slot and only empty chains of U are looked up",
)
def test_join_reading_suites_catch_u_chains_looked_up_in_reverse(tmp_path, monkeypatch, fresh_z2):
    # U's chains keyed by the tuple they fill read backwards (FOUND 91).
    real = join._d_chain_ends

    def reversed_on_u(D, kmax, side):
        chains = real(D, kmax, side)
        return {(seq[::-1] if side == 2 else seq, idem): v for (seq, idem), v in chains.items()}

    monkeypatch.setattr(join, "_d_chain_ends", reversed_on_u)
    rc, out = _check(tmp_path, "all")
    assert rc == 2 and "FAIL\n" in out
