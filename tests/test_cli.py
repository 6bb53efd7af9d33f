import io
import os
import subprocess
import sys
from random import Random

import pytest

import strandjoin
from diagrams import random_diagram
from strandjoin.arc_diagram import Z1, Z2, flip_type, serialize
from strandjoin.cli import SUITES, run
from strandjoin.strands import enumerate_basis


@pytest.fixture()
def files(tmp_path):
    p1 = tmp_path / "Z1.arcd"
    p1.write_text(serialize(Z1))
    p2 = tmp_path / "Z2.arcd"
    p2.write_text(serialize(Z2))
    bad = tmp_path / "bad.arcd"
    bad.write_text("type: alpha\narc: a1 a2 a3\nmatch 1: a1 a2\n")
    notw = tmp_path / "not2to1.arcd"
    notw.write_text("type: alpha\narc: a1 a2 a3 a4\nmatch 1: a1 a2\nmatch 1: a3 a4\n")
    return {"Z1": str(p1), "Z2": str(p2), "bad": str(bad), "not2to1": str(notw)}


def _run(argv):
    buf = io.StringIO()
    rc = run(argv, buf)
    return rc, buf.getvalue()


def test_validate_ok_and_errors(files):
    rc, out = _run(["validate", files["Z1"]])
    assert rc == 0 and "ok" in out
    rc, out = _run(["validate", files["bad"]])
    assert rc == 1 and "violation" in out
    rc, out = _run(["validate", files["not2to1"]])
    assert rc == 1
    rc, out = _run(["validate", "/nonexistent/file.arcd"])
    assert rc == 1


def test_validate_reports_closed_components(files):
    rc, out = _run(["validate", files["Z1"]])
    assert rc == 0 and out.splitlines()[2:] == ["ok", "closed components: 1"]
    rc, out = _run(["validate", files["Z2"]])
    assert rc == 0 and out.splitlines()[2:] == ["ok", "closed components: 0"]
    # A malformed diagram prints only its violations.
    rc, out = _run(["validate", files["bad"]])
    assert rc == 1
    assert out.splitlines()[2:] == ["violation: matching domain differs from the set of marked points"]


def test_a_file_that_is_not_utf8_is_an_input_error(tmp_path):
    path = tmp_path / "binary.arcd"
    path.write_bytes(b"\xff\xfe\x00bad")
    rc, out = _run(["validate", str(path)])
    header, seed, error = out.splitlines()
    assert rc == 1 and header.startswith("# strandjoin ") and seed == "# seed: 0"
    assert error.startswith("error: ") and "can't decode byte 0xff" in error
    for argv in (["algebra", str(path)], ["check", str(path)]):
        rc, out = _run(argv)
        assert rc == 1 and out == f"error: cannot read {path}: {error[len('error: '):]}\n", argv


def test_blocks_output(files):
    rc, out = _run(["blocks", files["Z1"]])
    assert rc == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert "{}\t{}\t1" in lines
    assert "{1}\t{1}\t2" in lines


def test_algebra_dump(files):
    rc, out = _run(["algebra", files["Z2"]])
    assert rc == 0 and "dim 16" in out


def test_join_and_double_commands(files):
    rc, out = _run(
        ["join", files["Z1"], "elementary:D:{1}", "amod:{1}", "elementary:D:{1}"]
    )
    assert rc == 0 and "# matrix" in out
    rc, out = _run(["double", files["Z1"], "amod:{1}"])
    assert rc == 0 and "# diagonal cycle" in out
    rc, out = _run(["join", files["Z1"], "alg", "amod:{1}", "elementary:D:{1}"])
    assert rc == 1


def test_nice_command(files):
    rc, out = _run(["nice", files["Z1"], "slice"])
    assert rc == 0 and "isomorphic" in out
    rc, out = _run(["nice", files["Z2"], "cap:{1,2}"])
    assert rc == 0 and "isomorphic" in out
    rc, out = _run(["nice", files["Z1"], "bogus"])
    assert rc == 1


def test_nice_beta_diagram_is_an_input_error(tmp_path):
    beta = tmp_path / "Z2beta.arcd"
    beta.write_text(serialize(flip_type(Z2)))
    rc, out = _run(["nice", str(beta), "slice"])
    assert rc == 1
    assert out.splitlines()[-1].startswith("error: ")


def test_check_on_beta_diagrams_skips_nice(tmp_path):
    beta = tmp_path / "Z2beta.arcd"
    beta.write_text(serialize(flip_type(Z2)))
    not_applicable = "nice: not applicable (planar diagrams are constructed for alpha-type input)"
    rc, out = _run(["check", str(beta), "all"])
    assert rc == 0
    assert out.splitlines()[2:] == [
        "dga: PASS",
        "variants: PASS",
        "structures: PASS",
        "join: PASS",
        not_applicable,
        "sfh: PASS",
        "homotopy: PASS",
    ]
    beta.write_text(serialize(flip_type(Z1)))
    rc, out = _run(["check", str(beta), "nice"])
    assert rc == 0 and out.splitlines()[2:] == [not_applicable]


# The algebraic suites on random 1-3 arc diagrams of both types (dim <= 136).
# Seeds 0-18 draw 9 alpha and 10 beta diagrams of dim 2-79: about 7 s in all
# on 2 vCPUs, inside the 15 s this sweep may add to the suite.
SWEEP = ("dga", "variants", "structures", "join", "sfh")


@pytest.mark.parametrize("seed", range(19))
def test_check_suites_pass_off_ladder(tmp_path, seed):
    z = random_diagram(Random(seed), max_rank=3)
    assert enumerate_basis(z).dim <= 136
    path = tmp_path / "z.arcd"
    path.write_text(serialize(z))
    # A beta draw runs every suite in one `check all`, where nice does not apply.
    verdicts = {}
    for suite in ("all",) if z.kind == "beta" else SWEEP:
        rc, out = _run(["check", str(path), suite])
        assert rc == 0, out
        verdicts.update(line.split(": ", 1) for line in out.splitlines()[2:])
    assert all(verdicts[s] == "PASS" for s in SWEEP), verdicts
    if z.kind == "beta":
        assert verdicts["nice"].startswith("not applicable"), verdicts


def test_module_entry_point(files):
    src = os.path.dirname(os.path.dirname(strandjoin.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "strandjoin.cli", "validate", files["Z1"]],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "ok" in proc.stdout.splitlines()


def test_check_suites(files):
    rc, out = _run(["check", files["Z1"], "dga"])
    assert rc == 0 and "dga: PASS" in out
    rc, out = _run(["check", files["Z1"], "all"])
    assert rc == 0
    for name in ("dga", "variants", "structures", "join", "nice", "sfh"):
        assert f"{name}: PASS" in out


def test_determinism_byte_identical(files):
    for cmd in (
        ["blocks", files["Z2"]],
        ["join", files["Z1"], "elementary:D:{1}", "amod:{1}", "elementary:D:{}"],
        ["algebra", files["Z2"]],
    ):
        rc1, out1 = _run(cmd)
        rc2, out2 = _run(cmd)
        assert rc1 == rc2 == 0
        assert out1 == out2


def test_seed_appears_in_header(files):
    rc, out = _run(["--seed", "99", "blocks", files["Z1"]])
    assert rc == 0 and "# seed: 99" in out


def test_bad_flags_exit_one(files, capsys):
    assert _run(["--max-homotopy-len", "nope", "blocks", files["Z1"]]) == (1, "")
    assert _run(["--seed", "nope", "blocks", files["Z1"]]) == (1, "")


# The grammar `[--seed N | --seed=N] COMMAND ARGS...`, with help at the top or
# after a command.  Help may go to out or to sys.stdout; a usage error writes
# nothing to out.
@pytest.mark.parametrize(
    "argv, shown",
    [
        (["--help"], ["validate", "algebra", "blocks", "join", "double", "check", "nice", "--seed"]),
        (["-h"], ["validate", "check", "nice"]),
        (["--seed", "3", "--help"], ["validate", "check", "nice"]),
        (["check", "--help"], ["check", "dga", "homotopy", "all"]),
        (["blocks", "-h"], ["blocks"]),
        (["blocks", "Z1", "--help"], ["blocks"]),
    ],
)
def test_help_exits_zero(files, capsys, argv, shown):
    rc, out = _run([files.get(a, a) for a in argv])
    printed = out + capsys.readouterr().out
    assert rc == 0 and all(word in printed for word in shown), printed


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus", "Z1"],
        ["blocks"],
        ["join", "Z1", "elementary:D:{1}", "amod:{1}"],
        ["blocks", "Z1", "extra"],
        ["check", "Z1", "all", "extra"],
        ["--seed"],
        ["--seed=", "blocks", "Z1"],
        ["--seed", "5"],
        ["check", "Z1", "bogus"],
        ["blocks", "Z1", "--seed", "3"],
        ["blocks", "--foo", "Z1"],
        ["--foo", "blocks", "Z1"],
    ],
)
def test_usage_errors_exit_one_and_write_nothing(files, capsys, argv):
    rc, out = _run([files.get(a, a) for a in argv])
    assert rc == 1 and out == ""
    assert "error" in capsys.readouterr().err


def test_seed_may_be_joined_to_its_flag(files):
    rc, out = _run(["--seed=5", "blocks", files["Z1"]])
    assert rc == 0 and out.splitlines()[1] == "# seed: 5"
    rc, out = _run(["--seed", "-7", "--seed", "8", "check", files["Z1"]])
    assert rc == 0 and out.splitlines()[1] == "# seed: 8"
    assert out.splitlines()[2:] == [f"{s}: PASS" for s in SUITES]


def test_check_all_on_z2(files):
    rc, out = _run(["check", files["Z2"], "all"])
    assert rc == 0
    assert out.count("PASS") == 7


def test_join_descriptor_roles(files):
    ok = ("elementary:D:{1}", "amod:{1}", "elementary:D:{}")
    cases = [
        (0, "elementary:A:{1}", "error: U descriptor must be elementary:D:{..}, got 'elementary:A:{1}'"),
        (0, " alg ", "error: U descriptor must be elementary:D:{..}, got 'alg'"),
        (1, "elementary:D:{1}", "error: M descriptor must be elementary:A:{..} or amod:{..}, got 'elementary:D:{1}'"),
        (1, "amod:{3}", "error: subset '{3}' out of range 1..2"),
        (2, "amod:{1}", "error: V descriptor must be elementary:D:{..}, got 'amod:{1}'"),
        (2, "elementary:D:{1", "error: bad subset '{1'"),
    ]
    for role, desc, message in cases:
        args = list(ok)
        args[role] = desc
        rc, out = _run(["join", files["Z2"], *args])
        assert rc == 1 and out == message + "\n", (desc, out)
    rc, out = _run(["double", files["Z2"], "elementary:D:{1}"])
    assert rc == 1
    assert out == "error: M descriptor must be elementary:A:{..} or amod:{..}, got 'elementary:D:{1}'\n"


@pytest.mark.parametrize(
    "argv",
    [["algebra"], ["blocks"], ["check"], ["nice", "slice"], ["double", "amod:{1}"],
     ["join", "elementary:D:{1}", "amod:{1}", "elementary:D:{1}"]],
    ids=lambda argv: argv[0],
)
def test_commands_other_than_validate_reject_an_invalid_diagram(files, argv):
    # a1 a2 a3 on the arc, only a1 and a2 matched: one error line, no header.
    rc, out = _run([argv[0], files["bad"], *argv[1:]])
    message = "matching domain differs from the set of marked points"
    assert rc == 1 and out == f"error: invalid diagram {files['bad']}: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [["double", "amod:{a}"], ["join", "elementary:D:{1}", "amod:{a}", "elementary:D:{1}"]],
    ids=lambda argv: argv[0],
)
def test_a_subset_that_is_not_integers_is_a_bad_subset(files, argv):
    rc, out = _run([argv[0], files["Z2"], *argv[1:]])
    assert rc == 1 and out == "error: bad subset '{a}'\n"


# The grammar of each argument role on Z2: (text, error line), the error None
# for a form the role takes.  U, M and V are read with surrounding spaces
# stripped, MODEL as given; a subset is read with spaces stripped around it
# and its entries.  The prefix of another role, or of no role, is a role error.
_ROLE_OF_U = "error: U descriptor must be elementary:D:{..}, got "
_ROLE_OF_M = "error: M descriptor must be elementary:A:{..} or amod:{..}, got "
_ROLE_OF_MODEL = "error: model must be slice or cap:{..}, got "
ARGUMENTS = {
    "U": [
        ("elementary:D:{1}", None),
        (" elementary:D:{} ", None),
        ("elementary:D: { 1 , 2 } ", None),
        ("elementary:A:{1}", _ROLE_OF_U + "'elementary:A:{1}'"),
        ("elementary:D", _ROLE_OF_U + "'elementary:D'"),
        (" alg ", _ROLE_OF_U + "'alg'"),
        ("elementary:D:{9}", "error: subset '{9}' out of range 1..2"),
        ("elementary:D:{0}", "error: subset '{0}' out of range 1..2"),
        ("elementary:D:{1", "error: bad subset '{1'"),
        ("elementary:D:{1}x", "error: bad subset '{1}x'"),
        ("elementary:D:{1}:x", "error: bad subset '{1}:x'"),
    ],
    "M": [
        ("amod:{1}", None),
        ("amod:{}", None),
        ("elementary:A:{}", None),
        (" elementary:A:{} ", None),
        ("amod:{9}", "error: subset '{9}' out of range 1..2"),
        ("amod:{1", "error: bad subset '{1'"),
        ("amod:{a}", "error: bad subset '{a}'"),
        ("amod:{1,}", "error: bad subset '{1,}'"),
        ("amod:1", "error: bad subset '1'"),
        ("amod:", "error: bad subset ''"),
        ("amod:{1}:{2}", "error: bad subset '{1}:{2}'"),
        ("elementary:A:{1}:x", "error: bad subset '{1}:x'"),
        ("elementary:X:{1}", _ROLE_OF_M + "'elementary:X:{1}'"),
        ("elementary:D:{1}", _ROLE_OF_M + "'elementary:D:{1}'"),
        ("AMOD:{1}", _ROLE_OF_M + "'AMOD:{1}'"),
        ("", _ROLE_OF_M + "''"),
        # Forms no role takes.
        ("nonsense", _ROLE_OF_M + "'nonsense'"),
        ("alg", _ROLE_OF_M + "'alg'"),
        ("dualalg", _ROLE_OF_M + "'dualalg'"),
        ("id:DA", _ROLE_OF_M + "'id:DA'"),
        ("id:DD", _ROLE_OF_M + "'id:DD'"),
        ("gamma:{1}:{1,2}", _ROLE_OF_M + "'gamma:{1}:{1,2}'"),
    ],
    "V": [
        ("elementary:D:{1,2}", None),
        ("amod:{1}", "error: V descriptor must be elementary:D:{..}, got 'amod:{1}'"),
    ],
    "MODEL": [
        ("slice", None),
        ("cap:{1,2}", None),
        ("cap:{}", None),
        ("cap: {1} ", None),
        (" slice", _ROLE_OF_MODEL + "' slice'"),
        ("slice ", _ROLE_OF_MODEL + "'slice '"),
        ("slicex", _ROLE_OF_MODEL + "'slicex'"),
        ("Slice", _ROLE_OF_MODEL + "'Slice'"),
        ("cap", _ROLE_OF_MODEL + "'cap'"),
        (" cap:{1}", _ROLE_OF_MODEL + "' cap:{1}'"),
        ("bogus", _ROLE_OF_MODEL + "'bogus'"),
        ("cap:", "error: bad subset ''"),
        ("cap:{3}", "error: subset '{3}' out of range 1..2"),
        ("cap:{1}:x", "error: bad subset '{1}:x'"),
    ],
}


@pytest.mark.parametrize("role", list(ARGUMENTS))
def test_argument_grammar(files, role):
    # Each argument in its role, the others fixed: exit 1 and one error line
    # after the header (nice writes it before reading MODEL), or exit 0.
    argv = {
        "U": ["join", "{}", "amod:{1}", "elementary:D:{1}"],
        "M": ["double", "{}"],
        "V": ["join", "elementary:D:{1}", "amod:{1}", "{}"],
        "MODEL": ["nice", "{}"],
    }[role]
    for text, error in ARGUMENTS[role]:
        rc, out = _run([argv[0], files["Z2"], *(text if a == "{}" else a for a in argv[1:])])
        lines = [line for line in out.splitlines() if not line.startswith("#")]
        if error is None:
            assert rc == 0, (text, out)
        else:
            assert (rc, lines) == (1, [error]), text


def test_arguments_name_the_builders_models(am2):
    from strandjoin.ainf import dualize
    from strandjoin.cli import _argument
    from strandjoin.standard_models import elementary, left_module_from_right_idem

    assert _argument(am2, "amod:{1}", "M") is left_module_from_right_idem(am2, {1})
    assert _argument(am2, " elementary:A:{} ", "M") is elementary(am2, (), "A")
    assert _argument(am2, "elementary:D:{1}", "V") is elementary(am2, {1}, "D")
    u, ref = _argument(am2, "elementary:D:{1}", "U"), dualize(elementary(am2, {1}, "D"))
    assert (u.kind, u.gens, u.lidem, u.ridem, u.table) == (
        ref.kind, ref.gens, ref.lidem, ref.ridem, ref.table
    )
    assert u.left_alg is None and u.right_alg is am2
    assert _argument(am2, "slice", "MODEL") is None
    assert _argument(am2, "cap: {1} ", "MODEL") == {1}


def test_a_slice_diagram_that_is_not_nice_is_a_structure_error(files, monkeypatch):
    from strandjoin.nice_diagram import PlanarDiagram

    monkeypatch.setattr(PlanarDiagram, "check_nice", lambda d: ["interior region with 6 corners"])
    error = "slice diagram not nice: ['interior region with 6 corners']"
    rc, out = _run(["nice", files["Z2"], "slice"])
    assert rc == 2 and out.splitlines()[2:] == [f"error: {error}"]
    rc, out = _run(["check", files["Z2"], "nice"])
    assert rc == 2 and out.splitlines()[2:] == ["nice: FAIL", f"  {error}"]


def test_the_constructors_reject_an_invalid_diagram_as_input(files):
    from strandjoin.arc_diagram import InputError, parse
    from strandjoin.nice_diagram import PlanarDiagram
    from strandjoin.strands import AlgebraModel

    with open(files["bad"]) as fh:
        z = parse(fh.read())
    message = "invalid arc diagram: ['matching domain differs from the set of marked points']"
    for build in (AlgebraModel, PlanarDiagram):
        with pytest.raises(InputError) as err:
            build(z)
        assert str(err.value) == message


def test_check_all_validates_each_per_algebra_model_once(files, tmp_path, am3, structure_checks):
    from conftest import forget_models, join_suite_names, structures_suite_names

    r3 = tmp_path / "R3.arcd"
    r3.write_text(serialize(am3.arc_diagram))
    for am, path in ((enumerate_basis(Z2), files["Z2"]), (am3, str(r3))):
        structure_checks.clear()
        forget_models(am)
        rc, out = _run(["check", path, "all"])
        if am is am3:  # the rank-3 twisting slice's domain count fails (ROADMAP item 6)
            assert rc == 2 and out.count(": PASS\n") == 6 and "nice: FAIL\n" in out
        else:
            assert rc == 0 and out.count(": PASS\n") == 7
        expected = join_suite_names(am) | structures_suite_names(am)
        expected |= {"caps", "count(slice)"}  # the sfh and nice suites
        assert structure_checks.names() == expected
        assert not structure_checks.repeated()
        # The suite's builders validate what they build; it checks only the dual.
        assert [m.name for m, asked in structure_checks if asked] == ["A^"]


def _model_state(m):
    return (m, m.gens, dict(m.lidem), dict(m.ridem), dict(m.table), m.name)


def test_commands_leave_the_memoized_models_unchanged(files):
    from conftest import forget_models
    from strandjoin.ainf import ModuleStructure

    am = enumerate_basis(Z2)
    forget_models(am)
    commands = [
        ["check", "all"],
        ["join", "elementary:D:{1}", "amod:{1}", "elementary:D:{1}"],
        ["join", "elementary:D:{2}", "elementary:A:{1}", "elementary:D:{2}"],
        ["double", "amod:{1,2}"],
        ["nice", "slice"],
        ["nice", "cap:{1}"],
        ["check", "all"],
    ]
    seen: dict = {}
    for command, *rest in commands:
        rc, _ = _run([command, files["Z2"], *rest])
        assert rc == 0, command
        for key, m in am.models.items():
            if isinstance(m, ModuleStructure):
                state = _model_state(m)
                assert seen.setdefault(key, state) == state, (command, key)
    names = {key[0] for key in seen}
    assert {"alg_as_aa", "dd_middle", "elementary", "left_module_from_right_idem"} <= names


def test_check_all_fails_sfh_on_an_empty_nabla(files, monkeypatch):
    # The zero join morphism is a cycle, so the join suite passes it; the sfh
    # suite reads the product off the join and fails.
    from conftest import forget_models
    from strandjoin import join

    am = enumerate_basis(Z2)
    forget_models(am)
    monkeypatch.setattr(join, "_nabla_table", lambda M: {})
    try:
        rc, out = _run(["check", files["Z2"], "all"])
    finally:  # the models built on the empty nabla go with it
        forget_models(am)
    assert rc == 2
    assert "join: PASS\n" in out
    assert "sfh: FAIL\n  join-composite action disagrees with the direct action\n" in out
    assert out.count(": PASS\n") == 6


def _failing_check(monkeypatch, name, witness):
    """Make the structure equation of the modules called `name` fail at `witness`."""
    from strandjoin import ainf

    real = ainf.check_structure
    monkeypatch.setattr(ainf, "check_structure", lambda m: witness if m.name == name else real(m))


def test_check_structures_reports_a_failing_model(files, monkeypatch):
    from conftest import forget_models

    forget_models(enumerate_basis(Z2))
    witness = ((), ("i", (1,)), ())
    _failing_check(monkeypatch, "IdDA", witness)
    rc, out = _run(["check", files["Z2"], "structures"])
    assert rc == 2
    assert out.endswith(f"structures: FAIL\n  IdDA: structure equation fails at {witness}\n")


@pytest.mark.parametrize("name", ["(A.i[1](x)dual)", "IAI", "IA^IA"])
def test_check_join_reports_a_failing_model(files, monkeypatch, name):
    # A pair bimodule, the middle of the double and the cancellation source.
    from conftest import forget_models

    forget_models(enumerate_basis(Z2))
    witness = ((), "w", ())
    _failing_check(monkeypatch, name, witness)
    rc, out = _run(["check", files["Z2"], "join"])
    assert rc == 2 and "join: FAIL\n" in out
    assert out.endswith(f"  {name}: structure equation fails at {witness}\n")


@pytest.mark.parametrize(
    "argv, name",
    [
        (["join", "elementary:D:{1}", "amod:{1}", "elementary:D:{1}"], "A"),
        (["double", "amod:{1}"], "IAI"),
    ],
)
def test_dump_commands_report_a_failing_model(files, monkeypatch, argv, name):
    # The algebra bimodule behind the join's codomain; the middle of the double.
    from conftest import forget_models

    forget_models(enumerate_basis(Z2))
    witness = ((), "w", ())
    _failing_check(monkeypatch, name, witness)
    rc, out = _run([argv[0], files["Z2"], *argv[1:]])
    assert rc == 2
    assert out == f"error: {name}: structure equation fails at {witness}\n"


@pytest.mark.parametrize("model, name", [("slice", "A"), ("cap:{1}", "elemA([1])")])
def test_nice_reports_a_failing_model(files, monkeypatch, model, name):
    # The command exits 2 on the model it compares with; the suite reports it.
    from conftest import forget_models

    forget_models(enumerate_basis(Z2))
    witness = ((), "w", ())
    _failing_check(monkeypatch, name, witness)
    rc, out = _run(["nice", files["Z2"], model])
    assert rc == 2 and out.endswith(f"\nerror: {name}: structure equation fails at {witness}\n")
    rc, out = _run(["check", files["Z2"], "nice"])
    assert rc == 2
    assert out.endswith(f"nice: FAIL\n  {name}: structure equation fails at {witness}\n")


def test_double_reports_a_failing_d_squared(files, monkeypatch):
    from strandjoin.gf2 import ChainComplexError, ChainComplexGf2

    def fail(c):
        raise ChainComplexError("d^2 != 0")

    monkeypatch.setattr(ChainComplexGf2, "check_d_squared", fail)
    rc, out = _run(["double", files["Z2"], "amod:{1}"])
    assert rc == 2 and out == "error: d^2 != 0\n"


def test_check_homotopy_plants_a_nonzero_differential(monkeypatch):
    # The suite builds one solver and hands it five planted targets.
    from strandjoin import ainf
    from strandjoin.cli import _suite_homotopy

    solvers, targets = [], []
    real = ainf.homotopy_solver

    def recording(src, dst, max_len):
        solve = real(src, dst, max_len)
        solvers.append(solve)
        return lambda t: targets.append(t) or solve(t)

    monkeypatch.setattr(ainf, "homotopy_solver", recording)
    assert _suite_homotopy(enumerate_basis(Z2), Random(0)) == []
    assert len(solvers) == 1 and len(targets) == 5
    assert any(targets)


@pytest.mark.parametrize(
    "suite, name", [("homotopy", "A.i[1]"), ("sfh", "A.i[1]")]
)
def test_suites_report_a_failing_model(files, monkeypatch, suite, name):
    # The module the homotopy suite plants on, which the sfh suite also joins
    # with caps.
    from conftest import forget_models

    forget_models(enumerate_basis(Z2))
    witness = ((), "w", ())
    _failing_check(monkeypatch, name, witness)
    rc, out = _run(["check", files["Z2"], suite])
    assert rc == 2
    assert out.endswith(f"{suite}: FAIL\n  {name}: structure equation fails at {witness}\n")


def test_sfh_suite_reports_a_failing_d_squared(files, monkeypatch):
    from conftest import forget_models
    from strandjoin.gf2 import ChainComplexError, ChainComplexGf2

    def fail(c):
        raise ChainComplexError("d^2 != 0")

    forget_models(enumerate_basis(Z2))
    monkeypatch.setattr(ChainComplexGf2, "check_d_squared", fail)
    rc, out = _run(["check", files["Z2"], "sfh"])
    assert rc == 2 and out.endswith("sfh: FAIL\n  d^2 != 0\n")


def _counting_homology(monkeypatch) -> dict:
    """Count the calls of gf2.homology, wherever it is bound, and list the
    complexes ChainComplexGf2.check_d_squared is called on."""
    import strandjoin.gf2 as gf2

    calls = {"homology": 0, "d_squared": []}
    real_homology, real_check = gf2.homology, gf2.ChainComplexGf2.check_d_squared

    def homology(c):
        calls["homology"] += 1
        return real_homology(c)

    def check_d_squared(c):
        calls["d_squared"].append(c)
        real_check(c)

    for name, module in list(sys.modules.items()):
        if name.startswith("strandjoin") and getattr(module, "homology", None) is real_homology:
            monkeypatch.setattr(module, "homology", homology)
    monkeypatch.setattr(gf2.ChainComplexGf2, "check_d_squared", check_d_squared)
    return calls


def test_blocks_and_double_read_dimensions_off_one_rank(files, monkeypatch):
    # No cycle representatives are built, and each complex's d^2 is checked
    # once: one complex per block, and the double.
    from conftest import forget_models

    am = enumerate_basis(Z2)
    forget_models(am)
    calls = _counting_homology(monkeypatch)
    rc, _ = _run(["blocks", files["Z2"]])
    checked = calls["d_squared"]
    blocks = len(list(am.all_idempotent_subsets())) ** 2
    assert rc == 0 and calls["homology"] == 0
    assert len(checked) == len({id(c) for c in checked}) == blocks
    checked.clear()
    rc, _ = _run(["double", files["Z2"], "amod:{1}"])
    assert rc == 0 and calls["homology"] == 0 and len(checked) == 1


@pytest.mark.parametrize("z", [Z1, Z2], ids=["Z1", "Z2"])
def test_double_dimension_matches_homology(tmp_path, z):
    # The printed dim - 2 rank d against the homology of the same complex.
    from strandjoin.gf2 import homology
    from strandjoin.join import diagonal
    from strandjoin.standard_models import elementary, left_module_from_right_idem

    path = tmp_path / "z.arcd"
    path.write_text(serialize(z))
    am = enumerate_basis(z)
    for I in am.all_idempotent_subsets():
        label = "{" + ",".join(map(str, sorted(I))) + "}"
        for form, m in (("amod:", left_module_from_right_idem(am, I)),
                        ("elementary:A:", elementary(am, I, "A"))):
            rc, out = _run(["double", str(path), form + label])
            assert rc == 0
            want = homology(diagonal(m)[0])[0]
            assert out.endswith(f"# homology dimension: {want}\n")
