"""The catalogue of planted faults that the check suites must catch.

Each test breaks one library function in process and runs the `check` suite
that should see it on Z2.  A suite that still prints PASS with the fault in
place checks nothing there; such a fault is a strict xfail naming the
ROADMAP item that would mend it, so mending the item turns it into a
failing XPASS.
"""

import io

import pytest

from strandjoin import ainf, join
from strandjoin.arc_diagram import Z2, serialize
from strandjoin.cli import run


def _check(tmp_path, suite) -> tuple[int, str]:
    p = tmp_path / "Z2.arcd"
    p.write_text(serialize(Z2))
    buf = io.StringIO()
    return run(["check", str(p), suite], buf), buf.getvalue()


def test_homotopy_catches_slots_summed_at_their_own_generator_only(tmp_path, monkeypatch):
    # The solver drops the terms that start at a generator with an entry into
    # the slot's, so the H it returns, if any, has dH != t.
    monkeypatch.setattr(ainf, "_reaching", lambda m: {g: {g} for g in m.gens})
    rc, out = _check(tmp_path, "homotopy")
    assert rc == 2 and "homotopy: FAIL\n  plant-and-recover trial " in out


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 14: the join suite checks only d(c_A) = 0, which the zero morphism passes",
)
def test_join_catches_a_zero_cancellation_morphism(tmp_path, monkeypatch):
    real = join.cancel_cA
    monkeypatch.setattr(join, "cancel_cA", lambda am: ainf.zero_morphism(real(am).src, real(am).dst))
    rc, out = _check(tmp_path, "join")
    assert rc == 2 and "join: FAIL\n" in out
