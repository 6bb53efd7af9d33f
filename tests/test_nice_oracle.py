"""Differential tests: `PlanarDiagram` against the original methods in
`tests/nice_oracle.py`, on the ladder diagrams and seeded random ones, each
as a twisting slice and with every cap.  Every strip and rectangle
emptiness test the library makes on them is also run on `Fraction`s."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from nice_oracle import OraclePlanarDiagram, in_closed_polygon
from diagrams import random_diagram
from strandjoin import nice_diagram
from strandjoin.arc_diagram import Z0, Z1, Z2, ArcDiagram, flip_type
from strandjoin.nice_diagram import PlanarDiagram, count_domains

_POINTS = ("x1", "x2", "x3", "x4", "x5", "x6")
# The rank-3 ladder matches x_i with x_{i+3} (the i % 3 pattern of the other
# tests); the nested diagram matches x_i with x_{7-i}.
R3_INTERLEAVED = ArcDiagram((_POINTS,), {p: i % 3 + 1 for i, p in enumerate(_POINTS)}, "alpha")
R3_NESTED = ArcDiagram((_POINTS,), {p: min(i, 5 - i) + 1 for i, p in enumerate(_POINTS)}, "alpha")


@pytest.fixture
def polygon_tests(monkeypatch) -> list:
    """The outcomes of the library's point-in-polygon tests, each checked
    against the `Fraction` version as it is made."""
    outcomes = []
    scaled = nice_diagram._in_closed_polygon

    def checked(p, poly):
        got = scaled(p, poly)
        assert got == in_closed_polygon(p, poly), (p, poly)
        outcomes.append(got)
        return got

    monkeypatch.setattr(nice_diagram, "_in_closed_polygon", checked)
    return outcomes


def _random_alpha_diagrams(n: int) -> list:
    rng = random.Random(20261018)
    out = []
    for _ in range(n):
        z = random_diagram(rng, max_rank=3)
        out.append(z if z.kind == "alpha" else flip_type(z))
    return out


def _models(z) -> list:
    """The slice (None) and every cap subset of z."""
    pairs = range(1, z.rank + 1)
    return [None] + [frozenset(c) for r in range(z.rank + 1) for c in combinations(pairs, r)]


def _halves(cycle) -> list:
    return [(h["from"], h["to"], h["tag"]) for h in cycle]


def _compare_with_oracle(z) -> int:
    """Assert the library and the oracle agree on z's slice and caps; return
    the number of action entries compared."""
    actions = 0
    for cap in _models(z):
        new = PlanarDiagram(z, cap)
        old = OraclePlanarDiagram(z, cap)
        for chart in new.charts:
            assert new._chart_faces(chart) == [_halves(c) for c in old._chart_faces(chart)]
        assert len(new.regions) == len(old.regions)
        for rn, ro in zip(new.regions, old.regions):
            assert rn["corners"] == ro["corners"]
            assert rn["boundary"] == ro["boundary"]
            assert rn["faces"] == [(chart, _halves(c)) for chart, c in ro["faces"]]
            assert new._region_cycle(rn) == [
                (chart, (e["from"], e["to"], e["tag"])) for chart, e in old._region_cycle(ro)
            ]
        gens = new.enumerate_generators()
        assert gens == old.enumerate_generators()
        if cap is None:
            gens = tuple(sorted(gens, key=sorted))
            assert new.differential_table(gens) == old.differential_table(gens)
            left, right = new.action_tables(gens)
            assert (left, right) == old.action_tables(gens)
            actions += len(left) + len(right)
        mn, mo = count_domains(new), count_domains(old)
        assert mn.gens == mo.gens
        assert mn.table == mo.table
    return actions


def test_ladders_match_oracle(polygon_tests):
    actions = sum(_compare_with_oracle(z) for z in (Z0, Z1, Z2, R3_INTERLEAVED, R3_NESTED))
    assert actions > 0
    assert set(polygon_tests) == {False, True}


def test_random_diagrams_match_oracle(polygon_tests):
    actions = sum(_compare_with_oracle(z) for z in _random_alpha_diagrams(25))
    assert actions > 0
    assert set(polygon_tests) == {False, True}
