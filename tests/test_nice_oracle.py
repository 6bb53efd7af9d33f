"""Differential tests: `PlanarDiagram` against the original methods in
`tests/nice_oracle.py`, on the ladder diagrams and seeded random ones, each
as a twisting slice and with every cap, and on the slices of every rank-3
diagram with one arc or two.  The sweeps of the ladders and random diagrams
assert that the oracle's polygon emptiness test both passes and blocks, so
the library's arc-order rule is compared on cases of either outcome."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from nice_oracle import OraclePlanarDiagram
from diagrams import random_diagram
from strandjoin.arc_diagram import Z0, Z1, Z2, ArcDiagram, flip_type
from strandjoin.nice_diagram import PlanarDiagram, count_domains

_POINTS = ("x1", "x2", "x3", "x4", "x5", "x6")
# The rank-3 ladder matches x_i with x_{i+3} (the i % 3 pattern of the other
# tests); the nested diagram matches x_i with x_{7-i}.
R3_INTERLEAVED = ArcDiagram((_POINTS,), {p: i % 3 + 1 for i, p in enumerate(_POINTS)}, "alpha")
R3_NESTED = ArcDiagram((_POINTS,), {p: min(i, 5 - i) + 1 for i, p in enumerate(_POINTS)}, "alpha")


@pytest.fixture
def polygon_tests(monkeypatch) -> list:
    """The outcomes of the oracle's polygon emptiness tests, as they are made."""
    outcomes = []
    polygons = OraclePlanarDiagram._strip_ok

    def recorded(self, g, moving, polys):
        got = polygons(self, g, moving, polys)
        outcomes.append(got)
        return got

    monkeypatch.setattr(OraclePlanarDiagram, "_strip_ok", recorded)
    return outcomes


def _random_alpha_diagrams(n: int) -> list:
    rng = random.Random(20261018)
    out = []
    for _ in range(n):
        z = random_diagram(rng, max_rank=3)
        out.append(z if z.kind == "alpha" else flip_type(z))
    return out


def _matchings(points: tuple):
    """Every perfect matching of the points, as lists of pairs."""
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for k, other in enumerate(rest):
        for m in _matchings(rest[:k] + rest[k + 1 :]):
            yield [(first, other)] + m


def _rank3_one_or_two_arc_diagrams() -> list:
    """The 60 alpha-type rank-3 diagrams on x1..x6 with one arc, or two whose
    first holds one to three points; pairs are numbered by first point."""
    out = []
    for cut in (0, 1, 2, 3):
        arcs = (_POINTS[:cut], _POINTS[cut:]) if cut else (_POINTS,)
        for m in _matchings(_POINTS):
            out.append(ArcDiagram(arcs, {p: i for i, pair in enumerate(m, 1) for p in pair}, "alpha"))
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


def test_rank3_one_or_two_arc_slices_match_oracle():
    """The regions, rectangle counts and strip actions of every slice on
    ROADMAP item 6's list of rank-3 diagrams, against the oracle's
    merged-boundary walk and polygon emptiness test."""
    diagrams = _rank3_one_or_two_arc_diagrams()
    assert len(diagrams) == 60
    rectangles = actions = 0
    for z in diagrams:
        new, old = PlanarDiagram(z), OraclePlanarDiagram(z)
        assert len(new.regions) == len(old.regions)
        for rn, ro in zip(new.regions, old.regions):
            assert (rn["corners"], rn["boundary"]) == (ro["corners"], ro["boundary"])
        gens = tuple(sorted(new.enumerate_generators(), key=sorted))
        table = new.differential_table(gens)
        assert table == old.differential_table(gens)
        rectangles += sum(map(len, table.values()))
        left, right = new.action_tables(gens)
        assert (left, right) == old.action_tables(gens)
        actions += sum(map(len, left.values())) + sum(map(len, right.values()))
    assert rectangles > 0
    assert actions == 18790
