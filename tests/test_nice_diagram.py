import itertools

import pytest

from strandjoin.arc_diagram import Z0, Z1, Z2, ArcDiagram
from strandjoin.standard_models import alg_as_aa, elementary
from strandjoin.strands import enumerate_basis
from diagrams import ladder
from nice_oracle import _on_segment
from strandjoin.nice_diagram import (
    PlanarDiagram,
    _seg_intersect,
    _split_segments,
    build_cap_diagram,
    build_twisting_slice_diagram,
    compare_with_algebra,
    count_domains,
)


def _fraction_split(segments):
    """The segment split on Fraction coordinates: the oracle for `_split_segments`."""
    pieces = []
    for (p1, p2, tag) in segments:
        cuts = {p1, p2}
        for (q1, q2, _) in segments:
            if (q1, q2) == (p1, p2):
                continue
            pt = _seg_intersect(p1, p2, q1, q2)
            if pt is not None:
                cuts.add(pt)
            for q in (q1, q2):
                if _on_segment(q, p1, p2):
                    cuts.add(q)
        dx, dy = p2[0] - p1[0], p2[1] - p1[1]
        ordered = sorted(cuts, key=lambda pt: (pt[0] - p1[0]) * dx + (pt[1] - p1[1]) * dy)
        for a, b in zip(ordered, ordered[1:]):
            pieces.append((a, b, tag))
    return pieces


def test_integer_split_matches_fraction_split():
    points = ("x1", "x2", "x3", "x4", "x5", "x6")
    r3 = ArcDiagram((points,), {p: i % 3 + 1 for i, p in enumerate(points)}, "alpha")
    crossings = 0
    for z in (Z1, Z2, r3):
        diagrams = [build_twisting_slice_diagram(z)]
        for r in range(z.rank + 1):
            for cap in itertools.combinations(range(1, z.rank + 1), r):
                diagrams.append(build_cap_diagram(z, cap))
        for d in diagrams:
            for chart in d.charts:
                pieces = _split_segments(chart.segments)
                assert pieces == _fraction_split(chart.segments)
                crossings += len(pieces) - len(chart.segments)
    assert crossings > 150


def test_slice_construction_stats():
    d1 = build_twisting_slice_diagram(Z1)
    assert len([c for c in d1.charts if c.name[0] == "sq"]) == 1
    assert len([c for c in d1.charts if c.name[0] == "h"]) == 1
    d2 = build_twisting_slice_diagram(Z2)
    assert len([c for c in d2.charts if c.name[0] == "sq"]) == 1
    assert len([c for c in d2.charts if c.name[0] == "h"]) == 2
    d0 = PlanarDiagram(Z0)
    assert d0.enumerate_generators() == [frozenset()]


def test_slice_is_nice():
    for z in (Z1, Z2):
        d = build_twisting_slice_diagram(z)
        assert d.check_nice() == []


def test_generator_counts_match_dimensions(am1, am2):
    assert len(build_twisting_slice_diagram(Z1).enumerate_generators()) == am1.dim
    assert len(build_twisting_slice_diagram(Z2).enumerate_generators()) == am2.dim


def test_cap_generators(am1, am2):
    for am, z in ((am1, Z1), (am2, Z2)):
        for I in am.all_idempotent_subsets():
            d = build_cap_diagram(z, I)
            gens = d.enumerate_generators()
            assert len(gens) == 1
            occ = frozenset(d.points[n][0][1] for n in gens[0])
            assert occ == frozenset(range(1, am.k + 1)) - I
            assert d.all_regions_boundary()


def test_slice_comparison(am1, am2):
    for am, z in ((am1, Z1), (am2, Z2)):
        d = build_twisting_slice_diagram(z)
        v = compare_with_algebra(d, alg_as_aa(am))
        assert v.isomorphic, v.witness


def test_cap_comparisons(am1, am2):
    for am, z in ((am1, Z1), (am2, Z2)):
        for I in am.all_idempotent_subsets():
            d = build_cap_diagram(z, I)
            v = compare_with_algebra(d, elementary(am, I, "A"))
            assert v.isomorphic, (I, v.witness)


def test_slice_differential_realizes_crossing_resolution(am2):
    d = build_twisting_slice_diagram(Z2)
    gens = tuple(sorted(d.enumerate_generators(), key=repr))
    diff = d.differential_table(gens)
    src = frozenset({("y", "a1", "a4"), ("y", "a2", "a3")})
    tgt = frozenset({("y", "a1", "a3"), ("y", "a2", "a4")})
    assert diff[src] == {tgt}
    assert diff[tgt] == set()


def test_slice_boundary_action_realizes_concatenation(am1):
    d = build_twisting_slice_diagram(Z1)
    gens = tuple(sorted(d.enumerate_generators(), key=repr))
    left, right = d.action_tables(gens)
    from strandjoin.strands import ABasisElem

    s = am1.index[ABasisElem((("a1", "a2"),), frozenset())]
    x1 = frozenset({("x", 1)})
    assert left[(s, x1)] == {frozenset({("y", "a1", "a2")})}
    assert right[(s, x1)] == {frozenset({("y", "a1", "a2")})}


def test_count_domains_structures_are_valid(am1, am2):
    from strandjoin.ainf import check_structure

    for z in (Z1, Z2):
        d = build_twisting_slice_diagram(z)
        assert check_structure(count_domains(d)) is None


def test_cap_comparison_rejects_wrong_model(am2):
    d = build_cap_diagram(Z2, frozenset({1}))
    v = compare_with_algebra(d, elementary(am2, frozenset({2}), "A"))
    assert not v.isomorphic


def test_beta_diagrams_rejected():
    from strandjoin.arc_diagram import flip_type

    with pytest.raises(ValueError, match="alpha"):
        PlanarDiagram(flip_type(Z1))


def test_cap_circle_counts(am1, am2):
    d = build_cap_diagram(Z1, frozenset({1}))
    assert not d.points  # no beta circles, no intersections
    d = build_cap_diagram(Z1, frozenset())
    assert set(d.points) == {("w", 1)}
    d = build_cap_diagram(Z2, frozenset({2}))
    assert set(d.points) == {("w", 1)}


def test_action_tables_meet_only_generators_holding_the_idempotent(monkeypatch):
    """A basis element is tried on the left only against generators whose
    alpha objects are its right idempotent, and on the right only against
    those whose beta objects are its left idempotent."""
    calls = []
    real = PlanarDiagram._multi_strip_move

    def recorded(self, elem, g, by_obj, genset, side):
        calls.append((elem, g, side))
        return real(self, elem, g, by_obj, genset, side)

    monkeypatch.setattr(PlanarDiagram, "_multi_strip_move", recorded)
    for z, n_calls, n_entries in ((Z2, 128, 40), (ladder(3), 5584, 928)):
        calls.clear()
        am = enumerate_basis(z)
        d = PlanarDiagram(z)
        left, right = d.action_tables(tuple(sorted(d.enumerate_generators(), key=sorted)))
        for elem, g, side in calls:
            e = am.index[elem]
            idem = am.right_idem[e] if side == 0 else am.left_idem[e]
            assert frozenset(d.points[n][side][1] for n in g) == idem
        assert len(calls) == n_calls
        assert len(left) + len(right) == n_entries
