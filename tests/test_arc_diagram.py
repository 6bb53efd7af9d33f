import itertools
import random

import pytest

from diagrams import closed_components_by_half_edges, ladder, random_diagram
from strandjoin.arc_diagram import (
    ArcDiagram,
    ParseError,
    Z0,
    Z1,
    Z2,
    closed_components,
    flip_type,
    parse,
    reverse,
    serialize,
    validate,
)


def test_canonical_diagrams_valid():
    for z in (Z0, Z1, Z2):
        assert validate(z) == []


def test_non_two_to_one_matching_rejected():
    z = ArcDiagram((("a1", "a2", "a3"),), {"a1": 1, "a2": 1, "a3": 1})
    assert any("2-to-1" in p for p in validate(z))


def test_two_arc_parallel_matching_valid():
    z = ArcDiagram((("a1", "a2"), ("a3", "a4")), {"a1": 1, "a3": 1, "a2": 2, "a4": 2})
    assert validate(z) == []


def test_reverse_examples():
    assert reverse(Z1).arcs == (("a2", "a1"),)
    assert reverse(reverse(Z2)) == Z2
    assert reverse(Z2).arcs == (("a4", "a3", "a2", "a1"),)
    assert reverse(Z2).matching == Z2.matching


def test_flip_type_examples():
    assert flip_type(Z1).kind == "beta"
    assert flip_type(flip_type(Z1)) == Z1
    assert reverse(flip_type(Z1)) == flip_type(reverse(Z1))


def test_variants_form_klein_four_orbit():
    orbit = {Z2, reverse(Z2), flip_type(Z2), reverse(flip_type(Z2))}
    assert len(orbit) == 4
    for z in orbit:
        assert validate(z) == []
        assert reverse(reverse(z)) == z
        assert flip_type(flip_type(z)) == z


def test_validate_commutes_with_variants():
    for z in (Z1, Z2):
        assert validate(reverse(z)) == validate(flip_type(z)) == validate(z)


def test_serialize_parse_round_trip():
    for z in (Z0, Z1, Z2, flip_type(Z2), reverse(Z2)):
        text = serialize(z)
        assert parse(text) == z
        assert serialize(parse(text)) == text


def test_parse_errors_report_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse("type: alpha\nbogus line\n")
    with pytest.raises(ParseError, match="line 3"):
        parse("type: alpha\narc: a1 a2\nmatch 1: a1 a2 a3\n")
    with pytest.raises(ParseError, match="type"):
        parse("arc: a1 a2\n")


def test_random_diagrams_are_valid():
    import random

    rng = random.Random(123)
    for _ in range(10):
        z = random_diagram(rng)
        assert validate(z) == []
        assert z.rank <= 3


@pytest.mark.parametrize(
    "z, message",
    [(ArcDiagram((("a1", "a2"), ("a1", "a2")), {"a1": 1, "a2": 1}),
      "duplicate point identifiers across arcs"),
     (ArcDiagram(Z1.arcs, Z1.matching, "gamma"), "unknown kind 'gamma'"),
     (ArcDiagram(Z1.arcs, {"a1": 2, "a2": 2}), "pair indices are not 1..k")],
    ids=["duplicate-points", "unknown-kind", "pair-indices"],
)
def test_validate_names_each_violation(z, message):
    assert message in validate(z)


@pytest.mark.parametrize(
    "text, message",
    [("type: alpha\ntype: beta\n", "line 2: duplicate type line"),
     ("type: gamma\n", "line 1: type must be alpha or beta"),
     ("type: alpha\narc:\n", "line 2: empty arc"),
     ("type: alpha\narc: a1 a2\nmatch x: a1 a2\n", "line 3: bad match index"),
     ("type: alpha\narc: a1 a2 a3\nmatch 1: a1 a2\nmatch 2: a1 a3\n",
      "line 4: point a1 matched twice")],
    ids=["duplicate-type", "bad-type", "empty-arc", "bad-match-index", "matched-twice"],
)
def test_parse_names_each_error(text, message):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert str(e.value) == message


def test_parse_skips_blank_and_comment_lines():
    # The skipped lines still count: the duplicate type line is line 5.
    text = "# Z1\n\ntype: alpha\n   \narc: a1 a2\n  # one pair\nmatch 1: a1 a2\n"
    assert parse(text) == Z1
    with pytest.raises(ParseError, match="^line 5: duplicate type line$"):
        parse("# Z1\n\ntype: alpha\n   \ntype: alpha\n")


def test_closed_components_on_the_canonical_diagrams_and_ladders():
    assert [closed_components(z) for z in (Z0, Z1, Z2)] == [0, 1, 0]
    assert [closed_components(ladder(k)) for k in range(1, 7)] == [1, 0, 1, 0, 1, 0]
    # x1 | x2 ... x2k with the ladder's matching: no closed component at odd rank.
    assert closed_components(ladder(3, split=True)) == closed_components(ladder(5, split=True)) == 0


def test_closed_components_on_the_rank5_variants_and_the_seeded_sweeps():
    z = ladder(5)
    assert [closed_components(v) for v in (reverse(z), flip_type(z), reverse(flip_type(z)))] == [
        1, 1, 1,
    ]
    # The draws of test_strands_oracle._models and of
    # test_strands.test_random_diagram_oracle_dimension_agreement.
    rng = random.Random(11)
    assert [closed_components(random_diagram(rng, max_rank=3)) for _ in range(4)] == [1, 1, 1, 3]
    rng = random.Random(2024)
    assert [closed_components(random_diagram(rng, max_rank=2)) for _ in range(6)] == [
        2, 0, 1, 0, 2, 0,
    ]


def _matchings(points: tuple):
    """Every perfect matching of points, as {point: pair index 1..k}."""
    if not points:
        yield {}
        return
    first, rest, k = points[0], points[1:], len(points) // 2
    for j, q in enumerate(rest):
        for m in _matchings(rest[:j] + rest[j + 1:]):
            yield {**m, first: k, q: k}


def _diagrams(n: int):
    """Every alpha diagram on the points 1..n, cut into one to four arcs."""
    points = tuple(str(i) for i in range(1, n + 1))
    for cuts in itertools.chain.from_iterable(
        itertools.combinations(range(1, n), m) for m in range(min(4, n))
    ):
        bounds = (0, *cuts, n)
        arcs = tuple(points[a:b] for a, b in zip(bounds, bounds[1:]))
        for matching in _matchings(points):
            yield ArcDiagram(arcs, matching)


def test_one_arc_diagrams_with_no_closed_component():
    # One arc has no closed component only at even rank: F(Z) then has one
    # boundary component and Euler characteristic 1 - k, so k = 2 * genus.
    counts = []
    for k in range(1, 5):
        cs = [closed_components(z) for z in _diagrams(2 * k) if len(z.arcs) == 1]
        counts.append((cs.count(0), len(cs)))
    assert counts == [(0, 1), (1, 3), (0, 15), (21, 105)]


def test_closed_components_match_the_half_edge_oracle():
    total = degenerate = 0
    for n in (2, 4, 6, 8):
        for z in _diagrams(n):
            c = closed_components(z)
            assert c == closed_components_by_half_edges(z), z
            assert closed_components(reverse(z)) == c, z
            assert validate(z) == [], z  # a degenerate diagram stays accepted
            total += 1
            degenerate += c > 0
    assert (total, degenerate) == (7136, 4434)
