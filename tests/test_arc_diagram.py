import pytest

from diagrams import random_diagram
from strandjoin.arc_diagram import (
    ArcDiagram,
    ParseError,
    Z0,
    Z1,
    Z2,
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
