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
