"""The value types behave as the frozen dataclasses they replace.

Each case builds one value twice from differently shaped but equivalent
input, and gives its field names and the repr a frozen dataclass printed.
The first case is a bare subclass of the shared base, which normalises
nothing of its own.
"""

import copy
import pickle

import pytest

from strandjoin.arc_diagram import ArcDiagram, Z2
from strandjoin.gf2 import ChainComplexGf2, Frozen, Gf2Matrix
from strandjoin.join import JoinInstance
from strandjoin.nice_diagram import Chart, ComparisonVerdict
from strandjoin.strands import ABasisElem, enumerate_basis


class Pair(Frozen):
    __slots__ = _fields = ("first", "second")

    def __init__(self, first, second):
        self._init(first, second)


CASES = [
    (lambda: Pair(-1, 2), ("first", "second"), "Pair(first=-1, second=2)"),
    (
        lambda: ArcDiagram([["a", "b"]], {"b": 1, "a": 1}),
        ("arcs", "matching", "kind"),
        "ArcDiagram(arcs=(('a', 'b'),), matching=(('a', 1), ('b', 1)), kind='alpha')",
    ),
    (lambda: ABasisElem([("b", "c"), ("a", "b")], {2}), ("movers", "occupied"), "[a>b,b>c|2]"),
    (
        lambda: Gf2Matrix(["r"], ("c", "d"), [("r", "d")]),
        ("rows", "cols", "nonzero"),
        "Gf2Matrix(rows=('r',), cols=('c', 'd'), nonzero=frozenset({('r', 'd')}))",
    ),
    (
        lambda: ChainComplexGf2([1, 2]),
        ("basis", "differential"),
        "ChainComplexGf2(basis=(1, 2), differential="
        "Gf2Matrix(rows=(1, 2), cols=(1, 2), nonzero=frozenset()))",
    ),
]


@pytest.mark.parametrize("make, fields, text", CASES)
def test_value_contract(make, fields, text):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert hash(a) == hash(tuple(getattr(a, f) for f in fields))
    assert a != object()
    assert repr(a) == text
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(a, f, None)
        with pytest.raises(AttributeError):
            delattr(a, f)
    with pytest.raises(AttributeError):
        a.other = None
    assert a == b
    assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a


def test_values_with_different_fields_differ():
    assert Gf2Matrix(["r"], ["c"], [("r", "c")]) != Gf2Matrix(["r"], ["c"])
    assert ArcDiagram([["a", "b"]], {"a": 1, "b": 1}, "beta") != ArcDiagram(
        [["a", "b"]], {"a": 1, "b": 1}
    )


def test_equal_diagrams_share_the_algebra_cache_entry():
    enumerate_basis(Z2)
    hits = enumerate_basis.cache_info().hits
    copy = ArcDiagram([list(a) for a in Z2.arcs], dict(Z2.matching), Z2.kind)
    assert copy is not Z2
    assert enumerate_basis(copy) is enumerate_basis(Z2)
    assert enumerate_basis.cache_info().hits == hits + 2


def test_basis_element_sorts_its_movers():
    e = ABasisElem([("b", "c"), ("a", "b")], [2])
    assert e.movers == (("a", "b"), ("b", "c")) and e.occupied == frozenset({2})
    assert e == ABasisElem((("a", "b"), ("b", "c")), frozenset({2}))


def test_chain_complex_defaults_to_zero_differential():
    c = ChainComplexGf2(["x", "y"])
    assert c.basis == ("x", "y")
    assert c.differential == Gf2Matrix.zero(("x", "y"), ("x", "y"))


@pytest.mark.parametrize(
    "rows, cols, nonzero",
    [
        (("r", "r"), ("c",), ()),
        (("r",), ("c", "c"), ()),
        (("r",), ("c",), [("s", "c")]),
        (("r",), ("c",), [("r", "d")]),
    ],
)
def test_matrix_rejects_duplicate_and_outside_keys(rows, cols, nonzero):
    with pytest.raises(ValueError):
        Gf2Matrix(rows, cols, nonzero)


def test_records_keep_their_constructors():
    verdict = ComparisonVerdict(False, "why")
    assert (verdict.isomorphic, verdict.witness) == (False, "why")
    c1, c2 = Chart(("sq", 0)), Chart(("sq", 1))
    c1.add((0, 0), (1, 1), "alpha")
    assert c1.segments == [((0, 0), (1, 1), "alpha")] and c2.segments == []
    inst = JoinInstance("dom", "cod", "mat")
    assert (inst.domain, inst.codomain, inst.matrix) == ("dom", "cod", "mat")
