import pytest

from strandjoin.arc_diagram import ArcDiagram, Z0, Z1, Z2
from strandjoin.strands import enumerate_basis


@pytest.fixture(scope="session")
def am0():
    return enumerate_basis(Z0)


@pytest.fixture(scope="session")
def am1():
    return enumerate_basis(Z1)


@pytest.fixture(scope="session")
def am2():
    return enumerate_basis(Z2)


@pytest.fixture(scope="session")
def am3():
    """The rank-3 interleaved ladder: x1..x6 on one arc, x_i matched with x_{i+3} (dim 124)."""
    ladder = ArcDiagram(
        (("x1", "x2", "x3", "x4", "x5", "x6"),),
        {"x1": 1, "x4": 1, "x2": 2, "x5": 2, "x3": 3, "x6": 3},
        "alpha",
    )
    return enumerate_basis(ladder)
