"""The coordinate map `gf2.homology(c)[2]`: a cycle's class in the
representative basis.

A cycle built as a chosen sum of representatives plus boundaries has exactly
the chosen indices as coordinates, and the coordinates equal the h-part of the
dense oracle's solution of [representatives | image of d], the system the
map's pivots eliminate.
"""

import random

import pytest

import gf2_oracle
from strandjoin.arc_diagram import Z1, Z2
from strandjoin.gf2 import Gf2Matrix, homology
from strandjoin.standard_models import gamma_block
from strandjoin.strands import enumerate_basis
from test_gf2_oracle import R3


def _solve_coordinates(c, reps, z) -> list[int]:
    cols = [("h", i) for i in range(len(reps))] + [("b", b) for b in c.basis]
    images = {("h", i): v for i, v in enumerate(reps)}
    images.update({("b", b): c.differential.column(b) for b in c.basis})
    x = gf2_oracle.solve(Gf2Matrix.from_columns(c.basis, cols, images), z)
    return sorted(k[1] for k in x if k[0] == "h")


def _blocks():
    for z in (Z1, Z2, R3):
        am = enumerate_basis(z)
        for I in am.all_idempotent_subsets():
            for J in am.all_idempotent_subsets():
                yield gamma_block(am, I, J)


def test_coordinates_of_built_cycles():
    rng = random.Random(3)
    checked = 0
    for c in _blocks():
        _, reps, coordinates = homology(c)
        for _ in range(4):
            chosen = sorted(i for i in range(len(reps)) if rng.random() < 0.5)
            z = frozenset()
            for i in chosen:
                z ^= reps[i]
            for b in c.basis:
                if rng.random() < 0.3:
                    z ^= c.differential.column(b)
            assert coordinates(z) == chosen == _solve_coordinates(c, reps, z)
            checked += bool(chosen)
    assert checked >= 50


def test_non_cycles_are_rejected():
    for c in _blocks():
        for b in c.basis:
            if c.differential.column(b):
                with pytest.raises(ValueError):
                    homology(c)[2](frozenset({b}))
                return
    raise AssertionError("no block with a nonzero differential")
