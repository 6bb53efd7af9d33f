"""Brute-force reference implementations of `check_structure` and `morphism_diff`.

These evaluate every idempotent-chained input of the window the library
checks (up to one more input than the longest table entry on each side),
for every generator, in the order the chains are enumerated.  The library
evaluates only inputs built from the tables' support; the differential tests
compare the two.  Both evaluate each input with the library's own
per-input sums (`_EQUATIONS`, `_DIFFS`), so only the enumeration differs.
"""

from __future__ import annotations

from strandjoin.ainf import (
    _DIFFS,
    _EQUATIONS,
    Morphism,
    ModuleStructure,
    _chains_from,
    _chains_into,
    _dd_diff,
    _dd_equation,
    _from_aa_key,
    f_max_left,
    f_max_right,
)


def _window(m: ModuleStructure, g, lmax: int, rmax: int):
    """Every chained input of m's kind at g with at most lmax left and rmax right inputs."""
    lefts = [()]
    if m.kind[0] == "A" and m.left_alg is not None:
        lefts = _chains_into(m.left_alg, m.lidem[g], lmax)
    rights = [()]
    if m.kind[1] == "A" and m.right_alg is not None:
        rights = _chains_from(m.right_alg, m.ridem[g], rmax)
    for argsL in lefts:
        for argsR in rights:
            yield _from_aa_key(m.kind, argsL, g, argsR)


def oracle_check_structure(m: ModuleStructure):
    """The first input (in enumeration order) whose structure equation is nonzero."""
    if m.kind == "DD":
        for g in m.gens:
            if _dd_equation(m, g):
                return (g,)
        return None
    equation = _EQUATIONS[m.kind]
    for g in m.gens:
        for key in _window(m, g, m.max_left_len() + 1, m.max_right_len() + 1):
            if equation(m, *key):
                return key
    return None


def oracle_morphism_diff(f: Morphism) -> Morphism:
    """The morphism differential evaluated on every chained input of the window."""
    src, dst = f.src, f.dst
    if f.kind == "DD":
        return Morphism(src, dst, {g: _dd_diff(f, g) for g in src.gens})
    lmax = f_max_left(f) + max(src.max_left_len(), dst.max_left_len(), 1)
    rmax = f_max_right(f) + max(src.max_right_len(), dst.max_right_len(), 1)
    diff = _DIFFS[f.kind]
    table = {}
    for g in src.gens:
        for key in _window(src, g, lmax, rmax):
            table[key] = diff(f, *key)
    return Morphism(src, dst, table)
