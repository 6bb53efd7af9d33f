import importlib
import itertools
import sys
from collections import Counter

import pytest

from diagrams import ladder
from strandjoin.arc_diagram import Z0, Z1, Z2
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
    return enumerate_basis(ladder(3))


class StructureChecks(list):
    """The `ainf.check_structure` calls seen, as (the module checked, whether
    the structures suite asked for the check itself).  Each module is kept
    alive, so distinct modules never share an id."""

    def names(self) -> set:
        return {m.name for m, _ in self}

    def repeated(self) -> dict:
        """The module objects checked more than once: name -> their check counts."""
        counts = Counter(id(m) for m, _ in self)
        repeats: dict = {}
        for m in {id(m): m for m, _ in self}.values():
            if counts[id(m)] > 1:
                repeats.setdefault(m.name, []).append(counts[id(m)])
        return repeats


@pytest.fixture()
def structure_checks(monkeypatch):
    """Record every structure-equation check until the test ends.

    Each module that binds `check_structure` by name is patched too, after
    every module of the package has been imported.
    """
    from strandjoin import ainf

    for module in ("cli", "join", "nice_diagram", "sfh"):
        importlib.import_module(f"strandjoin.{module}")

    real = ainf.check_structure
    calls = StructureChecks()

    def recording(m):
        # The suite's own check: check_structure <- validated <- _suite_structures.
        caller = sys._getframe(1)
        own = caller.f_code.co_name == "validated" and (
            caller.f_back is not None and caller.f_back.f_code.co_name == "_suite_structures"
        )
        calls.append((m, own))
        return real(m)

    for name, module in list(sys.modules.items()):
        if name.startswith("strandjoin") and getattr(module, "check_structure", None) is real:
            monkeypatch.setattr(module, "check_structure", recording)
    return calls


def join_suite_names(am) -> set:
    """The modules whose structure equation `check <diagram> join` checks."""
    names = {"A", "IAI", "IA^IA", "IdDA", "IdDD"}
    for I in am.all_idempotent_subsets():
        for m in (f"A.i{sorted(I)}", f"elemA({sorted(I)})"):
            names |= {m, f"({m}(x)dual)"}
    return names


def structures_suite_names(am) -> set:
    """The modules whose structure equation `check <diagram> structures` checks."""
    names = {"A", "A^", "IdDA", "IdDD"}
    for I in am.all_idempotent_subsets():
        names |= {f"elemA({sorted(I)})", f"elemD({sorted(I)})"}
    return names


def forget_models(am) -> None:
    """Drop the models built once per algebra, so the next command builds
    (and validates) them as a fresh process would."""
    am.__dict__.pop("models", None)


def three_join_tuples(am):
    """The (U, M, X, N, V) on which criterion 8 runs `three_joins`: U and V the
    elementary type-D caps, M and N the bounded candidates, X the DD identity
    (64 on Z1, 1,024 on Z2)."""
    from strandjoin.ainf import dualize
    from strandjoin.standard_models import dd_identity, elementary, left_module_from_right_idem

    subs = list(am.all_idempotent_subsets())
    X = dd_identity(am)
    for I0, J0, K1, K2 in itertools.product(subs, repeat=4):
        for M in (elementary(am, K1, "A"), left_module_from_right_idem(am, K1)):
            for N in (elementary(am, K2, "A"), left_module_from_right_idem(am, K2)):
                yield dualize(elementary(am, I0, "D")), M, X, N, elementary(am, J0, "D")


def nabla_unit_terms(M) -> dict:
    """nabla's table reduced to its unital terms (), (p, p), () -> iota."""
    am = M.left_alg
    return {((), (p, p), ()): {(None, am.idempotent_index(M.lidem[p]), None)} for p in M.gens}


def nabla_one_action_term_dropped(nabla_table):
    """nabla_table with one action term dropped: at the least key (by repr)
    pairing two different generators p != q, its least term."""

    def dropped(M) -> dict:
        table = nabla_table(M)
        key = min((k for k in table if k[1][0] != k[1][1]), key=repr, default=None)
        if key is None:
            return table
        return {**table, key: set(table[key]) - {min(table[key], key=repr)}}

    return dropped
