"""Typed A-infinity (bi)module structures over idempotent ground rings.

A module structure is one of four kinds:

* ``AA``: operations m_{i|1|j} taking i left and j right algebra inputs,
* ``DA``: operations delta_{1|1|j} emitting one left algebra output,
* ``AD``: the mirror of DA,
* ``DD``: a single operation emitting one output on each side.

One-sided modules are bimodules with a trivial algebra (None) on one side.
Tables are finite-support and strictly unital: no stored entry has an
idempotent algebra input; the unital action of idempotents is implicit in
evaluation.  Left input tuples (a_1, ..., a_i) act with a_i innermost
(closest to the module element); right input tuples (b_1, ..., b_j) act with
b_1 innermost.

Convention note: the composite term of the DD structure equation multiplies
second-generation right outputs on the left, mu_B(b', b); the same ordering
is used in DD morphism differentials and compositions.  This choice is
pinned by the validation suite (the DD identity bimodule must satisfy its
structure equation and make the cancellation morphism a cycle).
"""

from __future__ import annotations

from typing import Optional

from .gf2 import ChainComplexGf2, Gf2Matrix, Gf2Vector, homology, induced_map_on_homology, solve
from .strands import AlgebraModel

KINDS = ("AA", "DA", "AD", "DD")


def _parity_add(acc: dict, key, count: int = 1) -> None:
    if count % 2:
        acc[key] = acc.get(key, 0) ^ 1


def _live(acc: dict) -> frozenset:
    return frozenset(k for k, v in acc.items() if v)


class StructureError(ValueError):
    pass


class ModuleStructure:
    """A finite-support A-infinity (bi)module structure of one of the four kinds."""

    def __init__(
        self,
        kind: str,
        left_alg: Optional[AlgebraModel],
        right_alg: Optional[AlgebraModel],
        gens,
        lidem: dict,
        ridem: dict,
        table: dict,
        validate: bool = True,
        name: str = "",
    ):
        if kind not in KINDS:
            raise StructureError(f"unknown kind {kind}")
        self.kind = kind
        self.left_alg = left_alg
        self.right_alg = right_alg
        self.gens = tuple(gens)
        self.genset = set(self.gens)
        self.lidem = dict(lidem)
        self.ridem = dict(ridem)
        self.table = {k: frozenset(v) for k, v in table.items() if v}
        self.bounded = True
        self.name = name
        if kind[0] == "D" and left_alg is None:
            raise StructureError("a left type-D side needs an algebra")
        if kind[1] == "D" and right_alg is None:
            raise StructureError("a right type-D side needs an algebra")
        self._check_idempotent_compat()
        if validate:
            result = check_structure(self)
            if result is not None:
                raise StructureError(f"structure equation fails at {result}")

    # -- basic views -------------------------------------------------------

    @property
    def left_type(self) -> str:
        return self.kind[0]

    @property
    def right_type(self) -> str:
        return self.kind[1]

    def dim(self) -> int:
        return len(self.gens)

    def __repr__(self):
        return f"<ModuleStructure {self.kind} {self.name or hex(id(self))} dim={len(self.gens)}>"

    # -- validation ----------------------------------------------------------

    def _chain_ok_left(self, argsL: tuple, inner: frozenset) -> bool:
        A = self.left_alg
        cur = inner
        for a in reversed(argsL):
            if A.right_idem[a] != cur:
                return False
            cur = A.left_idem[a]
        return True

    def _chain_ok_right(self, argsR: tuple, inner: frozenset) -> bool:
        B = self.right_alg
        cur = inner
        for b in argsR:
            if B.left_idem[b] != cur:
                return False
            cur = B.right_idem[b]
        return True

    def _entry_lidem(self, argsL: tuple, g) -> frozenset:
        return self.left_alg.left_idem[argsL[0]] if argsL else self.lidem[g]

    def _entry_ridem(self, argsR: tuple, g) -> frozenset:
        return self.right_alg.right_idem[argsR[-1]] if argsR else self.ridem[g]

    def _check_idempotent_compat(self):
        for key, outs in self.table.items():
            if self.kind == "AA":
                argsL, g, argsR = key
                if any(self.left_alg.is_idempotent_elem(a) for a in argsL) or any(
                    self.right_alg.is_idempotent_elem(b) for b in argsR
                ):
                    raise StructureError("idempotent input stored in table")
                if not self._chain_ok_left(argsL, self.lidem[g]):
                    raise StructureError(f"left idempotent chain broken at {key}")
                if not self._chain_ok_right(argsR, self.ridem[g]):
                    raise StructureError(f"right idempotent chain broken at {key}")
                li, ri = self._entry_lidem(argsL, g), self._entry_ridem(argsR, g)
                for y in outs:
                    if self.lidem[y] != li or self.ridem[y] != ri:
                        raise StructureError(f"output idempotent mismatch at {key}")
            elif self.kind == "DA":
                g, argsR = key
                if any(self.right_alg.is_idempotent_elem(b) for b in argsR):
                    raise StructureError("idempotent input stored in table")
                if not self._chain_ok_right(argsR, self.ridem[g]):
                    raise StructureError(f"right idempotent chain broken at {key}")
                ri = self._entry_ridem(argsR, g)
                for a, y in outs:
                    A = self.left_alg
                    if A.left_idem[a] != self.lidem[g] or A.right_idem[a] != self.lidem[y]:
                        raise StructureError(f"left output idempotent mismatch at {key}")
                    if self.ridem[y] != ri:
                        raise StructureError(f"output idempotent mismatch at {key}")
            elif self.kind == "AD":
                argsL, g = key
                if any(self.left_alg.is_idempotent_elem(a) for a in argsL):
                    raise StructureError("idempotent input stored in table")
                if not self._chain_ok_left(argsL, self.lidem[g]):
                    raise StructureError(f"left idempotent chain broken at {key}")
                li = self._entry_lidem(argsL, g)
                for y, b in outs:
                    B = self.right_alg
                    if B.right_idem[b] != self.ridem[g] or B.left_idem[b] != self.ridem[y]:
                        raise StructureError(f"right output idempotent mismatch at {key}")
                    if self.lidem[y] != li:
                        raise StructureError(f"output idempotent mismatch at {key}")
            else:  # DD
                g = key
                for a, y, b in outs:
                    A, B = self.left_alg, self.right_alg
                    if A.left_idem[a] != self.lidem[g] or A.right_idem[a] != self.lidem[y]:
                        raise StructureError(f"left output idempotent mismatch at {g}")
                    if B.left_idem[b] != self.ridem[y] or B.right_idem[b] != self.ridem[g]:
                        raise StructureError(f"right output idempotent mismatch at {g}")

    # -- evaluation with unital rules ---------------------------------------

    def aa(self, argsL: tuple, g, argsR: tuple) -> frozenset:
        """Evaluate an AA operation; idempotent inputs follow strict unitality."""
        A, B = self.left_alg, self.right_alg
        idemL = [A.is_idempotent_elem(a) for a in argsL] if argsL else []
        idemR = [B.is_idempotent_elem(b) for b in argsR] if argsR else []
        if any(idemL) or any(idemR):
            if len(argsL) == 1 and not argsR and idemL[0]:
                subset = A.elems[argsL[0]].occupied
                return frozenset([g]) if self.lidem[g] == subset else frozenset()
            if len(argsR) == 1 and not argsL and idemR[0]:
                subset = B.elems[argsR[0]].occupied
                return frozenset([g]) if self.ridem[g] == subset else frozenset()
            return frozenset()
        return self.table.get((argsL, g, argsR), frozenset())

    def da(self, g, argsR: tuple) -> frozenset:
        """Evaluate a DA operation: a set of (left output index, generator)."""
        B = self.right_alg
        if argsR and any(B.is_idempotent_elem(b) for b in argsR):
            if len(argsR) == 1:
                subset = B.elems[argsR[0]].occupied
                if subset == self.ridem[g]:
                    out = self.left_alg.idempotent_index(self.lidem[g])
                    return frozenset([(out, g)])
            return frozenset()
        return self.table.get((g, argsR), frozenset())

    def ad(self, argsL: tuple, g) -> frozenset:
        A = self.left_alg
        if argsL and any(A.is_idempotent_elem(a) for a in argsL):
            if len(argsL) == 1:
                subset = A.elems[argsL[0]].occupied
                if subset == self.lidem[g]:
                    out = self.right_alg.idempotent_index(self.ridem[g])
                    return frozenset([(g, out)])
            return frozenset()
        return self.table.get((argsL, g), frozenset())

    def dd(self, g) -> frozenset:
        return self.table.get(g, frozenset())

    # -- underlying chain complex -------------------------------------------

    def underlying_complex(self) -> ChainComplexGf2:
        """The scalar part: differential terms whose algebra factors are idempotents."""
        images: dict = {g: Gf2Vector.zero() for g in self.gens}
        if self.kind == "AA":
            for (argsL, g, argsR), outs in self.table.items():
                if not argsL and not argsR:
                    images[g] += Gf2Vector(outs)
        elif self.kind == "DA":
            for (g, argsR), outs in self.table.items():
                if argsR:
                    continue
                for a, y in outs:
                    if self.left_alg.is_idempotent_elem(a):
                        images[g] += Gf2Vector.of(y)
        elif self.kind == "AD":
            for (argsL, g), outs in self.table.items():
                if argsL:
                    continue
                for y, b in outs:
                    if self.right_alg.is_idempotent_elem(b):
                        images[g] += Gf2Vector.of(y)
        else:
            for g, outs in self.table.items():
                for a, y, b in outs:
                    if self.left_alg.is_idempotent_elem(a) and self.right_alg.is_idempotent_elem(b):
                        images[g] += Gf2Vector.of(y)
        d = Gf2Matrix.from_columns(self.gens, self.gens, images)
        return ChainComplexGf2(self.gens, d)

    def is_dg_type(self) -> bool:
        """Only the differential and the one-input actions are nonzero."""
        if self.kind == "AA":
            return all(
                len(aL) + len(aR) <= 1 for (aL, _, aR) in self.table
            )
        if self.kind == "DA":
            return all(len(aR) <= 1 for (_, aR) in self.table)
        if self.kind == "AD":
            return all(len(aL) <= 1 for (aL, _) in self.table)
        return True

    def max_left_len(self) -> int:
        if self.kind == "AA":
            return max((len(k[0]) for k in self.table), default=0)
        if self.kind == "AD":
            return max((len(k[0]) for k in self.table), default=0)
        return 0

    def max_right_len(self) -> int:
        if self.kind == "AA":
            return max((len(k[2]) for k in self.table), default=0)
        if self.kind == "DA":
            return max((len(k[1]) for k in self.table), default=0)
        return 0


# -- chained input enumeration ------------------------------------------------


def _nonidem(alg: AlgebraModel) -> list[int]:
    return [i for i in range(alg.dim) if not alg.is_idempotent_elem(i)]


def _chains_into(alg: AlgebraModel, inner: frozenset, max_len: int) -> list[tuple]:
    """Tuples (a_1..a_i), i <= max_len, idempotent-chained with a_i's right idem = inner."""
    out: list[tuple] = [()]
    layer: list[tuple] = [()]
    cands = _nonidem(alg)
    for _ in range(max_len):
        nxt = []
        for chain in layer:
            need = alg.left_idem[chain[0]] if chain else inner
            for a in cands:
                if alg.right_idem[a] == need:
                    nxt.append((a,) + chain)
        out.extend(nxt)
        layer = nxt
    return out


def _chains_from(alg: AlgebraModel, inner: frozenset, max_len: int) -> list[tuple]:
    """Tuples (b_1..b_j), j <= max_len, idempotent-chained with b_1's left idem = inner."""
    out: list[tuple] = [()]
    layer: list[tuple] = [()]
    cands = _nonidem(alg)
    for _ in range(max_len):
        nxt = []
        for chain in layer:
            need = alg.right_idem[chain[-1]] if chain else inner
            for b in cands:
                if alg.left_idem[b] == need:
                    nxt.append(chain + (b,))
        out.extend(nxt)
        layer = nxt
    return out


def _insertions(alg: AlgebraModel, args: tuple):
    """All mu_1 / mu_2 insertions into an input tuple, with GF(2) multiplicity."""
    for r, a in enumerate(args):
        for da in alg.diff_table[a]:
            yield args[:r] + (da,) + args[r + 1 :]
    for r in range(len(args) - 1):
        for pa in alg.mult_table[(args[r], args[r + 1])]:
            yield args[:r] + (pa,) + args[r + 2 :]


# -- support-driven input enumeration -------------------------------------------
#
# Every nonzero term of a structure equation (or of a morphism differential)
# evaluates a table entry: either two entries composed through a generator, or
# one entry on the inputs after a mu_1 / mu_2 insertion.  So the only inputs
# where a sum can be nonzero are concatenations of composable keys and keys
# with one element pulled back through d or mu_2 (the finite-support argument
# of Lipshitz-Ozsvath-Thurston, arXiv:1003.0598).  An insertion could also
# reach the implicit unital action of a lone idempotent input, but in a
# strands algebra d and mu_2 of non-idempotent elements never contain an
# idempotent (moving strands never cancel), so no such input arises.  The
# enumerator below lists exactly those inputs that also lie in the
# brute-force window, in the order the brute-force enumeration would visit
# them, so the first failing input is the same witness.


def _as_aa_key(kind: str, key) -> tuple:
    """A table key of an AA, DA or AD table as (left inputs, generator, right inputs)."""
    if kind == "AA":
        return key
    if kind == "DA":
        return ((), key[0], key[1])
    return (key[0], key[1], ())


def _from_aa_key(kind: str, argsL: tuple, g, argsR: tuple) -> tuple:
    if kind == "AA":
        return (argsL, g, argsR)
    if kind == "DA":
        return (g, argsR)
    return (argsL, g)


def _out_gens(kind: str, outs) -> set:
    if kind == "AA":
        return set(outs)
    if kind == "DA":
        return {y for _, y in outs}
    return {y for y, _ in outs}


def _pullbacks(alg: Optional[AlgebraModel], args: tuple):
    """Tuples that one mu_1 / mu_2 insertion (see `_insertions`) can turn into args."""
    if alg is None or not args:
        return
    dpre, mpre = alg.preimages()
    for r, c in enumerate(args):
        head, tail = args[:r], args[r + 1 :]
        for a in dpre.get(c, ()):
            yield head + (a,) + tail
        for pair in mpre.get(c, ()):
            yield head + pair + tail


def _candidate_inputs(src: ModuleStructure, lmax: int, rmax: int, composable, stored) -> list:
    """The inputs of src's kind where a sum built from the given tables can be nonzero.

    `composable` lists (inner, outer) tables whose entries compose: an inner
    entry at g with output generator y followed by an outer entry at y.
    `stored` lists tables whose entries are also evaluated on their own keys
    and on the inputs that one insertion turns into a key.
    Candidates are kept only inside the brute-force window (at most lmax left
    and rmax right inputs, idempotent-chained, no idempotent input) and are
    returned in brute-force order.
    """
    kind = src.kind
    A, B = src.left_alg, src.right_alg
    found: set = set()
    for inner, outer in composable:
        by_gen: dict = {}
        for key in outer:
            oL, y, oR = _as_aa_key(kind, key)
            by_gen.setdefault(y, []).append((oL, oR))
        for key, outs in inner.items():
            iL, g, iR = _as_aa_key(kind, key)
            for y in _out_gens(kind, outs):
                for oL, oR in by_gen.get(y, ()):
                    found.add((oL + iL, g, iR + oR))
    for keys in stored:
        for key in keys:
            kL, g, kR = _as_aa_key(kind, key)
            found.add((kL, g, kR))
            found.update((newL, g, kR) for newL in _pullbacks(A, kL))
            found.update((kL, g, newR) for newR in _pullbacks(B, kR))
    pos = {g: i for i, g in enumerate(src.gens)}
    keep = []
    for argsL, g, argsR in found:
        if g not in pos or len(argsL) > lmax or len(argsR) > rmax:
            continue
        if argsL and (
            A is None
            or any(A.is_idempotent_elem(a) for a in argsL)
            or not src._chain_ok_left(argsL, src.lidem[g])
        ):
            continue
        if argsR and (
            B is None
            or any(B.is_idempotent_elem(b) for b in argsR)
            or not src._chain_ok_right(argsR, src.ridem[g])
        ):
            continue
        keep.append((argsL, g, argsR))
    keep.sort(key=lambda k: (pos[k[1]], len(k[0]), k[0][::-1], len(k[2]), k[2]))
    return [_from_aa_key(kind, *k) for k in keep]


# -- structure equations ------------------------------------------------------


def _aa_equation(m: ModuleStructure, argsL: tuple, g, argsR: tuple) -> frozenset:
    # The inputs hold no idempotents, so composite terms read the table directly.
    acc: dict = {}
    table = m.table
    i, j = len(argsL), len(argsR)
    for p in range(i + 1):
        for q in range(j + 1):
            for y in table.get((argsL[p:], g, argsR[:q]), ()):
                for z in table.get((argsL[:p], y, argsR[q:]), ()):
                    _parity_add(acc, z)
    for newL in _insertions(m.left_alg, argsL) if argsL else ():
        for z in m.aa(newL, g, argsR):
            _parity_add(acc, z)
    for newR in _insertions(m.right_alg, argsR) if argsR else ():
        for z in m.aa(argsL, g, newR):
            _parity_add(acc, z)
    return _live(acc)


def _da_equation(m: ModuleStructure, g, argsR: tuple) -> frozenset:
    acc: dict = {}
    A = m.left_alg
    j = len(argsR)
    for s in range(j + 1):
        for a1, y in m.da(g, argsR[:s]):
            for a2, z in m.da(y, argsR[s:]):
                for prod in A.mult_table[(a1, a2)]:
                    _parity_add(acc, (prod, z))
    for a, y in m.da(g, argsR):
        for da in A.diff_table[a]:
            _parity_add(acc, (da, y))
    for newR in _insertions(m.right_alg, argsR) if argsR else ():
        for a, y in m.da(g, newR):
            _parity_add(acc, (a, y))
    return _live(acc)


def _ad_equation(m: ModuleStructure, argsL: tuple, g) -> frozenset:
    acc: dict = {}
    B = m.right_alg
    i = len(argsL)
    for p in range(i + 1):
        for y, b1 in m.ad(argsL[p:], g):
            for z, b2 in m.ad(argsL[:p], y):
                for prod in B.mult_table[(b2, b1)]:
                    _parity_add(acc, (z, prod))
    for y, b in m.ad(argsL, g):
        for db in B.diff_table[b]:
            _parity_add(acc, (y, db))
    for newL in _insertions(m.left_alg, argsL) if argsL else ():
        for y, b in m.ad(newL, g):
            _parity_add(acc, (y, b))
    return _live(acc)


def _dd_equation(m: ModuleStructure, g) -> frozenset:
    acc: dict = {}
    A, B = m.left_alg, m.right_alg
    for a, y, b in m.dd(g):
        for da in A.diff_table[a]:
            _parity_add(acc, (da, y, b))
        for db in B.diff_table[b]:
            _parity_add(acc, (a, y, db))
        for a2, z, b2 in m.dd(y):
            for pa in A.mult_table[(a, a2)]:
                # Second-generation right outputs multiply on the left.
                for pb in B.mult_table[(b2, b)]:
                    _parity_add(acc, (pa, z, pb))
    return _live(acc)


_EQUATIONS = {"AA": _aa_equation, "DA": _da_equation, "AD": _ad_equation}


def check_structure(m: ModuleStructure):
    """Evaluate the kind's structure equation over the finite reachable domain.

    Returns None when every sum vanishes, otherwise one violating input: the
    first, in generator order and then by input length, that the exhaustive
    enumeration of chained inputs would reach.  On each side the window is
    max(2L, L + 1) inputs, L the table's longest entry there: two composed
    entries take at most 2L inputs, one entry after an insertion L + 1.
    Only inputs built from the table's support are evaluated; every other
    input of that window vanishes identically.  Inputs containing idempotent
    basis elements are omitted: strict unitality makes those instances hold
    identically.
    """
    if m.kind == "DD":
        for g in m.gens:
            if _dd_equation(m, g):
                return (g,)
        return None
    equation = _EQUATIONS[m.kind]
    lmax, rmax = m.max_left_len(), m.max_right_len()
    inputs = _candidate_inputs(
        m,
        max(2 * lmax, lmax + 1),
        max(2 * rmax, rmax + 1),
        [(m.table, m.table)],
        [m.table],
    )
    for key in inputs:
        if equation(m, *key):
            return key
    return None


# -- iterated structure maps --------------------------------------------------


def delta_bar(m: ModuleStructure, x, args: tuple, depth: int) -> list:
    """Iterate a DA structure map across splittings of the right inputs.

    Returns the GF(2)-reduced list of (tuple of left outputs, generator)
    reachable by at most `depth` applications that consume all of `args`.
    Raises if depth is exhausted while some state could still fire.
    """
    if m.kind != "DA":
        raise StructureError("delta_bar requires a DA structure")
    acc: dict = {}
    states = {((), x, tuple(args)): 1}
    _parity_add(acc, ((), x)) if not args else None
    for _ in range(depth):
        nxt: dict = {}
        for (outs, g, rest), par in states.items():
            if not par:
                continue
            for s in range(len(rest) + 1):
                block, tail = rest[:s], rest[s:]
                for a, y in m.da(g, block):
                    key = (outs + (a,), y, tail)
                    nxt[key] = nxt.get(key, 0) ^ 1
        for (outs, g, rest), par in nxt.items():
            if par and not rest:
                _parity_add(acc, (outs, g))
        states = nxt
    for (outs, g, rest), par in states.items():
        if not par or not rest:
            continue
        for s in range(len(rest) + 1):
            if m.da(g, rest[:s]):
                raise StructureError("delta_bar depth exceeded with nonzero continuations")
    return sorted(_live(acc), key=repr)


# -- duals and opposites -------------------------------------------------------


def dualize(m: ModuleStructure) -> ModuleStructure:
    """Rotate the structure by 180 degrees: AA->AA (sides swapped), DA->AD, DD->DD."""
    lidem = {g: m.ridem[g] for g in m.gens}
    ridem = {g: m.lidem[g] for g in m.gens}
    table: dict = {}
    if m.kind == "AA":
        kind = "AA"
        for (argsL, g, argsR), outs in m.table.items():
            for y in outs:
                key = (tuple(reversed(argsR)), y, tuple(reversed(argsL)))
                table.setdefault(key, set())
                table[key] ^= {g}
    elif m.kind == "DA":
        kind = "AD"
        for (g, argsR), outs in m.table.items():
            for a, y in outs:
                key = (tuple(reversed(argsR)), y)
                table.setdefault(key, set())
                table[key] ^= {(g, a)}
    elif m.kind == "AD":
        kind = "DA"
        for (argsL, g), outs in m.table.items():
            for y, b in outs:
                key = (y, tuple(reversed(argsL)))
                table.setdefault(key, set())
                table[key] ^= {(b, g)}
    else:
        kind = "DD"
        for g, outs in m.table.items():
            for a, y, b in outs:
                table.setdefault(y, set())
                table[y] ^= {(b, g, a)}
    return ModuleStructure(
        kind,
        m.right_alg,
        m.left_alg,
        m.gens,
        lidem,
        ridem,
        table,
        validate=False,
        name=f"dual({m.name})" if m.name else "",
    )


def oppositize(m: ModuleStructure) -> ModuleStructure:
    """Reflect the structure along the vertical axis, over the opposite algebras."""
    lidem = {g: m.ridem[g] for g in m.gens}
    ridem = {g: m.lidem[g] for g in m.gens}
    left = m.right_alg.opposite() if m.right_alg is not None else None
    right = m.left_alg.opposite() if m.left_alg is not None else None
    table: dict = {}
    if m.kind == "AA":
        kind = "AA"
        for (argsL, g, argsR), outs in m.table.items():
            key = (tuple(reversed(argsR)), g, tuple(reversed(argsL)))
            table.setdefault(key, set())
            table[key] ^= set(outs)
    elif m.kind == "DA":
        kind = "AD"
        for (g, argsR), outs in m.table.items():
            key = (tuple(reversed(argsR)), g)
            table.setdefault(key, set())
            table[key] ^= {(y, a) for a, y in outs}
    elif m.kind == "AD":
        kind = "DA"
        for (argsL, g), outs in m.table.items():
            key = (g, tuple(reversed(argsL)))
            table.setdefault(key, set())
            table[key] ^= {(b, y) for y, b in outs}
    else:
        kind = "DD"
        for g, outs in m.table.items():
            table.setdefault(g, set())
            table[g] ^= {(b, y, a) for a, y, b in outs}
    return ModuleStructure(
        kind, left, right, m.gens, lidem, ridem, table, validate=False,
        name=f"op({m.name})" if m.name else "",
    )


def relabel(m: ModuleStructure, f, validate: bool = True) -> ModuleStructure:
    """The same structure with every generator g renamed f(g); f must be injective.

    Each new name is computed once and shared by every table entry, so later
    comparisons of equal generators hit the identity fast path.
    """
    new = {g: f(g) for g in m.gens}
    table: dict = {}
    for key, outs in m.table.items():
        if m.kind == "AA":
            argsL, g, argsR = key
            table[(argsL, new[g], argsR)] = frozenset(new[y] for y in outs)
        elif m.kind == "DA":
            g, argsR = key
            table[(new[g], argsR)] = frozenset((a, new[y]) for a, y in outs)
        elif m.kind == "AD":
            argsL, g = key
            table[(argsL, new[g])] = frozenset((new[y], b) for y, b in outs)
        else:
            table[new[key]] = frozenset((a, new[y], b) for a, y, b in outs)
    return ModuleStructure(
        m.kind,
        m.left_alg,
        m.right_alg,
        new.values(),
        {new[g]: s for g, s in m.lidem.items()},
        {new[g]: s for g, s in m.ridem.items()},
        table,
        validate=validate,
        name=m.name,
    )


# -- morphisms -----------------------------------------------------------------


class Morphism:
    """A finite-support collection of component maps between equal-kind structures."""

    def __init__(self, src: ModuleStructure, dst: ModuleStructure, table: dict):
        if src.kind != dst.kind:
            raise StructureError("morphism endpoints have different kinds")
        if src.left_alg is not dst.left_alg or src.right_alg is not dst.right_alg:
            raise StructureError("morphism endpoints over different algebras")
        self.src = src
        self.dst = dst
        self.table = {k: frozenset(v) for k, v in table.items() if v}

    @property
    def kind(self) -> str:
        return self.src.kind

    def aa(self, argsL, g, argsR) -> frozenset:
        if argsL and any(self.src.left_alg.is_idempotent_elem(a) for a in argsL):
            return frozenset()
        if argsR and any(self.src.right_alg.is_idempotent_elem(b) for b in argsR):
            return frozenset()
        return self.table.get((argsL, g, argsR), frozenset())

    def da(self, g, argsR) -> frozenset:
        if argsR and any(self.src.right_alg.is_idempotent_elem(b) for b in argsR):
            return frozenset()
        return self.table.get((g, argsR), frozenset())

    def ad(self, argsL, g) -> frozenset:
        if argsL and any(self.src.left_alg.is_idempotent_elem(a) for a in argsL):
            return frozenset()
        return self.table.get((argsL, g), frozenset())

    def dd(self, g) -> frozenset:
        return self.table.get(g, frozenset())

    def is_zero(self) -> bool:
        return not self.table

    def __add__(self, other: "Morphism") -> "Morphism":
        if self.src is not other.src or self.dst is not other.dst:
            raise StructureError("morphism addition endpoint mismatch")
        keys = set(self.table) | set(other.table)
        table = {
            k: self.table.get(k, frozenset()) ^ other.table.get(k, frozenset())
            for k in keys
        }
        return Morphism(self.src, self.dst, table)

    def scalar_matrix(self) -> Gf2Matrix:
        """The matrix of the idempotent-coefficient part on underlying complexes."""
        images = {g: Gf2Vector.zero() for g in self.src.gens}
        if self.kind == "AA":
            for (argsL, g, argsR), outs in self.table.items():
                if not argsL and not argsR:
                    images[g] += Gf2Vector(outs)
        elif self.kind == "DA":
            for (g, argsR), outs in self.table.items():
                if argsR:
                    continue
                for a, y in outs:
                    if self.src.left_alg.is_idempotent_elem(a):
                        images[g] += Gf2Vector.of(y)
        elif self.kind == "AD":
            for (argsL, g), outs in self.table.items():
                if argsL:
                    continue
                for y, b in outs:
                    if self.src.right_alg.is_idempotent_elem(b):
                        images[g] += Gf2Vector.of(y)
        else:
            for g, outs in self.table.items():
                for a, y, b in outs:
                    if self.src.left_alg.is_idempotent_elem(a) and self.src.right_alg.is_idempotent_elem(b):
                        images[g] += Gf2Vector.of(y)
        return Gf2Matrix.from_columns(self.dst.gens, self.src.gens, images)


def identity_morphism(m: ModuleStructure) -> Morphism:
    table: dict = {}
    if m.kind == "AA":
        for g in m.gens:
            table[((), g, ())] = {g}
    elif m.kind == "DA":
        for g in m.gens:
            table[(g, ())] = {(m.left_alg.idempotent_index(m.lidem[g]), g)}
    elif m.kind == "AD":
        for g in m.gens:
            table[((), g)] = {(g, m.right_alg.idempotent_index(m.ridem[g]))}
    else:
        for g in m.gens:
            table[g] = {
                (
                    m.left_alg.idempotent_index(m.lidem[g]),
                    g,
                    m.right_alg.idempotent_index(m.ridem[g]),
                )
            }
    return Morphism(m, m, table)


def zero_morphism(src: ModuleStructure, dst: ModuleStructure) -> Morphism:
    return Morphism(src, dst, {})


def morphism_compose(g: Morphism, f: Morphism) -> Morphism:
    """g after f, per the composition diagrams of the four kinds."""
    if f.dst is not g.src:
        raise StructureError("composition endpoint mismatch")
    kind = f.kind
    table: dict = {}

    def add(key, val):
        table.setdefault(key, set())
        table[key] ^= {val}

    if kind == "AA":
        # Outer g around inner f; inner left args are the suffix, inner right
        # args the prefix, so composed keys concatenate as below.
        for (argsL1, x, argsR1), outs1 in f.table.items():
            for y in outs1:
                for (argsL2, yy, argsR2), outs2 in g.table.items():
                    if yy != y:
                        continue
                    key = (argsL2 + argsL1, x, argsR1 + argsR2)
                    for z in outs2:
                        add(key, z)
    elif kind == "DA":
        for (x, argsR1), outs1 in f.table.items():
            for a1, y in outs1:
                for (yy, argsR2), outs2 in g.table.items():
                    if yy != y:
                        continue
                    for a2, z in outs2:
                        for prod in f.src.left_alg.mult_table[(a1, a2)]:
                            add((x, argsR1 + argsR2), (prod, z))
    elif kind == "AD":
        for (argsL1, x), outs1 in f.table.items():
            for y, b1 in outs1:
                for (argsL2, yy), outs2 in g.table.items():
                    if yy != y:
                        continue
                    for z, b2 in outs2:
                        for prod in f.src.right_alg.mult_table[(b2, b1)]:
                            add((argsL2 + argsL1, x), (z, prod))
    else:
        for x, outs1 in f.table.items():
            for a1, y, b1 in outs1:
                for a2, z, b2 in g.table.get(y, frozenset()):
                    for pa in f.src.left_alg.mult_table[(a1, a2)]:
                        for pb in f.src.right_alg.mult_table[(b2, b1)]:
                            add(x, (pa, z, pb))
    return Morphism(f.src, g.dst, table)


def _aa_diff(f: Morphism, argsL: tuple, g, argsR: tuple) -> frozenset:
    src, dst = f.src, f.dst
    acc: dict = {}
    i, j = len(argsL), len(argsR)
    for p in range(i + 1):
        for q in range(j + 1):
            for y in f.aa(argsL[p:], g, argsR[:q]):
                for z in dst.aa(argsL[:p], y, argsR[q:]):
                    _parity_add(acc, z)
            for y in src.aa(argsL[p:], g, argsR[:q]):
                for z in f.aa(argsL[:p], y, argsR[q:]):
                    _parity_add(acc, z)
    for newL in _insertions(src.left_alg, argsL) if argsL else ():
        for z in f.aa(newL, g, argsR):
            _parity_add(acc, z)
    for newR in _insertions(src.right_alg, argsR) if argsR else ():
        for z in f.aa(argsL, g, newR):
            _parity_add(acc, z)
    return _live(acc)


def _da_diff(f: Morphism, g, argsR: tuple) -> frozenset:
    src, dst = f.src, f.dst
    A = src.left_alg
    acc: dict = {}
    for s in range(len(argsR) + 1):
        for a1, y in src.da(g, argsR[:s]):
            for a2, z in f.da(y, argsR[s:]):
                for prod in A.mult_table[(a1, a2)]:
                    _parity_add(acc, (prod, z))
        for a1, y in f.da(g, argsR[:s]):
            for a2, z in dst.da(y, argsR[s:]):
                for prod in A.mult_table[(a1, a2)]:
                    _parity_add(acc, (prod, z))
    for a, y in f.da(g, argsR):
        for da in A.diff_table[a]:
            _parity_add(acc, (da, y))
    for newR in _insertions(src.right_alg, argsR) if argsR else ():
        for a, y in f.da(g, newR):
            _parity_add(acc, (a, y))
    return _live(acc)


def _ad_diff(f: Morphism, argsL: tuple, g) -> frozenset:
    src, dst = f.src, f.dst
    B = src.right_alg
    acc: dict = {}
    for p in range(len(argsL) + 1):
        for y, b1 in src.ad(argsL[p:], g):
            for z, b2 in f.ad(argsL[:p], y):
                for prod in B.mult_table[(b2, b1)]:
                    _parity_add(acc, (z, prod))
        for y, b1 in f.ad(argsL[p:], g):
            for z, b2 in dst.ad(argsL[:p], y):
                for prod in B.mult_table[(b2, b1)]:
                    _parity_add(acc, (z, prod))
    for y, b in f.ad(argsL, g):
        for db in B.diff_table[b]:
            _parity_add(acc, (y, db))
    for newL in _insertions(src.left_alg, argsL) if argsL else ():
        for y, b in f.ad(newL, g):
            _parity_add(acc, (y, b))
    return _live(acc)


def _dd_diff(f: Morphism, g) -> frozenset:
    src, dst = f.src, f.dst
    A, B = src.left_alg, src.right_alg
    acc: dict = {}
    for a1, y, b1 in src.dd(g):
        for a2, z, b2 in f.dd(y):
            for pa in A.mult_table[(a1, a2)]:
                for pb in B.mult_table[(b2, b1)]:
                    _parity_add(acc, (pa, z, pb))
    for a1, y, b1 in f.dd(g):
        for a2, z, b2 in dst.dd(y):
            for pa in A.mult_table[(a1, a2)]:
                for pb in B.mult_table[(b2, b1)]:
                    _parity_add(acc, (pa, z, pb))
        for da in A.diff_table[a1]:
            _parity_add(acc, (da, y, b1))
        for db in B.diff_table[b1]:
            _parity_add(acc, (a1, y, db))
    return _live(acc)


_DIFFS = {"AA": _aa_diff, "DA": _da_diff, "AD": _ad_diff}


def morphism_diff(f: Morphism) -> Morphism:
    """The differential of a morphism in the morphism complex of its kind.

    Evaluated on the inputs of the exhaustive window (chained inputs up to the
    longest entry of f plus the longest of src or dst, and at least one more
    than f's) that are built from f's support; every other input vanishes.
    """
    src, dst = f.src, f.dst
    if f.kind == "DD":
        return Morphism(src, dst, {g: _dd_diff(f, g) for g in src.gens})
    inputs = _candidate_inputs(
        src,
        f_max_left(f) + max(src.max_left_len(), dst.max_left_len(), 1),
        f_max_right(f) + max(src.max_right_len(), dst.max_right_len(), 1),
        [(f.table, dst.table), (src.table, f.table)],
        [f.table],
    )
    diff = _DIFFS[f.kind]
    return Morphism(src, dst, {key: diff(f, *key) for key in inputs})


def f_max_left(f: Morphism) -> int:
    if f.kind in ("AA",):
        return max((len(k[0]) for k in f.table), default=0)
    if f.kind == "AD":
        return max((len(k[0]) for k in f.table), default=0)
    return 0


def f_max_right(f: Morphism) -> int:
    if f.kind == "AA":
        return max((len(k[2]) for k in f.table), default=0)
    if f.kind == "DA":
        return max((len(k[1]) for k in f.table), default=0)
    return 0


def is_homomorphism(f: Morphism) -> bool:
    return morphism_diff(f).is_zero()


def homology_level_equal(f: Morphism, g: Morphism) -> str:
    """Compare two homomorphisms on the homology of the underlying complexes."""
    if f.src is not g.src or f.dst is not g.dst:
        raise StructureError("comparison endpoint mismatch")
    src_c = f.src.underlying_complex()
    dst_c = f.dst.underlying_complex()
    mf = induced_map_on_homology(f.scalar_matrix(), src_c, dst_c)
    mg = induced_map_on_homology(g.scalar_matrix(), src_c, dst_c)
    return "equal" if mf.nonzero == mg.nonzero else "unequal"


# -- bounded homotopy search ---------------------------------------------------


def _morphism_slots(src: ModuleStructure, dst: ModuleStructure, max_len: int) -> list:
    """All idempotent-compatible (key, atom) pairs with input length <= max_len."""
    slots = []
    kind = src.kind
    if kind == "AA":
        for g in src.gens:
            lefts = _chains_into(src.left_alg, src.lidem[g], max_len) if src.left_alg else [()]
            for argsL in lefts:
                rights = (
                    _chains_from(src.right_alg, src.ridem[g], max_len - len(argsL))
                    if src.right_alg
                    else [()]
                )
                for argsR in rights:
                    li = src.left_alg.left_idem[argsL[0]] if argsL else src.lidem[g]
                    ri = src.right_alg.right_idem[argsR[-1]] if argsR else src.ridem[g]
                    for y in dst.gens:
                        if dst.lidem[y] == li and dst.ridem[y] == ri:
                            slots.append(((argsL, g, argsR), y))
    elif kind == "DA":
        A = src.left_alg
        for g in src.gens:
            rights = _chains_from(src.right_alg, src.ridem[g], max_len) if src.right_alg else [()]
            for argsR in rights:
                ri = src.right_alg.right_idem[argsR[-1]] if argsR else src.ridem[g]
                for a in range(A.dim):
                    if A.left_idem[a] != src.lidem[g]:
                        continue
                    for y in dst.gens:
                        if dst.lidem[y] == A.right_idem[a] and dst.ridem[y] == ri:
                            slots.append(((g, argsR), (a, y)))
    elif kind == "AD":
        B = src.right_alg
        for g in src.gens:
            lefts = _chains_into(src.left_alg, src.lidem[g], max_len) if src.left_alg else [()]
            for argsL in lefts:
                li = src.left_alg.left_idem[argsL[0]] if argsL else src.lidem[g]
                for b in range(B.dim):
                    if B.right_idem[b] != src.ridem[g]:
                        continue
                    for y in dst.gens:
                        if dst.lidem[y] == li and dst.ridem[y] == B.left_idem[b]:
                            slots.append(((argsL, g), (y, b)))
    else:
        A, B = src.left_alg, src.right_alg
        for g in src.gens:
            for a in range(A.dim):
                if A.left_idem[a] != src.lidem[g]:
                    continue
                for b in range(B.dim):
                    if B.right_idem[b] != src.ridem[g]:
                        continue
                    for y in dst.gens:
                        if dst.lidem[y] == A.right_idem[a] and dst.ridem[y] == B.left_idem[b]:
                            slots.append((g, (a, y, b)))
    return slots


def morphism_to_atoms(f: Morphism) -> frozenset:
    atoms = set()
    for key, outs in f.table.items():
        for v in outs:
            atoms.add((key, v))
    return frozenset(atoms)


def bounded_homotopy_search(f: Morphism, g: Morphism, max_len: int) -> Optional[Morphism]:
    """Search for H with dH = f - g among morphisms of input length <= max_len.

    A None result is inconclusive: it never certifies that f and g are not
    homotopic.
    """
    target = f + g
    slots = _morphism_slots(f.src, f.dst, max_len)
    columns = []
    images: dict = {}
    atom_rows = set(morphism_to_atoms(target))
    basis_morphisms = {}
    for idx, (key, val) in enumerate(slots):
        h = Morphism(f.src, f.dst, {key: {val}})
        dh = morphism_diff(h)
        atoms = morphism_to_atoms(dh)
        columns.append(idx)
        images[idx] = Gf2Vector(atoms)
        basis_morphisms[idx] = (key, val)
        atom_rows |= atoms
    rows = sorted(atom_rows, key=repr)
    system = Gf2Matrix.from_columns(rows, columns, images)
    sol = solve(system, Gf2Vector(morphism_to_atoms(target)))
    if sol is None:
        return None
    table: dict = {}
    for idx in sol:
        key, val = basis_morphisms[idx]
        table.setdefault(key, set())
        table[key] ^= {val}
    return Morphism(f.src, f.dst, table)


def dump_module_tsv(m: ModuleStructure) -> str:
    """Serialize a structure table: one line per entry, algebra elements by index."""
    lines = [f"# kind: {m.kind}"]
    lines.append(f"# left: {'-' if m.left_alg is None else 'A(' + str(m.left_alg.arc_diagram.kind) + ',' + str(m.left_alg.dim) + ')'}")
    lines.append(f"# right: {'-' if m.right_alg is None else 'A(' + str(m.right_alg.arc_diagram.kind) + ',' + str(m.right_alg.dim) + ')'}")

    def fmt_args(args):
        return ",".join(str(a) for a in args)

    entries = []
    if m.kind == "AA":
        for (argsL, g, argsR), outs in m.table.items():
            key = f"L:{fmt_args(argsL)}|{g!r}|R:{fmt_args(argsR)}"
            val = ";".join(sorted(repr(y) for y in outs))
            entries.append(f"{key}\t{val}")
    elif m.kind == "DA":
        for (g, argsR), outs in m.table.items():
            key = f"L:|{g!r}|R:{fmt_args(argsR)}"
            val = ";".join(sorted(f"{a},{y!r}" for a, y in outs))
            entries.append(f"{key}\t{val}")
    elif m.kind == "AD":
        for (argsL, g), outs in m.table.items():
            key = f"L:{fmt_args(argsL)}|{g!r}|R:"
            val = ";".join(sorted(f"{y!r},{b}" for y, b in outs))
            entries.append(f"{key}\t{val}")
    else:
        for g, outs in m.table.items():
            key = f"L:|{g!r}|R:"
            val = ";".join(sorted(f"{a},{y!r},{b}" for a, y, b in outs))
            entries.append(f"{key}\t{val}")
    lines.extend(sorted(entries))
    return "\n".join(lines) + "\n"
