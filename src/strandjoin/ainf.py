"""Typed A-infinity (bi)module structures over idempotent ground rings.

A module structure is one of four kinds:

* ``AA``: operations m_{i|1|j} taking i left and j right algebra inputs,
* ``DA``: operations delta_{1|1|j} emitting one left algebra output,
* ``AD``: the mirror of DA,
* ``DD``: a single operation emitting one output on each side.

All four store their tables in one layout, described under "the entry
shape" below; the kind says which sides take inputs and which emit algebra
elements.  A morphism's table has the same layout, and a structure and a
morphism are constructed through the same entry check, `_check_entries`.

One-sided modules are bimodules with a trivial algebra (None) on one side.
Tables are finite-support and strictly unital: no stored entry has an
idempotent algebra input; the unital action of idempotents is implicit in
evaluation.  Left input tuples (a_1, ..., a_i) act with a_i innermost
(closest to the module element); right input tuples (b_1, ..., b_j) act with
b_1 innermost.

Convention note: in a composite of two operations, left outputs multiply as
mu_A(a, a') and right outputs as mu_B(b', b), the later operation's output
outermost on each side.  Structure equations, morphism differentials and
compositions of all four kinds use this ordering.  It is pinned by the
validation suite (the DD identity bimodule must satisfy its structure
equation and make the cancellation morphism a cycle).
"""

from __future__ import annotations

from .gf2 import ChainComplexGf2, Gf2Matrix, solve
from .strands import AlgebraModel

KINDS = ("AA", "DA", "AD", "DD")

# -- the entry shape ------------------------------------------------------------
#
# Every table, a structure's or a morphism's, maps a key (left inputs,
# generator, right inputs) to a set of outputs (a, y, b).  A type-D side takes
# no inputs, so its input tuple is (), and emits one algebra element: a on the
# left, b on the right.  A type-A side emits none, so its slot is None.


def _add(table: dict, key, val) -> None:
    """Add one term to a table being built, with GF(2) cancellation."""
    table.setdefault(key, set())
    table[key] ^= {val}


def _max_input_len(m, side: int) -> int:
    """The longest left (side 0) or right (side 2) input tuple in m's table."""
    return max((len(k[side]) for k in m.table), default=0)


def _parity_add(acc: dict, key, count: int = 1) -> None:
    if count % 2:
        acc[key] = acc.get(key, 0) ^ 1


class StructureError(ValueError):
    pass


def _chain_end(alg: AlgebraModel | None, args: tuple, inner: frozenset, side: int):
    """The idempotent at the outer end of left (side 0) or right (side 2) inputs
    chained from `inner`, the generator's idempotent on that side; None when
    the chain breaks."""
    if not args:
        return inner
    near, far = (alg.right_idem, alg.left_idem) if side == 0 else (alg.left_idem, alg.right_idem)
    cur = inner
    for a in reversed(args) if side == 0 else args:
        if near[a] != cur:
            return None
        cur = far[a]
    return cur


def _check_entries(kind: str, table: dict, src, dst) -> None:
    """Reject an entry of a table from src to dst (src = dst for a structure's
    own) that does not fit the kind's shape, or src's generators and
    idempotents at its key, or dst's at its outputs: a type-D side takes no
    inputs and emits one algebra element, a type-A side emits none."""
    A, B = src.left_alg, src.right_alg
    left_d, right_d = kind[0] == "D", kind[1] == "D"
    for key, outs in table.items():
        argsL, g, argsR = key
        if (left_d and argsL) or (right_d and argsR):
            raise StructureError(f"input on a type-D side at {key}")
        for a, _, b in outs:
            if (a is None) == left_d:
                raise StructureError(f"left output slot does not fit the kind at {key}")
            if (b is None) == right_d:
                raise StructureError(f"right output slot does not fit the kind at {key}")
        if g not in src.genset:
            raise StructureError(f"entry at a generator the module does not have at {key}")
        if (argsL and A is None) or (argsR and B is None):
            raise StructureError(f"input on a side with no algebra at {key}")
        if (argsL and any(A.is_idempotent_elem(a) for a in argsL)) or (
            argsR and any(B.is_idempotent_elem(b) for b in argsR)
        ):
            raise StructureError("idempotent input stored in table")
        li = _chain_end(A, argsL, src.lidem[g], 0)
        if li is None:
            raise StructureError(f"left idempotent chain broken at {key}")
        ri = _chain_end(B, argsR, src.ridem[g], 2)
        if ri is None:
            raise StructureError(f"right idempotent chain broken at {key}")
        for a, y, b in outs:
            if y not in dst.genset:
                raise StructureError(f"output generator the module does not have at {key}")
            # A type-D side's output carries the idempotents from g to y;
            # on a type-A side y's idempotent is the entry's.
            yli, yri = dst.lidem[y], dst.ridem[y]
            if a is not None and (A.left_idem[a] != li or A.right_idem[a] != yli):
                raise StructureError(f"left output idempotent mismatch at {key}")
            if b is not None and (B.right_idem[b] != ri or B.left_idem[b] != yri):
                raise StructureError(f"right output idempotent mismatch at {key}")
            if (a is None and yli != li) or (b is None and yri != ri):
                raise StructureError(f"output idempotent mismatch at {key}")


class ModuleStructure:
    """A finite-support A-infinity (bi)module structure of one of the four kinds.

    Construction checks every entry (`_check_entries`, the structure as source
    and target); `validated` checks the structure equation.
    """

    def __init__(
        self,
        kind: str,
        left_alg: AlgebraModel | None,
        right_alg: AlgebraModel | None,
        gens,
        lidem: dict,
        ridem: dict,
        table: dict,
        name: str = "",
    ):
        if kind not in KINDS:
            raise StructureError(f"unknown kind {kind}")
        self.kind = kind
        self.left_alg = left_alg
        self.right_alg = right_alg
        self.gens = tuple(gens)
        self.genset = set(self.gens)
        if len(self.genset) != len(self.gens):
            raise StructureError("duplicate generator")
        self.lidem = dict(lidem)
        self.ridem = dict(ridem)
        self.table = {k: frozenset(v) for k, v in table.items() if v}
        self.name = name
        if kind[0] == "D" and left_alg is None:
            raise StructureError("a left type-D side needs an algebra")
        if kind[1] == "D" and right_alg is None:
            raise StructureError("a right type-D side needs an algebra")
        _check_entries(kind, self.table, self, self)

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

    # -- underlying chain complex -------------------------------------------

    def underlying_complex(self) -> ChainComplexGf2:
        """The scalar part: differential terms whose algebra factors are idempotents."""
        return ChainComplexGf2(self.gens, _scalar_matrix(self, self, self))

    def is_dg_type(self) -> bool:
        """Only the differential and the one-input actions are nonzero."""
        return all(len(aL) + len(aR) <= 1 for aL, _, aR in self.table)

    def max_left_len(self) -> int:
        return _max_input_len(self, 0)

    def max_right_len(self) -> int:
        return _max_input_len(self, 2)


def _scalar_matrix(f, src: ModuleStructure, dst: ModuleStructure) -> Gf2Matrix:
    """The matrix, src's generators to dst's, of the terms of f's table (a
    structure's or a morphism's) with no inputs and idempotent outputs."""
    A, B = src.left_alg, src.right_alg
    images: dict = {g: set() for g in src.gens}
    for (argsL, g, argsR), outs in f.table.items():
        if argsL or argsR:
            continue
        for a, y, b in outs:
            if (a is None or A.is_idempotent_elem(a)) and (b is None or B.is_idempotent_elem(b)):
                images[g] ^= {y}
    return Gf2Matrix.from_columns(dst.gens, src.gens, images)


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
    return [c[::-1] for c in _chains_into(alg.opposite, inner, max_len)]


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


def _pullbacks(alg: AlgebraModel | None, args: tuple):
    """Tuples that one mu_1 / mu_2 insertion (see `_insertions`) can turn into args."""
    if alg is None or not args:
        return
    dpre, mpre = alg.preimages
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
    returned as (argsL, g, argsR) in brute-force order.
    """
    A, B = src.left_alg, src.right_alg
    found: set = set()
    for inner, outer in composable:
        by_gen: dict = {}
        for oL, y, oR in outer:
            by_gen.setdefault(y, []).append((oL, oR))
        for (iL, g, iR), outs in inner.items():
            for y in {y for _, y, _ in outs}:
                for oL, oR in by_gen.get(y, ()):
                    found.add((oL + iL, g, iR + oR))
    for keys in stored:
        for key in keys:
            kL, g, kR = key
            found.add(key)
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
            or _chain_end(A, argsL, src.lidem[g], 0) is None
        ):
            continue
        if argsR and (
            B is None
            or any(B.is_idempotent_elem(b) for b in argsR)
            or _chain_end(B, argsR, src.ridem[g], 2) is None
        ):
            continue
        keep.append((argsL, g, argsR))
    keep.sort(key=lambda k: (pos[k[1]], len(k[0]), k[0][::-1], len(k[2]), k[2]))
    return keep


# -- structure equations ------------------------------------------------------
#
# Lipshitz-Ozsvath-Thurston (arXiv:1003.0598) write the structure equation of
# all four kinds as one sum over the entry shape: compose the structure map
# with itself across every split of the inputs, apply the differential to the
# type-D outputs, and insert mu_1 / mu_2 into the type-A inputs.  A morphism's
# differential is the same sum with src before f and f before dst in place of
# the self-composite.  Inputs are (argsL, g, argsR) and hold no idempotent;
# an insertion never makes one (see above), so the implicit unital entries
# are never reached and the tables are read as stored.


def _at(m, argsL: tuple, g, argsR: tuple):
    """The outputs (a, y, b) of m's table (a structure's or a morphism's) at an input."""
    return m.table.get((argsL, g, argsR), ())


def _composites(acc: dict, inner, outer, key: tuple, A, B) -> None:
    """Add to acc, over every split of key's inputs, inner's entry on the inner
    inputs followed by outer's entry at its output on the rest."""
    argsL, g, argsR = key
    for p in range(len(argsL) + 1):
        for q in range(len(argsR) + 1):
            for a1, y, b1 in _at(inner, argsL[p:], g, argsR[:q]):
                for a2, z, b2 in _at(outer, argsL[:p], y, argsR[q:]):
                    for pa in (None,) if a1 is None else A.mult_table[(a1, a2)]:
                        for pb in (None,) if b1 is None else B.mult_table[(b2, b1)]:
                            _parity_add(acc, (pa, z, pb))


def _own_terms(acc: dict, f, key: tuple, A, B) -> None:
    """Add to acc d of f's type-D outputs at key, and f after one mu_1 / mu_2
    insertion into key's inputs on each side."""
    argsL, g, argsR = key
    for a, y, b in _at(f, argsL, g, argsR):
        for da in () if a is None else A.diff_table[a]:
            _parity_add(acc, (da, y, b))
        for db in () if b is None else B.diff_table[b]:
            _parity_add(acc, (a, y, db))
    for newL in _insertions(A, argsL):
        for out in _at(f, newL, g, argsR):
            _parity_add(acc, out)
    for newR in _insertions(B, argsR):
        for out in _at(f, argsL, g, newR):
            _parity_add(acc, out)


def _live(acc: dict) -> frozenset:
    return frozenset(out for out, v in acc.items() if v)


def _equation(m: ModuleStructure, key: tuple) -> frozenset:
    """m's structure equation at key = (argsL, g, argsR): a set of outputs (a, y, b)."""
    acc: dict = {}
    _composites(acc, m, m, key, m.left_alg, m.right_alg)
    _own_terms(acc, m, key, m.left_alg, m.right_alg)
    return _live(acc)


def check_structure(m: ModuleStructure):
    """Evaluate the kind's structure equation over the finite reachable domain.

    Returns None when every sum vanishes, otherwise one violating input
    (argsL, g, argsR), for every kind (a DD witness is ((), g, ())): the
    first, in generator order and then by input length, that the exhaustive
    enumeration of chained inputs would reach.  On each side the window is max(2L, L + 1) inputs, L
    the table's longest entry there: two composed entries take at most 2L
    inputs, one entry after an insertion L + 1.  Only inputs built from the
    table's support are evaluated; every other input of that window vanishes
    identically.  Inputs containing idempotent basis elements are omitted:
    strict unitality makes those instances hold identically.
    """
    lmax, rmax = m.max_left_len(), m.max_right_len()
    inputs = _candidate_inputs(
        m,
        max(2 * lmax, lmax + 1),
        max(2 * rmax, rmax + 1),
        [(m.table, m.table)],
        [m.table],
    )
    for key in inputs:
        if _equation(m, key):
            return key
    return None


def validated(m: ModuleStructure) -> ModuleStructure:
    """m itself if its structure equation holds, else a StructureError naming m and a witness."""
    bad = check_structure(m)
    if bad is not None:
        raise StructureError(f"{m.name}: structure equation fails at {bad}")
    return m


# -- duals and opposites -------------------------------------------------------


def dualize(m: ModuleStructure, name: str | None = None) -> ModuleStructure:
    """Rotate the structure by 180 degrees: AA->AA (sides swapped), DA->AD, DD->DD.

    The dual is called `name`, by default dual(<m's name>).
    """
    table: dict = {}
    for (argsL, g, argsR), outs in m.table.items():
        for a, y, b in outs:
            _add(table, (argsR[::-1], y, argsL[::-1]), (b, g, a))
    if name is None:
        name = f"dual({m.name})" if m.name else ""
    return ModuleStructure(
        m.kind[::-1],
        m.right_alg,
        m.left_alg,
        m.gens,
        m.ridem,
        m.lidem,
        table,
        name=name,
    )


def oppositize(m: ModuleStructure) -> ModuleStructure:
    """Reflect the structure along the vertical axis, over the opposite algebras."""
    left = m.right_alg.opposite if m.right_alg is not None else None
    right = m.left_alg.opposite if m.left_alg is not None else None
    table: dict = {}
    for (argsL, g, argsR), outs in m.table.items():
        key = (argsR[::-1], g, argsL[::-1])
        table[key] = table.get(key, frozenset()) ^ {(b, y, a) for a, y, b in outs}
    return ModuleStructure(
        m.kind[::-1], left, right, m.gens, m.ridem, m.lidem, table,
        name=f"op({m.name})" if m.name else "",
    )


def relabel(m: ModuleStructure, f) -> ModuleStructure:
    """The same structure with every generator g renamed f(g); f must be injective.

    Each new name is computed once and shared by every table entry, so later
    comparisons of equal generators hit the identity fast path.
    """
    new = {g: f(g) for g in m.gens}
    table = {
        (argsL, new[g], argsR): frozenset((a, new[y], b) for a, y, b in outs)
        for (argsL, g, argsR), outs in m.table.items()
    }
    return ModuleStructure(
        m.kind,
        m.left_alg,
        m.right_alg,
        new.values(),
        {new[g]: s for g, s in m.lidem.items()},
        {new[g]: s for g, s in m.ridem.items()},
        table,
        name=m.name,
    )


# -- morphisms -----------------------------------------------------------------


class Morphism:
    """A finite-support collection of component maps between equal-kind structures.

    Construction checks every entry as a structure's is checked, with its key
    against src and its outputs against dst (`_check_entries`)."""

    def __init__(self, src: ModuleStructure, dst: ModuleStructure, table: dict):
        if src.kind != dst.kind:
            raise StructureError("morphism endpoints have different kinds")
        if src.left_alg is not dst.left_alg or src.right_alg is not dst.right_alg:
            raise StructureError("morphism endpoints over different algebras")
        self.src = src
        self.dst = dst
        self.table = {k: frozenset(v) for k, v in table.items() if v}
        _check_entries(src.kind, self.table, src, dst)

    @property
    def kind(self) -> str:
        return self.src.kind

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


def identity_morphism(m: ModuleStructure) -> Morphism:
    A, B = m.left_alg, m.right_alg
    table: dict = {}
    for g in m.gens:
        a = A.idempotent_index(m.lidem[g]) if m.kind[0] == "D" else None
        b = B.idempotent_index(m.ridem[g]) if m.kind[1] == "D" else None
        table[((), g, ())] = {(a, g, b)}
    return Morphism(m, m, table)


def zero_morphism(src: ModuleStructure, dst: ModuleStructure) -> Morphism:
    return Morphism(src, dst, {})


def _diff(f: Morphism, key: tuple) -> frozenset:
    """f's morphism differential at key = (argsL, g, argsR): a set of outputs (a, y, b)."""
    acc: dict = {}
    A, B = f.src.left_alg, f.src.right_alg
    _composites(acc, f.src, f, key, A, B)
    _composites(acc, f, f.dst, key, A, B)
    _own_terms(acc, f, key, A, B)
    return _live(acc)


def morphism_diff(f: Morphism) -> Morphism:
    """The differential of a morphism in the morphism complex of its kind.

    Evaluated on the inputs of the exhaustive window (chained inputs up to the
    longest entry of f plus the longest of src or dst, and at least one more
    than f's) that are built from f's support; every other input vanishes.
    """
    src, dst = f.src, f.dst
    inputs = _candidate_inputs(
        src,
        _max_input_len(f, 0) + max(src.max_left_len(), dst.max_left_len(), 1),
        _max_input_len(f, 2) + max(src.max_right_len(), dst.max_right_len(), 1),
        [(f.table, dst.table), (src.table, f.table)],
        [f.table],
    )
    return Morphism(src, dst, {key: _diff(f, key) for key in inputs})


def is_homomorphism(f: Morphism) -> bool:
    return morphism_diff(f).is_zero()


# -- bounded homotopy search ---------------------------------------------------


def _morphism_slots(src: ModuleStructure, dst: ModuleStructure, max_len: int) -> list:
    """All idempotent-compatible (key, atom) pairs with input length <= max_len.

    Ordered by generator, left inputs, right inputs, left output, right output
    and target generator.
    """
    kind = src.kind
    A, B = src.left_alg, src.right_alg
    slots = []
    for g in src.gens:
        lefts = _chains_into(A, src.lidem[g], max_len) if kind[0] == "A" and A else [()]
        for argsL in lefts:
            rights = (
                _chains_from(B, src.ridem[g], max_len - len(argsL))
                if kind[1] == "A" and B
                else [()]
            )
            for argsR in rights:
                key = (argsL, g, argsR)
                li = _chain_end(A, argsL, src.lidem[g], 0)
                ri = _chain_end(B, argsR, src.ridem[g], 2)
                louts = [a for a in range(A.dim) if A.left_idem[a] == li] if kind[0] == "D" else [None]
                routs = [b for b in range(B.dim) if B.right_idem[b] == ri] if kind[1] == "D" else [None]
                for a in louts:
                    yli = li if a is None else A.right_idem[a]
                    for b in routs:
                        yri = ri if b is None else B.left_idem[b]
                        for y in dst.gens:
                            if dst.lidem[y] == yli and dst.ridem[y] == yri:
                                slots.append((key, (a, y, b)))
    return slots


def morphism_to_atoms(f: Morphism) -> frozenset:
    return frozenset((key, v) for key, outs in f.table.items() for v in outs)


def bounded_homotopy_search(f: Morphism, g: Morphism, max_len: int) -> Morphism | None:
    """Search for H with dH = f - g among morphisms of input length <= max_len.

    A None result is inconclusive: it never certifies that f and g are not
    homotopic.
    """
    target = morphism_to_atoms(f + g)
    slots = _morphism_slots(f.src, f.dst, max_len)
    images = {
        idx: morphism_to_atoms(morphism_diff(Morphism(f.src, f.dst, {key: {val}})))
        for idx, (key, val) in enumerate(slots)
    }
    rows = sorted(target.union(*images.values()), key=repr)
    sol = solve(Gf2Matrix.from_columns(rows, range(len(slots)), images), target)
    if sol is None:
        return None
    table: dict = {}
    for idx in sol:
        _add(table, *slots[idx])
    return Morphism(f.src, f.dst, table)
