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
Structure equations and morphism differentials are summed forward from the
tables, one generator at a time (`_sums`), so a check holds one generator's
sums and stops at the first that fails.

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

from .gf2 import ChainComplexGf2, Gf2Matrix, StructureError, span_coordinates, tagged_span
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

    def __repr__(self):
        return f"<ModuleStructure {self.kind} {self.name or hex(id(self))} dim={len(self.gens)}>"

    # -- underlying chain complex -------------------------------------------

    def underlying_complex(self) -> ChainComplexGf2:
        """The scalar part: differential terms whose algebra factors are idempotents."""
        return ChainComplexGf2(self.gens, _scalar_matrix(self, self, self))

    def is_dg_type(self) -> bool:
        """Only the differential and the one-input actions are nonzero."""
        return all(len(aL) + len(aR) <= 1 for aL, _, aR in self.table)


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


def _chains_into(alg: AlgebraModel, inner: frozenset, max_len: int) -> list[tuple]:
    """Tuples (a_1..a_i), i <= max_len, idempotent-chained with a_i's right idem = inner."""
    out: list[tuple] = [()]
    layer: list[tuple] = [()]
    cands = [i for i in range(alg.dim) if not alg.is_idempotent_elem(i)]
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


# -- structure equations ------------------------------------------------------
#
# Lipshitz-Ozsvath-Thurston (arXiv:1003.0598) write the structure equation of
# all four kinds as one sum over the entry shape: compose the structure map
# with itself across every split of the inputs, apply the differential to the
# type-D outputs, and insert mu_1 / mu_2 into the type-A inputs.  A morphism's
# differential is the same sum with src before f and f before dst in place of
# the self-composite.
#
# Every term of such a sum at an input (argsL, g, argsR) starts from an entry
# keyed at g, so the sums are built forward from the tables, one generator at
# a time: each composable pair of entries adds its composite at the
# concatenation of their inputs, and each entry adds d of its type-D outputs
# at its own key and its outputs at every input that one insertion turns into
# its key (the finite-support argument of the same paper).  No other input has
# a nonzero sum.  An insertion could also reach the implicit unital action of
# a lone idempotent input, but in a strands algebra d and mu_2 of
# non-idempotent elements never contain an idempotent (moving strands never
# cancel), so the tables are read as stored.


def _pullbacks(alg: AlgebraModel | None, args: tuple):
    """Tuples that one mu_1 / mu_2 insertion into an input tuple turns into args."""
    if alg is None or not args:
        return
    dpre, mpre = alg.preimages
    for r, c in enumerate(args):
        head, tail = args[:r], args[r + 1 :]
        for a in dpre.get(c, ()):
            yield head + (a,) + tail
        for pair in mpre.get(c, ()):
            yield head + pair + tail


def _by_generator(table: dict) -> dict:
    """A table's entries grouped by generator: g -> [(key, outputs)]."""
    at: dict = {}
    for key, outs in table.items():
        at.setdefault(key[1], []).append((key, outs))
    return at


def _sums(gens, composable, own_at: dict, A, B):
    """For each generator g of gens, in order, the nonzero sums at the inputs
    (argsL, g, argsR), as a dict from input to its set of outputs (a, y, b).

    Every table comes grouped by generator (`_by_generator`).  `composable`
    lists (inner, outer) tables: an inner entry at g with output generator y
    is followed by each outer entry at y.  `own_at` is the table whose entries
    are also evaluated on their own inputs and after one insertion.
    """
    for g in gens:
        acc: dict = {}
        for inner_at, outer_at in composable:
            for (iL, _, iR), outs in inner_at.get(g, ()):
                for a1, y, b1 in outs:
                    for (oL, _, oR), outs2 in outer_at.get(y, ()):
                        terms = acc.setdefault((oL + iL, g, iR + oR), set())
                        for a2, z, b2 in outs2:
                            for pa in (None,) if a1 is None else A.mult_table[(a1, a2)]:
                                for pb in (None,) if b1 is None else B.mult_table[(b2, b1)]:
                                    terms ^= {(pa, z, pb)}
        for key, outs in own_at.get(g, ()):
            kL, _, kR = key
            terms = acc.setdefault(key, set())
            for a, y, b in outs:
                for da in () if a is None else A.diff_table[a]:
                    terms ^= {(da, y, b)}
                for db in () if b is None else B.diff_table[b]:
                    terms ^= {(a, y, db)}
            for newL in _pullbacks(A, kL):
                acc.setdefault((newL, g, kR), set()).symmetric_difference_update(outs)
            for newR in _pullbacks(B, kR):
                acc.setdefault((kL, g, newR), set()).symmetric_difference_update(outs)
        yield {key: terms for key, terms in acc.items() if terms}


def _structure_sums(m: ModuleStructure):
    """`_sums` of m's structure equation."""
    at = _by_generator(m.table)
    return _sums(m.gens, [(at, at)], at, m.left_alg, m.right_alg)


def check_structure(m: ModuleStructure):
    """Evaluate the kind's structure equation wherever it can be nonzero.

    Returns None when every sum vanishes, otherwise one violating input
    (argsL, g, argsR), for every kind (a DD witness is ((), g, ())): at the
    first generator with a nonzero sum, the least input by (len(argsL),
    argsL reversed, len(argsR), argsR), which is the one the exhaustive
    enumeration of chained inputs would reach first.  The sums are built
    forward from the table one generator at a time (`_sums`), so a failure
    stops the check at its generator.  Inputs containing idempotent basis
    elements are never reached: strict unitality makes those instances hold
    identically.
    """
    for sums in _structure_sums(m):
        if sums:
            return min(sums, key=lambda k: (len(k[0]), k[0][::-1], len(k[2]), k[2]))
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

    Every arrow is reversed over the same algebras, so the inputs keep their
    order: the input outermost on g, next to its output y, is innermost on y
    in the dual.  `oppositize`, a reflection, reverses them.  The dual
    is called `name`, by default dual(<m's name>).
    """
    table: dict = {}
    for (argsL, g, argsR), outs in m.table.items():
        for a, y, b in outs:
            _add(table, (argsR, y, argsL), (b, g, a))
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


def relabel(m: ModuleStructure, f, order=None, name: str | None = None) -> ModuleStructure:
    """The same structure with every generator g renamed f(g); f must be injective.

    The generators keep m's order, or are sorted by order(g) when it is
    given; the result is called `name`, by default m's name.  Each new name
    is computed once and shared by every table entry, so later comparisons
    of equal generators hit the identity fast path.
    """
    new = {g: f(g) for g in (m.gens if order is None else sorted(m.gens, key=order))}
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
        name=m.name if name is None else name,
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


def _diff_sums(src: ModuleStructure, dst: ModuleStructure, table: dict):
    """`_sums` of the differential of a morphism table from src to dst."""
    src_at, dst_at, at = _by_generator(src.table), _by_generator(dst.table), _by_generator(table)
    return _sums(src.gens, [(src_at, at), (at, dst_at)], at, src.left_alg, src.right_alg)


def _diff_table(src: ModuleStructure, dst: ModuleStructure, table: dict) -> dict:
    """The table of the differential of a morphism table from src to dst."""
    return {key: outs for per_gen in _diff_sums(src, dst, table) for key, outs in per_gen.items()}


def morphism_diff(f: Morphism) -> Morphism:
    """The differential of a morphism in the morphism complex of its kind,
    summed forward from the tables of f, its source and its target (`_sums`)."""
    return Morphism(f.src, f.dst, _diff_table(f.src, f.dst, f.table))


def is_homomorphism(f: Morphism) -> bool:
    return not any(_diff_sums(f.src, f.dst, f.table))


# -- bounded homotopy search ---------------------------------------------------


def _morphism_slots(src: ModuleStructure, dst: ModuleStructure, max_len: int) -> list:
    """All idempotent-compatible (key, atom) pairs with input length <= max_len, ordered
    by generator, left inputs, right inputs, left output, right output and target."""
    kind, A, B, slots = src.kind, src.left_alg, src.right_alg, []
    for g in src.gens:
        lefts = _chains_into(A, src.lidem[g], max_len) if kind[0] == "A" and A else [()]
        for argsL in lefts:
            right_len = max_len - len(argsL)
            for argsR in _chains_from(B, src.ridem[g], right_len) if kind[1] == "A" and B else [()]:
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
                                slots.append(((argsL, g, argsR), (a, y, b)))
    return slots


def _reaching(m: ModuleStructure) -> dict:
    """g -> the set of generators where a morphism entry at g can have a
    nonzero differential: g and each generator with an entry of m into g."""
    into: dict = {g: {g} for g in m.gens}
    for (_, h, _), outs in m.table.items():
        for _, y, _ in outs:
            into[y].add(h)
    return into


def _slot_images(src: ModuleStructure, dst: ModuleStructure, slots: list):
    """Each slot's differential as a list of atoms (key, output), summed only where
    `_reaching` allows and sorted by generator positions and inputs, not hashes."""
    src_at, dst_at = _by_generator(src.table), _by_generator(dst.table)
    reach, A, B = _reaching(src), src.left_alg, src.right_alg
    gpos, ypos = ({g: i for i, g in enumerate(m.gens)} for m in (src, dst))
    for key, val in slots:
        at = {key[1]: [(key, (val,))]}
        sums = _sums(reach[key[1]], [(src_at, at), (at, dst_at)], at, A, B)
        atoms = [(k, v) for per_gen in sums for k, outs in per_gen.items() for v in outs]
        yield sorted(atoms, key=lambda t: (gpos[t[0][1]], t[0], t[1][0], ypos[t[1][1]], t[1][2]))


def homotopy_solver(src: ModuleStructure, dst: ModuleStructure, max_len: int):
    """The map from a morphism table t from src to dst to an H of input length
    <= max_len with dH = t, or to None, which is inconclusive.  The slots'
    images are listed and eliminated once, each tagged with its slot."""
    slots = _morphism_slots(src, dst, max_len)
    index: dict = {}
    images = _slot_images(src, dst, slots)
    pivots = tagged_span([index.setdefault(a, len(index)) for a in atoms] for atoms in images)

    def solve(t: dict) -> Morphism | None:
        atoms = {(key, v) for key, outs in t.items() for v in outs}
        if not atoms <= index.keys():  # outside every slot's image
            return None
        tags = span_coordinates(pivots, sum(1 << index[a] for a in atoms))
        if tags is None:
            return None
        table: dict = {}
        for i in tags:
            _add(table, *slots[i])
        return Morphism(src, dst, table)

    return solve
