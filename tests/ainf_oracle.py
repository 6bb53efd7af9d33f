"""Brute-force reference implementations of `check_structure` and `morphism_diff`.

These evaluate every idempotent-chained input of the window the library
checks (on each side max(2L, L + 1) inputs, L the longest table entry there),
for every generator, in the order the chains are enumerated.  The library
sums forward from the tables' support instead; the differential tests
compare the two.  Each input is evaluated here with its own per-kind sum
(`EQUATIONS`, `DIFFS`), written out for each kind and reading the tables in
that kind's own layout (`kind_layout`), so the library's single entry-shape
sum (`ainf._sums`) is checked input by input as well as its witnesses.

The last section keeps what the tests need and no command does: the
identity morphism and the composition of morphisms, which the tests of
`morphism_diff` (the Leibniz rule) and of the unit law use, and a text dump
that pins the standard models' tables.
"""

from __future__ import annotations

import weakref

from strandjoin.ainf import (
    Morphism,
    ModuleStructure,
    StructureError,
    _add,
    _chains_from,
    _chains_into,
    _max_input_len,
)

# -- the per-kind layouts ----------------------------------------------------------
#
# The library stores every table as (argsL, g, argsR) -> {(a, y, b)}.  The
# references here read and write each kind's own layout instead: keys
# (argsL, g, argsR), (g, argsR), (argsL, g) and g, outputs y, (a, y), (y, b)
# and (a, y, b), for AA, DA, AD and DD.


def _kind_key(kind: str, key: tuple):
    """A key (argsL, g, argsR) in the kind's layout."""
    argsL, g, argsR = key
    return {"AA": key, "DA": (g, argsR), "AD": (argsL, g), "DD": g}[kind]


def _kind_out(kind: str, out: tuple):
    """An output (a, y, b) in the kind's layout."""
    a, y, b = out
    return {"AA": y, "DA": (a, y), "AD": (y, b), "DD": out}[kind]


def _shape_key(kind: str, key) -> tuple:
    """A key in the kind's layout as (argsL, g, argsR)."""
    if kind == "AA":
        return key
    if kind == "DA":
        return ((), key[0], key[1])
    if kind == "AD":
        return (key[0], key[1], ())
    return ((), key, ())


def _shape_out(kind: str, out) -> tuple:
    """An output in the kind's layout as (a, y, b)."""
    if kind == "AA":
        return (None, out, None)
    if kind == "DA":
        return (out[0], out[1], None)
    if kind == "AD":
        return (None, out[0], out[1])
    return out


def kind_layout(m) -> dict:
    """The table of m (a structure or a morphism) in the layout of m's kind."""
    kind = m.src.kind if isinstance(m, Morphism) else m.kind
    return {
        _kind_key(kind, key): frozenset(_kind_out(kind, out) for out in outs)
        for key, outs in m.table.items()
    }


def from_kind_layout(kind: str, table: dict) -> dict:
    """A table written in the kind's layout, in the library's layout."""
    return {
        _shape_key(kind, key): {_shape_out(kind, out) for out in outs}
        for key, outs in table.items()
    }


# -- table reads ---------------------------------------------------------------
#
# A morphism's table has no idempotent inputs; a structure acts strictly
# unitally, so a lone idempotent input acts as the identity on matching
# generators and any other idempotent input gives zero.

# x -> (x.table, kind_layout(x)): each table is converted once, not per read.
_LAYOUTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _parity_add(acc: dict, key) -> None:
    acc[key] = acc.get(key, 0) ^ 1


def _live(acc: dict) -> frozenset:
    return frozenset(k for k, v in acc.items() if v)


def _insertions(alg, args: tuple):
    """All mu_1 / mu_2 insertions into an input tuple, with GF(2) multiplicity."""
    for r, a in enumerate(args):
        for da in alg.diff_table[a]:
            yield args[:r] + (da,) + args[r + 1 :]
    for r in range(len(args) - 1):
        for pa in alg.mult_table[(args[r], args[r + 1])]:
            yield args[:r] + (pa,) + args[r + 2 :]


def _at(x, key) -> frozenset:
    """x's entry at a key of its kind's layout."""
    table, layout = _LAYOUTS.get(x, (None, None))
    if table is not x.table:
        layout = kind_layout(x)
        _LAYOUTS[x] = (x.table, layout)
    return layout.get(key, frozenset())


def _aa(m: ModuleStructure, argsL: tuple, g, argsR: tuple) -> frozenset:
    A, B = m.left_alg, m.right_alg
    idemL = [A.is_idempotent_elem(a) for a in argsL]
    idemR = [B.is_idempotent_elem(b) for b in argsR]
    if any(idemL) or any(idemR):
        if len(argsL) == 1 and not argsR and idemL[0]:
            return frozenset([g]) if m.lidem[g] == A.elems[argsL[0]].occupied else frozenset()
        if len(argsR) == 1 and not argsL and idemR[0]:
            return frozenset([g]) if m.ridem[g] == B.elems[argsR[0]].occupied else frozenset()
        return frozenset()
    return _at(m, (argsL, g, argsR))


def _da(m: ModuleStructure, g, argsR: tuple) -> frozenset:
    B = m.right_alg
    if any(B.is_idempotent_elem(b) for b in argsR):
        if len(argsR) == 1 and B.elems[argsR[0]].occupied == m.ridem[g]:
            return frozenset([(m.left_alg.idempotent_index(m.lidem[g]), g)])
        return frozenset()
    return _at(m, (g, argsR))


def _ad(m: ModuleStructure, argsL: tuple, g) -> frozenset:
    A = m.left_alg
    if any(A.is_idempotent_elem(a) for a in argsL):
        if len(argsL) == 1 and A.elems[argsL[0]].occupied == m.lidem[g]:
            return frozenset([(g, m.right_alg.idempotent_index(m.ridem[g]))])
        return frozenset()
    return _at(m, (argsL, g))


# -- structure equations ---------------------------------------------------------


def aa_equation(m: ModuleStructure, argsL: tuple, g, argsR: tuple) -> frozenset:
    acc: dict = {}
    for p in range(len(argsL) + 1):
        for q in range(len(argsR) + 1):
            for y in _at(m, (argsL[p:], g, argsR[:q])):
                for z in _at(m, (argsL[:p], y, argsR[q:])):
                    _parity_add(acc, z)
    for newL in _insertions(m.left_alg, argsL):
        for z in _aa(m, newL, g, argsR):
            _parity_add(acc, z)
    for newR in _insertions(m.right_alg, argsR):
        for z in _aa(m, argsL, g, newR):
            _parity_add(acc, z)
    return _live(acc)


def da_equation(m: ModuleStructure, g, argsR: tuple) -> frozenset:
    acc: dict = {}
    A = m.left_alg
    for s in range(len(argsR) + 1):
        for a1, y in _at(m, (g, argsR[:s])):
            for a2, z in _at(m, (y, argsR[s:])):
                for prod in A.mult_table[(a1, a2)]:
                    _parity_add(acc, (prod, z))
    for a, y in _at(m, (g, argsR)):
        for da in A.diff_table[a]:
            _parity_add(acc, (da, y))
    for newR in _insertions(m.right_alg, argsR):
        for out in _da(m, g, newR):
            _parity_add(acc, out)
    return _live(acc)


def ad_equation(m: ModuleStructure, argsL: tuple, g) -> frozenset:
    acc: dict = {}
    B = m.right_alg
    for p in range(len(argsL) + 1):
        for y, b1 in _at(m, (argsL[p:], g)):
            for z, b2 in _at(m, (argsL[:p], y)):
                for prod in B.mult_table[(b2, b1)]:
                    _parity_add(acc, (z, prod))
    for y, b in _at(m, (argsL, g)):
        for db in B.diff_table[b]:
            _parity_add(acc, (y, db))
    for newL in _insertions(m.left_alg, argsL):
        for out in _ad(m, newL, g):
            _parity_add(acc, out)
    return _live(acc)


def dd_equation(m: ModuleStructure, g) -> frozenset:
    acc: dict = {}
    A, B = m.left_alg, m.right_alg
    for a, y, b in _at(m, g):
        for da in A.diff_table[a]:
            _parity_add(acc, (da, y, b))
        for db in B.diff_table[b]:
            _parity_add(acc, (a, y, db))
        for a2, z, b2 in _at(m, y):
            for pa in A.mult_table[(a, a2)]:
                # Second-generation right outputs multiply on the left.
                for pb in B.mult_table[(b2, b)]:
                    _parity_add(acc, (pa, z, pb))
    return _live(acc)


EQUATIONS = {"AA": aa_equation, "DA": da_equation, "AD": ad_equation, "DD": dd_equation}


# -- morphism differentials ------------------------------------------------------


def aa_diff(f: Morphism, argsL: tuple, g, argsR: tuple) -> frozenset:
    src, dst = f.src, f.dst
    acc: dict = {}
    for p in range(len(argsL) + 1):
        for q in range(len(argsR) + 1):
            for y in _at(f, (argsL[p:], g, argsR[:q])):
                for z in _at(dst, (argsL[:p], y, argsR[q:])):
                    _parity_add(acc, z)
            for y in _at(src, (argsL[p:], g, argsR[:q])):
                for z in _at(f, (argsL[:p], y, argsR[q:])):
                    _parity_add(acc, z)
    for newL in _insertions(src.left_alg, argsL):
        for z in _at(f, (newL, g, argsR)):
            _parity_add(acc, z)
    for newR in _insertions(src.right_alg, argsR):
        for z in _at(f, (argsL, g, newR)):
            _parity_add(acc, z)
    return _live(acc)


def da_diff(f: Morphism, g, argsR: tuple) -> frozenset:
    src, dst = f.src, f.dst
    A = src.left_alg
    acc: dict = {}
    for s in range(len(argsR) + 1):
        for a1, y in _at(src, (g, argsR[:s])):
            for a2, z in _at(f, (y, argsR[s:])):
                for prod in A.mult_table[(a1, a2)]:
                    _parity_add(acc, (prod, z))
        for a1, y in _at(f, (g, argsR[:s])):
            for a2, z in _at(dst, (y, argsR[s:])):
                for prod in A.mult_table[(a1, a2)]:
                    _parity_add(acc, (prod, z))
    for a, y in _at(f, (g, argsR)):
        for da in A.diff_table[a]:
            _parity_add(acc, (da, y))
    for newR in _insertions(src.right_alg, argsR):
        for out in _at(f, (g, newR)):
            _parity_add(acc, out)
    return _live(acc)


def ad_diff(f: Morphism, argsL: tuple, g) -> frozenset:
    src, dst = f.src, f.dst
    B = src.right_alg
    acc: dict = {}
    for p in range(len(argsL) + 1):
        for y, b1 in _at(src, (argsL[p:], g)):
            for z, b2 in _at(f, (argsL[:p], y)):
                for prod in B.mult_table[(b2, b1)]:
                    _parity_add(acc, (z, prod))
        for y, b1 in _at(f, (argsL[p:], g)):
            for z, b2 in _at(dst, (argsL[:p], y)):
                for prod in B.mult_table[(b2, b1)]:
                    _parity_add(acc, (z, prod))
    for y, b in _at(f, (argsL, g)):
        for db in B.diff_table[b]:
            _parity_add(acc, (y, db))
    for newL in _insertions(src.left_alg, argsL):
        for out in _at(f, (newL, g)):
            _parity_add(acc, out)
    return _live(acc)


def dd_diff(f: Morphism, g) -> frozenset:
    src, dst = f.src, f.dst
    A, B = src.left_alg, src.right_alg
    acc: dict = {}
    for a1, y, b1 in _at(src, g):
        for a2, z, b2 in _at(f, y):
            for pa in A.mult_table[(a1, a2)]:
                for pb in B.mult_table[(b2, b1)]:
                    _parity_add(acc, (pa, z, pb))
    for a1, y, b1 in _at(f, g):
        for a2, z, b2 in _at(dst, y):
            for pa in A.mult_table[(a1, a2)]:
                for pb in B.mult_table[(b2, b1)]:
                    _parity_add(acc, (pa, z, pb))
        for da in A.diff_table[a1]:
            _parity_add(acc, (da, y, b1))
        for db in B.diff_table[b1]:
            _parity_add(acc, (a1, y, db))
    return _live(acc)


DIFFS = {"AA": aa_diff, "DA": da_diff, "AD": ad_diff, "DD": dd_diff}


def _args(kind: str, key) -> tuple:
    """A table key of the given kind as the argument tuple of its per-kind sum."""
    return (key,) if kind == "DD" else key


# -- brute-force enumeration -----------------------------------------------------


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
            yield (argsL, g, argsR)


def structure_window(m: ModuleStructure):
    """Every input of the window `check_structure` covers, in enumeration order."""
    lmax, rmax = _max_input_len(m, 0), _max_input_len(m, 2)
    for g in m.gens:
        yield from _window(m, g, max(2 * lmax, lmax + 1), max(2 * rmax, rmax + 1))


def diff_window(f: Morphism):
    """Every input of the window `morphism_diff` covers, in enumeration order."""
    src, dst = f.src, f.dst
    lmax = _max_input_len(f, 0) + max(_max_input_len(src, 0), _max_input_len(dst, 0), 1)
    rmax = _max_input_len(f, 2) + max(_max_input_len(src, 2), _max_input_len(dst, 2), 1)
    for g in src.gens:
        yield from _window(src, g, lmax, rmax)


def equation(m: ModuleStructure, key: tuple) -> frozenset:
    """The structure equation of m at key = (argsL, g, argsR), as outputs (a, y, b)."""
    value = EQUATIONS[m.kind](m, *_args(m.kind, _kind_key(m.kind, key)))
    return frozenset(_shape_out(m.kind, out) for out in value)


def diff(f: Morphism, key: tuple) -> frozenset:
    """The morphism differential of f at key = (argsL, g, argsR), as outputs (a, y, b)."""
    kind = f.src.kind
    value = DIFFS[kind](f, *_args(kind, _kind_key(kind, key)))
    return frozenset(_shape_out(kind, out) for out in value)


def oracle_check_structure(m: ModuleStructure):
    """The first input (in enumeration order) whose structure equation is nonzero."""
    for key in structure_window(m):
        if equation(m, key):
            return key
    return None


def oracle_morphism_diff(f: Morphism) -> Morphism:
    """The morphism differential evaluated on every chained input of the window."""
    return Morphism(f.src, f.dst, {key: diff(f, key) for key in diff_window(f)})


# -- identity, composition and table dumps ---------------------------------------


def identity_morphism(m: ModuleStructure) -> Morphism:
    """The identity of m: each generator to itself, with the idempotent of its
    type-D sides as their outputs."""
    A, B = m.left_alg, m.right_alg
    table: dict = {}
    for g in m.gens:
        a = A.idempotent_index(m.lidem[g]) if m.kind[0] == "D" else None
        b = B.idempotent_index(m.ridem[g]) if m.kind[1] == "D" else None
        table[((), g, ())] = {(a, g, b)}
    return Morphism(m, m, table)


def morphism_compose(g: Morphism, f: Morphism) -> Morphism:
    """g after f, per the composition diagrams of the four kinds.

    The outer g consumes the outer inputs: left inputs are g's then f's, right
    inputs f's then g's.  Left outputs multiply as a_f . a_g, right outputs as
    b_g . b_f (later outputs outermost).
    """
    if f.dst is not g.src:
        raise StructureError("composition endpoint mismatch")
    A, B = f.src.left_alg, f.src.right_alg
    outer: dict = {}
    for (argsL2, y, argsR2), outs2 in g.table.items():
        outer.setdefault(y, []).append((argsL2, argsR2, outs2))
    table: dict = {}
    for (argsL1, x, argsR1), outs1 in f.table.items():
        for a1, y, b1 in outs1:
            for argsL2, argsR2, outs2 in outer.get(y, ()):
                key = (argsL2 + argsL1, x, argsR1 + argsR2)
                for a2, z, b2 in outs2:
                    for pa in (None,) if a1 is None else A.mult_table[(a1, a2)]:
                        for pb in (None,) if b1 is None else B.mult_table[(b2, b1)]:
                            _add(table, key, (pa, z, pb))
    return Morphism(f.src, g.dst, table)


def dump_module_tsv(m: ModuleStructure) -> str:
    """Serialize a structure table: one line per entry, algebra elements by index."""
    lines = [f"# kind: {m.kind}"]
    lines.append(f"# left: {'-' if m.left_alg is None else 'A(' + str(m.left_alg.arc_diagram.kind) + ',' + str(m.left_alg.dim) + ')'}")
    lines.append(f"# right: {'-' if m.right_alg is None else 'A(' + str(m.right_alg.arc_diagram.kind) + ',' + str(m.right_alg.dim) + ')'}")

    def fmt(*parts):
        return ",".join(str(p) for p in parts if p is not None)

    entries = []
    for (argsL, g, argsR), outs in m.table.items():
        key = f"L:{fmt(*argsL)}|{g!r}|R:{fmt(*argsR)}"
        val = ";".join(sorted(fmt(a, repr(y), b) for a, y, b in outs))
        entries.append(f"{key}\t{val}")
    lines.extend(sorted(entries))
    return "\n".join(lines) + "\n"
