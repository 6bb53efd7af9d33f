"""Output checks computed apart from the program, and corruptions that each must reject.

Every check takes (text, exit code, context) and raises CheckError on a wrong
output.  They use their own strand-diagram enumerator and their own GF(2)
elimination on Python integers, or properties the output must have (d^2 = 0,
unit laws, Leibniz, associativity, chain maps); none compares against a
stored copy of an earlier output.  `corruptions` gives, for each check, a
few damaged copies of a real output; the self-test requires every one of
them to be rejected.
"""

from __future__ import annotations

import ast
import itertools
from dataclasses import dataclass

SAMPLE = 3000  # composable pairs and triples tested for Leibniz and associativity
CHECK_ALL_SUITES = ("dga", "variants", "structures", "join", "nice", "sfh", "homotopy")


class CheckError(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


@dataclass
class Context:
    op: object  # workloads.Op
    diagram: object  # workloads.Diagram
    ref: object = None  # Algebra parsed from a checked `algebra` dump of the diagram
    rng: object = None  # random.Random for sampled checks


# -- GF(2) on Python integers -------------------------------------------------------


def _bits(v: int):
    while v:
        low = v & -v
        yield low.bit_length() - 1
        v ^= low


def gf2_rank(columns) -> int:
    pivots: dict = {}
    for v in columns:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


def _xor_all(sets) -> set:
    acc: set = set()
    for s in sets:
        acc.symmetric_difference_update(s)
    return acc


# -- the algebra dump ---------------------------------------------------------------


@dataclass
class Algebra:
    elems: list  # (movers frozenset of (s, t), occupied frozenset)
    left: list  # left idempotent of each element
    right: list
    mult: dict  # (i, j) -> frozenset
    diff: dict  # i -> frozenset

    def block(self, I, J) -> list:
        return [x for x in range(len(self.elems)) if self.left[x] == I and self.right[x] == J]


def _ints(field: str) -> frozenset:
    return frozenset(int(t) for t in field.split(",")) if field else frozenset()


def _body(text: str) -> list:
    return [l for l in text.splitlines() if l.strip() and not l.startswith("# strandjoin")
            and not l.startswith("# seed:")]


def parse_algebra(text: str) -> Algebra:
    alg = Algebra([], [], [], {}, {})
    section, dim = None, None
    try:
        for line in _body(text):
            if line.startswith("# basis (dim "):
                section, dim = "basis", int(line[len("# basis (dim "):-1])
                continue
            if line in ("# mult", "# diff"):
                section = line[2:]
                continue
            f = line.split("\t")
            if section == "basis":
                _require(len(f) == 5 and int(f[0]) == len(alg.elems), f"bad basis line {line!r}")
                movers = frozenset(tuple(m.split(">")) for m in f[2].split(",")) if f[2] else frozenset()
                alg.elems.append((movers, _ints(f[1])))
                alg.left.append(_ints(f[3]))
                alg.right.append(_ints(f[4]))
            elif section == "mult":
                _require(len(f) == 3, f"bad mult line {line!r}")
                alg.mult[(int(f[0]), int(f[1]))] = _ints(f[2])
            elif section == "diff":
                _require(len(f) == 2, f"bad diff line {line!r}")
                alg.diff[int(f[0])] = _ints(f[1])
            else:
                raise CheckError(f"line outside any section: {line!r}")
    except ValueError as e:
        raise CheckError(f"unparsable algebra dump: {e}")
    _require(dim == len(alg.elems), f"header says dim {dim}, {len(alg.elems)} basis lines")
    return alg


def strand_basis(diagram) -> set:
    """The symmetrized strand diagrams of a one-arc diagram, enumerated directly.

    A basis element is a set of moving strands s -> t (t after s along the arc
    for alpha type, before it for beta type) with distinct source pairs and
    distinct target pairs, plus any set of matched pairs touched by no strand.
    """
    pos = {p: i for i, p in enumerate(diagram.points)}
    pair = {p: i + 1 for i, pq in enumerate(diagram.pairs) for p in pq}
    up = (lambda s, t: pos[s] < pos[t]) if diagram.kind == "alpha" else (lambda s, t: pos[s] > pos[t])
    chords = [(s, t) for s in pos for t in pos if s != t and up(s, t)]
    k = len(diagram.pairs)
    out = set()
    for r in range(k + 1):
        for movers in itertools.combinations(chords, r):
            src = {pair[s] for s, _ in movers}
            tgt = {pair[t] for _, t in movers}
            if len(src) < r or len(tgt) < r:
                continue
            free = [i for i in range(1, k + 1) if i not in src and i not in tgt]
            for n in range(len(free) + 1):
                for occ in itertools.combinations(free, n):
                    out.add((frozenset(movers), frozenset(occ)))
    return out


def _composable(alg: Algebra, rng, length: int) -> list:
    """All composable tuples of `length` elements, or a seeded sample of SAMPLE of them."""
    by_left: dict = {}
    for x, L in enumerate(alg.left):
        by_left.setdefault(L, []).append(x)
    n = len(alg.elems)
    tuples = [(x,) for x in range(n)]
    for _ in range(length - 1):
        total = sum(len(by_left.get(alg.right[t[-1]], ())) for t in tuples)
        if total > SAMPLE:
            break
        tuples = [t + (y,) for t in tuples for y in by_left.get(alg.right[t[-1]], ())]
    else:
        return tuples
    out = []
    for _ in range(SAMPLE):
        t = (rng.randrange(n),)
        while len(t) < length:
            t += (rng.choice(by_left[alg.right[t[-1]]]),)
        out.append(t)
    return out


def check_algebra(text: str, rc: int, ctx: Context) -> Algebra:
    _require(rc == 0, f"exit code {rc}")
    alg = parse_algebra(text)
    n = len(alg.elems)
    pair = {p: i + 1 for i, pq in enumerate(ctx.diagram.pairs) for p in pq}
    expected = strand_basis(ctx.diagram)
    _require(len(set(alg.elems)) == n, "repeated basis element")
    _require(set(alg.elems) == expected,
             f"basis differs from the strand enumeration ({n} listed, {len(expected)} expected)")
    for x, (movers, occ) in enumerate(alg.elems):
        _require(alg.left[x] == occ | {pair[s] for s, _ in movers}, f"left idempotent of {x}")
        _require(alg.right[x] == occ | {pair[t] for _, t in movers}, f"right idempotent of {x}")

    def d(x):
        return alg.diff.get(x, frozenset())

    def m(x, y):
        return alg.mult.get((x, y), frozenset())

    def mul(xs, ys):
        return _xor_all(m(x, y) for x in xs for y in ys)

    for x, dx in alg.diff.items():
        _require(0 <= x < n and all(0 <= y < n for y in dx), f"diff entry out of range at {x}")
        _require(all((alg.left[y], alg.right[y]) == (alg.left[x], alg.right[x]) for y in dx),
                 f"d({x}) leaves its idempotent block")
        _require(not _xor_all(d(y) for y in dx), f"d^2 != 0 at {x}")
    for (x, y), xy in alg.mult.items():
        _require(0 <= x < n and 0 <= y < n and all(0 <= z < n for z in xy), "mult entry out of range")
        _require(alg.right[x] == alg.left[y], f"nonzero product of non-composable ({x},{y})")
        _require(all(alg.left[z] == alg.left[x] and alg.right[z] == alg.right[y] for z in xy),
                 f"product ({x},{y}) leaves its idempotent block")
    idem = {occ: x for x, (movers, occ) in enumerate(alg.elems) if not movers}
    for x in range(n):
        for I, e in idem.items():
            _require(m(e, x) == (frozenset([x]) if I == alg.left[x] else frozenset()),
                     f"left unit law fails at ({e},{x})")
            _require(m(x, e) == (frozenset([x]) if I == alg.right[x] else frozenset()),
                     f"right unit law fails at ({x},{e})")
    for x, y in _composable(alg, ctx.rng, 2):
        lhs = _xor_all(d(z) for z in m(x, y))
        rhs = mul(d(x), [y]) ^ mul([x], d(y))
        _require(lhs == rhs, f"Leibniz fails at ({x},{y})")
    for x, y, z in _composable(alg, ctx.rng, 3):
        _require(mul(m(x, y), [z]) == mul([x], m(y, z)), f"associativity fails at ({x},{y},{z})")
    return alg


def _algebra_corruptions(text: str, ctx: Context):
    lines = text.splitlines(keepends=True)
    alg = parse_algebra(text)
    start = next(i for i, l in enumerate(lines) if l.startswith("# mult"))
    last_basis = start - 1
    yield "dropped basis line", "".join(lines[:last_basis] + lines[last_basis + 1:])
    for i in range(start + 1, len(lines)):
        f = lines[i].rstrip("\n").split("\t")
        if len(f) == 3 and not alg.elems[int(f[0])][0] and f[2] == f[1]:
            yield "dropped unit product", "".join(lines[:i] + lines[i + 1:])
            break
    dstart = next(i for i, l in enumerate(lines) if l.startswith("# diff"))
    for i in range(dstart + 1, len(lines)):
        f = lines[i].rstrip("\n").split("\t")
        if len(f) == 2 and f[1]:
            bad = f"{f[0]}\t{f[1]},{f[0]}\n"
            yield "flipped diff entry", "".join(lines[:i] + [bad] + lines[i + 1:])
            break


# -- blocks -------------------------------------------------------------------------


def _subset(text: str) -> frozenset:
    _require(text.startswith("{") and text.endswith("}"), f"bad subset {text!r}")
    return _ints(text[1:-1])


def block_homology(alg: Algebra, I, J) -> int:
    block = alg.block(I, J)
    pos = {x: i for i, x in enumerate(block)}
    cols = [sum(1 << pos[y] for y in alg.diff.get(x, ())) for x in block]
    return len(block) - 2 * gf2_rank(cols)


def check_blocks(text: str, rc: int, ctx: Context) -> None:
    _require(rc == 0, f"exit code {rc}")
    _require(ctx.ref is not None, "no checked algebra dump to compare with")
    got = {}
    for line in _body(text):
        f = line.split("\t")
        _require(len(f) == 3, f"bad blocks line {line!r}")
        try:
            got[(_subset(f[0]), _subset(f[1]))] = int(f[2])
        except ValueError:
            raise CheckError(f"bad blocks line {line!r}")
    k = len(ctx.diagram.pairs)
    subs = [frozenset(s) for r in range(k + 1) for s in itertools.combinations(range(1, k + 1), r)]
    _require(set(got) == {(I, J) for I in subs for J in subs}, "blocks listed differ from all (I, J)")
    for (I, J), dim in got.items():
        want = block_homology(ctx.ref, I, J)
        _require(dim == want, f"block {sorted(I)} {sorted(J)}: listed {dim}, homology is {want}")


def _blocks_corruptions(text: str, ctx: Context):
    lines = text.splitlines(keepends=True)
    i = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    f = lines[i].rstrip("\n").split("\t")
    yield "block dimension off by one", "".join(
        lines[:i] + [f"{f[0]}\t{f[1]}\t{int(f[2]) + 1}\n"] + lines[i + 1:])


# -- double -------------------------------------------------------------------------


def _sections(text: str) -> dict:
    """Lines grouped under their '# ' header (the header text is the key)."""
    out: dict = {}
    cur = None
    for line in text.splitlines():
        if line.startswith("# "):
            cur = line[2:]
            out[cur] = []
        elif cur is not None and line.strip():
            out[cur].append(line)
    return out


def check_double(text: str, rc: int, ctx: Context) -> None:
    _require(rc == 0, f"exit code {rc}")
    sec = _sections(text)
    try:
        head = next(k for k in sec if k.startswith("double complex dim "))
        n = int(head[len("double complex dim "):])
        hdim = int(next(k for k in sec if k.startswith("homology dimension: ")).split(": ")[1])
        idx = [int(l.split("\t")[0]) for l in sec[head]]
        trips = [tuple(int(t) for t in l.split("\t")) for l in sec["differential triplets"]]
        diag = [int(t) for t in ",".join(sec["diagonal cycle"]).split(",") if t]
    except (StopIteration, KeyError, ValueError) as e:
        raise CheckError(f"unparsable double output: {e!r}")
    _require(idx == list(range(n)), "basis lines do not number 0..dim-1")
    _require(all(len(t) == 2 and 0 <= t[0] < n and 0 <= t[1] < n for t in trips), "bad triplet")
    _require(len(set(trips)) == len(trips), "repeated triplet")
    col = [0] * n
    for r, c in trips:
        col[c] ^= 1 << r
    for c in range(n):
        _require(not _xor_bits(col, col[c]), f"d^2 != 0 at column {c}")
    _require(diag and all(0 <= i < n for i in diag), "empty or out-of-range diagonal")
    _require(not _xor_bits(col, sum(1 << i for i in set(diag))), "the diagonal is not a cycle")
    want = n - 2 * gf2_rank(col)
    _require(hdim == want, f"homology dimension {hdim}, dim - 2 rank(d) = {want}")


def _xor_bits(col: list, v: int) -> int:
    acc = 0
    for i in _bits(v):
        acc ^= col[i]
    return acc


def _double_corruptions(text: str, ctx: Context):
    lines = text.splitlines(keepends=True)
    i = next(i for i, l in enumerate(lines) if l.startswith("# differential triplets"))
    flipped = [l for l in lines if l != "0\t0\n"]
    if len(flipped) == len(lines):
        flipped = lines[:i + 1] + ["0\t0\n"] + lines[i + 1:]
    yield "flipped d entry (0,0)", "".join(flipped)
    j = next(j for j, l in enumerate(lines) if l.startswith("# homology dimension: "))
    h = int(lines[j].split(": ")[1])
    yield "homology dimension off by one", "".join(
        lines[:j] + [f"# homology dimension: {h + 1}\n"] + lines[j + 1:])


# -- join ---------------------------------------------------------------------------


def _desc_subset(desc: str) -> frozenset:
    return _subset(desc.rpartition(":")[2])


def _join_expected(ctx: Context):
    """The join's domain, codomain and map, built from the algebra dump.

    U = elementary:D:{I} and V = elementary:D:{J} carry no structure maps, so
    the domain is (U box M) (x) (M-dual box V) with M's differential and its
    transpose, the codomain U box A-dual box V is the block of the algebra
    with right idempotent I and left idempotent J under the transposed
    differential, and the map sends p (x) q to the sum of the a with q in a.p
    (the unit included).  Returns (domain, codomain, map) with the
    differentials as dicts from a generator to its boundary.
    """
    alg = ctx.ref
    _, udesc, mdesc, vdesc = ctx.op.args[-4:]
    I, J, K = _desc_subset(udesc), _desc_subset(vdesc), _desc_subset(mdesc)
    k = len(ctx.diagram.pairs)
    u, v = ("e", "D", tuple(sorted(I))), ("e", "D", tuple(sorted(J)))
    n = len(alg.elems)
    cod_elems = [a for a in range(n) if alg.right[a] == I and alg.left[a] == J]
    fmap: dict = {}
    if mdesc.startswith("amod:"):
        gens = [x for x in range(n) if alg.right[x] == K]
        lidem = {x: alg.left[x] for x in gens}
        dm = {x: alg.diff.get(x, frozenset()) for x in gens}
        for a in cod_elems:
            for p in gens:
                for q in alg.mult.get((a, p), ()):
                    fmap.setdefault(((u, p), (q, v)), set()).symmetric_difference_update({(u, a, v)})
    else:
        comp = frozenset(range(1, k + 1)) - K
        g = ("e", "A", tuple(sorted(comp)))
        gens, lidem, dm = [g], {g: comp}, {g: frozenset()}
        for a in cod_elems:
            if alg.elems[a] == (frozenset(), comp):
                fmap[((u, g), (g, v))] = {(u, a, v)}
    dm_t = {x: {y for y in gens if x in dm[y]} for x in gens}
    dom = {}
    for p in gens:
        for q in gens:
            if lidem[p] == I and lidem[q] == J:
                dom[((u, p), (q, v))] = {((u, p2), (q, v)) for p2 in dm[p]} ^ {
                    ((u, p), (q2, v)) for q2 in dm_t[q]}
    d_t: dict = {}
    for x, dx in alg.diff.items():
        for y in dx:
            d_t.setdefault(y, set()).add(x)
    cod = {(u, x, v): {(u, x2, v) for x2 in d_t.get(x, ())} for x in cod_elems}
    return dom, cod, fmap


def _parse_join(text: str):
    sec = _sections(text)
    try:
        dom = [ast.literal_eval(l.split("\t", 1)[1]) for l in sec["domain basis"]]
        cod = [ast.literal_eval(l.split("\t", 1)[1]) for l in sec["codomain basis"]]
        trips = [tuple(int(t) for t in l.split("\t")) for l in sec["matrix (row col) triplets, value 1"]]
    except (KeyError, ValueError, SyntaxError, IndexError) as e:
        raise CheckError(f"unparsable join output: {e!r}")
    return dom, cod, trips


def check_join(text: str, rc: int, ctx: Context) -> None:
    _require(rc == 0, f"exit code {rc}")
    _require(ctx.ref is not None, "no checked algebra dump to compare with")
    dom, cod, trips = _parse_join(text)
    want_dom, want_cod, want_f = _join_expected(ctx)
    _require(len(set(dom)) == len(dom) and set(dom) == set(want_dom), "domain basis differs")
    _require(len(set(cod)) == len(cod) and set(cod) == set(want_cod), "codomain basis differs")
    _require(all(len(t) == 2 and 0 <= t[0] < len(cod) and 0 <= t[1] < len(dom) for t in trips),
             "triplet out of range")
    _require(len(set(trips)) == len(trips), "repeated triplet")
    f: dict = {g: set() for g in dom}
    for r, c in trips:
        f[dom[c]].add(cod[r])
    for g in dom:
        _require(f[g] == want_f.get(g, set()), f"map differs from sum of <q, a.p> a at {g!r}")
        lhs = _xor_all(f[h] for h in want_dom[g])
        rhs = _xor_all(want_cod[y] for y in f[g])
        _require(lhs == rhs, f"not a chain map at domain generator {g!r}")


def _join_corruptions(text: str, ctx: Context):
    lines = text.splitlines(keepends=True)
    dom, cod, trips = _parse_join(text)
    yield "triplet outside the codomain", text + f"{len(cod)}\t0\n"
    if dom:
        i = next(i for i, l in enumerate(lines) if l.startswith("# domain basis"))
        yield "dropped domain basis line", "".join(lines[:i + 1] + lines[i + 2:])
    if dom and cod:
        flipped = [l for l in lines if l != "0\t0\n"]
        yield "flipped matrix entry (0,0)", "".join(flipped if len(flipped) < len(lines) else lines + ["0\t0\n"])


# -- check suites, nice comparisons, library verdicts -------------------------------


def check_check(text: str, rc: int, ctx: Context) -> None:
    _require(rc == 0, f"exit code {rc}")
    suite = ctx.op.args[-1]
    want = CHECK_ALL_SUITES if suite == "all" else (suite,)
    got = {}
    for line in _body(text):
        if not line.startswith(" "):
            name, _, verdict = line.partition(": ")
            got[name] = verdict
    _require(all(got.get(s) == "PASS" for s in want), f"suites not all PASS: {got}")
    _require(all(v == "PASS" for v in got.values()), f"suites not all PASS: {got}")


def _check_corruptions(text: str, ctx: Context):
    yield "one suite FAIL", text.replace(": PASS", ": FAIL", 1)


def check_nice(text: str, rc: int, ctx: Context) -> None:
    _require(rc == 0, f"exit code {rc}")
    _require("comparison: isomorphic" in _body(text), "comparison is not isomorphic")


def _nice_corruptions(text: str, ctx: Context):
    yield "mismatch", text.replace("comparison: isomorphic", "comparison: mismatch (x)")


def check_verdict(text: str, rc: int, ctx: Context) -> None:
    _require(rc == 0, f"exit code {rc}")
    _require(text.strip().splitlines()[-1:] == ["True"], f"verdict is not True: {text.strip()!r}")


def _verdict_corruptions(text: str, ctx: Context):
    yield "False", text.replace("True", "False")


CHECKS = {
    "algebra": (check_algebra, _algebra_corruptions),
    "blocks": (check_blocks, _blocks_corruptions),
    "double": (check_double, _double_corruptions),
    "join": (check_join, _join_corruptions),
    "check": (check_check, _check_corruptions),
    "nice": (check_nice, _nice_corruptions),
    "verdict": (check_verdict, _verdict_corruptions),
}


def self_test(kind: str, text: str, ctx: Context) -> list:
    """The corruptions of a passing output that the check wrongly accepts (should be none)."""
    check, corruptions = CHECKS[kind]
    accepted = []
    tried = 0
    for what, bad in corruptions(text, ctx):
        tried += 1
        try:
            check(bad, 0, ctx)
        except CheckError:
            continue
        accepted.append(what)
    if not tried:
        accepted.append("no corruption could be made")
    return accepted
