"""Command-line front end: validation, table dumps, block decompositions,
join instances, and the invariant check suites.

All outputs are deterministic: orderings are fixed by the canonical basis
order and every report starts with '#' header lines naming the tool version
and the seed in effect.  Exit codes: 0 success, 1 input or validation error,
2 mathematical check failure.
"""

from __future__ import annotations

import argparse
import random
import sys

from . import __version__
from .arc_diagram import ArcDiagram, ParseError, parse, validate
from .gf2 import homology
from .strands import (
    dump_basis_tsv,
    dump_diff_tsv,
    dump_mult_tsv,
    enumerate_basis,
)
from .standard_models import DescriptorError


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _header(args) -> str:
    return f"# strandjoin {__version__}\n# seed: {args.seed}\n"


def _load_diagram(path: str) -> ArcDiagram:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}", 1)
    try:
        z = parse(text)
    except ParseError as e:
        raise CliError(f"parse error in {path}: {e}", 1)
    problems = validate(z)
    if problems:
        raise CliError(f"invalid diagram {path}: " + "; ".join(problems), 1)
    return z


def _subset_label(s) -> str:
    return "{" + ",".join(str(i) for i in sorted(s)) + "}"


def cmd_validate(args, out) -> int:
    try:
        with open(args.diagram) as fh:
            z = parse(fh.read())
    except (OSError, ParseError) as e:
        out.write(_header(args))
        out.write(f"error: {e}\n")
        return 1
    problems = validate(z)
    out.write(_header(args))
    if problems:
        for p in problems:
            out.write(f"violation: {p}\n")
        return 1
    out.write("ok\n")
    return 0


def cmd_algebra(args, out) -> int:
    z = _load_diagram(args.diagram)
    am = enumerate_basis(z)
    out.write(_header(args))
    out.write(f"# basis (dim {am.dim})\n")
    out.write(dump_basis_tsv(am))
    out.write("# mult\n")
    out.write(dump_mult_tsv(am))
    out.write("# diff\n")
    out.write(dump_diff_tsv(am))
    return 0


def cmd_blocks(args, out) -> int:
    from .sfh import homology_blocks

    z = _load_diagram(args.diagram)
    am = enumerate_basis(z)
    out.write(_header(args))
    blocks = homology_blocks(am)
    for (I, J) in sorted(blocks, key=lambda t: (sorted(t[0]), sorted(t[1]))):
        dim = blocks[(I, J)]
        out.write(f"{_subset_label(I)}\t{_subset_label(J)}\t{dim}\n")
    return 0


def _module_for_join(am, desc: str, role: str):
    from .standard_models import elementary

    desc = desc.strip()
    if role == "U":
        if desc.startswith("elementary:D:"):
            from .standard_models import _parse_subset

            return elementary(am, _parse_subset(desc.split(":")[2], am.k), "D", hand="right")
        raise CliError(f"U descriptor must be elementary:D:{{..}}, got {desc!r}", 1)
    if role == "V":
        if desc.startswith("elementary:D:"):
            from .standard_models import _parse_subset

            return elementary(am, _parse_subset(desc.split(":")[2], am.k), "D", hand="left")
        raise CliError(f"V descriptor must be elementary:D:{{..}}, got {desc!r}", 1)
    # role == "M": a bounded left type-A module
    if desc.startswith("elementary:A:"):
        from .standard_models import _parse_subset, elementary

        return elementary(am, _parse_subset(desc.split(":")[2], am.k), "A")
    if desc.startswith("amod:"):
        from .standard_models import _parse_subset
        from .standard_models import left_module_from_right_idem

        return left_module_from_right_idem(am, _parse_subset(desc.split(":")[1], am.k))
    raise CliError(f"M descriptor must be elementary:A:{{..}} or amod:{{..}}, got {desc!r}", 1)


def cmd_join(args, out) -> int:
    from .join import join_general

    z = _load_diagram(args.diagram)
    am = enumerate_basis(z)
    U = _module_for_join(am, args.U, "U")
    M = _module_for_join(am, args.M, "M")
    V = _module_for_join(am, args.V, "V")
    inst = join_general(U, M, V)
    out.write(_header(args))
    out.write("# domain basis\n")
    dom = {g: i for i, g in enumerate(sorted(inst.domain.basis, key=repr))}
    cod = {g: i for i, g in enumerate(sorted(inst.codomain.basis, key=repr))}
    for g, i in sorted(dom.items(), key=lambda kv: kv[1]):
        out.write(f"{i}\t{g!r}\n")
    out.write("# codomain basis\n")
    for g, i in sorted(cod.items(), key=lambda kv: kv[1]):
        out.write(f"{i}\t{g!r}\n")
    out.write("# matrix (row col) triplets, value 1\n")
    trips = sorted((cod[r], dom[c]) for (r, c) in inst.matrix.nonzero)
    for r, c in trips:
        out.write(f"{r}\t{c}\n")
    return 0


def cmd_double(args, out) -> int:
    from .join import diagonal

    z = _load_diagram(args.diagram)
    am = enumerate_basis(z)
    M = _module_for_join(am, args.M, "M")
    c, vec = diagonal(M)
    out.write(_header(args))
    out.write(f"# double complex dim {c.dim}\n")
    basis = {g: i for i, g in enumerate(sorted(c.basis, key=repr))}
    for g, i in sorted(basis.items(), key=lambda kv: kv[1]):
        out.write(f"{i}\t{g!r}\n")
    out.write("# differential triplets\n")
    for r, cc in sorted((basis[r], basis[c2]) for (r, c2) in c.differential.nonzero):
        out.write(f"{r}\t{cc}\n")
    out.write("# diagonal cycle\n")
    out.write(",".join(str(basis[g]) for g in sorted(vec, key=repr)) + "\n")
    dim, _ = homology(c)
    out.write(f"# homology dimension: {dim}\n")
    return 0


def cmd_nice(args, out) -> int:
    from .nice_diagram import (
        build_cap_diagram,
        build_twisting_slice_diagram,
        compare_with_algebra,
    )
    from .standard_models import alg_as_aa, elementary, _parse_subset

    z = _load_diagram(args.diagram)
    am = enumerate_basis(z)
    out.write(_header(args))
    try:
        if args.model == "slice":
            d = build_twisting_slice_diagram(z)
        elif args.model.startswith("cap:"):
            I = _parse_subset(args.model.split(":", 1)[1], am.k)
            d = build_cap_diagram(z, I)
        else:
            raise CliError(f"model must be slice or cap:{{..}}, got {args.model!r}", 1)
    except ValueError as e:  # e.g. a beta-type diagram, which cannot be drawn
        raise CliError(str(e), 1)
    model = alg_as_aa(am) if args.model == "slice" else elementary(am, I, "A")
    verdict = compare_with_algebra(d, model)
    out.write(f"generators: {len(d.enumerate_generators())}\n")
    out.write(f"regions: {len(d.regions)}\n")
    if verdict.isomorphic:
        out.write("comparison: isomorphic\n")
        return 0
    out.write(f"comparison: mismatch ({verdict.witness})\n")
    return 2


SUITES = ("dga", "variants", "structures", "join", "nice", "sfh", "homotopy")


def _suite_dga(z, am, rng) -> list:
    from .gf2 import Gf2Vector, vsum

    failures = []
    n = am.dim
    for i in range(n):
        if vsum(Gf2Vector(am.diff_table[j]) for j in am.diff_table[i]):
            failures.append(f"d^2 != 0 at {i}")
    for i in range(n):
        for j in range(n):
            lhs = am.diff(am.mul(Gf2Vector.of(i), Gf2Vector.of(j)))
            rhs = am.mul(am.diff(Gf2Vector.of(i)), Gf2Vector.of(j)) + am.mul(
                Gf2Vector.of(i), am.diff(Gf2Vector.of(j))
            )
            if lhs.entries != rhs.entries:
                failures.append(f"Leibniz fails at ({i},{j})")
    # Both sides vanish unless k is in the row support of j or of some l in
    # i.j, so only those k are visited, in increasing order.
    row_support: dict = {}
    for l, k in am.mult_table:
        row_support.setdefault(l, set()).add(k)
    for i in range(n):
        for j in range(n):
            ij = am.mult_table[(i, j)]
            ks = set(row_support.get(j, ()))
            for l in ij:
                ks.update(row_support.get(l, ()))
            for k in sorted(ks):
                a = vsum(Gf2Vector(am.mult_table[(l, k)]) for l in ij)
                b = am.mul(Gf2Vector.of(i), Gf2Vector(am.mult_table[(j, k)]))
                if a.entries != b.entries:
                    failures.append(f"associativity fails at ({i},{j},{k})")
    u = am.unit()
    for i in range(n):
        if am.mul(u, Gf2Vector.of(i)).entries != {i}:
            failures.append(f"unit fails at {i}")
        if am.mul(Gf2Vector.of(i), u).entries != {i}:
            failures.append(f"unit fails at {i}")
    return failures


def _suite_variants(z, am, rng) -> list:
    from .strands import reflect, rotate180

    failures = []
    for name, (tgt, bij) in (("rotate180", rotate180(am)), ("reflect", reflect(am))):
        for i in range(am.dim):
            if frozenset(bij[j] for j in am.diff_table[i]) != tgt.diff_table[bij[i]]:
                failures.append(f"{name} differential fails at {i}")
        for i in range(am.dim):
            for j in range(am.dim):
                img = frozenset(bij[l] for l in am.mult_table[(i, j)])
                if img != tgt.mult_table[(bij[j], bij[i])]:
                    failures.append(f"{name} anti-homomorphism fails at ({i},{j})")
    return failures


def _suite_structures(z, am, rng) -> list:
    from .ainf import check_structure
    from .standard_models import (
        alg_as_aa,
        da_identity,
        dd_identity,
        dual_alg_as_aa,
        elementary,
    )

    failures = []
    models = [alg_as_aa(am), dual_alg_as_aa(am), da_identity(am), dd_identity(am)]
    for I in am.all_idempotent_subsets():
        models.append(elementary(am, I, "A"))
        models.append(elementary(am, I, "D"))
    for m in models:
        r = check_structure(m)
        if r is not None:
            failures.append(f"{m.name}: structure equation fails at {r}")
    return failures


def _suite_join(z, am, rng) -> list:
    from .ainf import is_homomorphism
    from .join import cancel_cA, diagonal, left_module_candidates, nabla

    failures = []
    for M in left_module_candidates(am):
        if not is_homomorphism(nabla(M)):
            failures.append(f"d(nabla) != 0 for {M.name}")
        c, vec = diagonal(M)
        if c.differential.apply(vec):
            failures.append(f"d(Delta) != 0 for {M.name}")
    if not is_homomorphism(cancel_cA(am)):
        failures.append("d(c_A) != 0")
    return failures


def _suite_nice(z, am, rng) -> list:
    from .nice_diagram import (
        build_cap_diagram,
        build_twisting_slice_diagram,
        compare_with_algebra,
    )
    from .standard_models import alg_as_aa, elementary

    failures = []
    d = build_twisting_slice_diagram(z)
    v = compare_with_algebra(d, alg_as_aa(am))
    if not v.isomorphic:
        failures.append(f"slice: {v.witness}")
    for I in am.all_idempotent_subsets():
        vc = compare_with_algebra(build_cap_diagram(z, I), elementary(am, I, "A"))
        if not vc.isomorphic:
            failures.append(f"cap {_subset_label(I)}: {vc.witness}")
    return failures


def _suite_sfh(z, am, rng) -> list:
    from .ainf import StructureError
    from .sfh import alg_as_right_module, homology_blocks, m_H, mu_H
    from .gf2 import ChainComplexGf2, Gf2Matrix, Gf2Vector

    failures = []
    blocks = homology_blocks(am)
    d = Gf2Matrix.from_columns(
        tuple(range(am.dim)),
        tuple(range(am.dim)),
        {i: Gf2Vector(am.diff_table[i]) for i in range(am.dim)},
    )
    total, _ = homology(ChainComplexGf2(tuple(range(am.dim)), d))
    if sum(blocks.values()) != total:
        failures.append("block dimensions do not sum to the homology dimension")
    u = alg_as_right_module(am)
    subsets = list(am.all_idempotent_subsets())
    try:
        for I in subsets:
            for J in subsets:
                m_H(u, I, J)
                for K in subsets:
                    mu_H(am, I, J, K)
    except StructureError as e:
        failures.append(str(e))
    return failures


def _suite_homotopy(z, am, rng, max_len=4):
    """Seeded plant-and-recover runs of the bounded homotopy search."""
    from .ainf import Morphism, _morphism_slots, bounded_homotopy_search, morphism_diff, zero_morphism
    from .standard_models import left_module_from_right_idem

    failures = []
    M = left_module_from_right_idem(am, next(iter(am.all_idempotent_subsets())))
    slots = _morphism_slots(M, M, max(1, max_len - 1))
    if not slots:
        return failures
    for trial in range(5):
        picks = rng.sample(slots, k=min(3, len(slots)))
        H0 = Morphism(M, M, {k: {v} for k, v in picks})
        f = morphism_diff(H0)
        H = bounded_homotopy_search(f, zero_morphism(M, M), max_len)
        if H is None or morphism_diff(H).table != f.table:
            failures.append(f"plant-and-recover trial {trial} failed")
    return failures


def cmd_check(args, out) -> int:
    z = _load_diagram(args.diagram)
    am = enumerate_basis(z)
    rng = random.Random(args.seed)
    suites = SUITES if args.suite == "all" else (args.suite,)
    registry = {
        "dga": _suite_dga,
        "variants": _suite_variants,
        "structures": _suite_structures,
        "join": _suite_join,
        "nice": _suite_nice,
        "sfh": _suite_sfh,
        "homotopy": lambda z_, am_, rng_: _suite_homotopy(
            z_, am_, rng_, args.max_homotopy_len
        ),
    }
    out.write(_header(args))
    bad = False
    for name in suites:
        failures = registry[name](z, am, rng)
        if failures:
            bad = True
            out.write(f"{name}: FAIL\n")
            for f in failures[:10]:
                out.write(f"  {f}\n")
        else:
            out.write(f"{name}: PASS\n")
    return 2 if bad else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="strandjoin",
        description="strands algebras, bimodules, and join/gluing maps over Z/2",
    )
    ap.add_argument("--max-homotopy-len", type=int, default=4)
    ap.add_argument(
        "--parallel",
        choices=("on", "off"),
        default="off",
        help="kept for compatibility; has no effect (suites always run serially)",
    )
    ap.add_argument("--seed", type=int, default=0)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate an arc diagram file")
    p.add_argument("diagram")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("algebra", help="dump the algebra basis and tables")
    p.add_argument("diagram")
    p.set_defaults(func=cmd_algebra)

    p = sub.add_parser("blocks", help="homology block decomposition")
    p.add_argument("diagram")
    p.set_defaults(func=cmd_blocks)

    p = sub.add_parser("join", help="dump a join instance")
    p.add_argument("diagram")
    p.add_argument("U")
    p.add_argument("M")
    p.add_argument("V")
    p.set_defaults(func=cmd_join)

    p = sub.add_parser("double", help="dump the double of a module with its diagonal")
    p.add_argument("diagram")
    p.add_argument("M")
    p.set_defaults(func=cmd_double)

    p = sub.add_parser("check", help="run invariant check suites")
    p.add_argument("diagram")
    p.add_argument("suite", nargs="?", default="all", choices=SUITES + ("all",))
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("nice", help="build a nice diagram and compare with the algebra")
    p.add_argument("diagram")
    p.add_argument("model", help="slice or cap:{..}")
    p.set_defaults(func=cmd_nice)
    return ap


def run(argv=None, out=None) -> int:
    out = out or sys.stdout
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code else 0
    try:
        return args.func(args, out)
    except CliError as e:
        out.write(f"error: {e}\n")
        return e.code
    except DescriptorError as e:
        out.write(f"error: {e}\n")
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
