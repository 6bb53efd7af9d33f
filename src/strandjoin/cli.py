"""Command-line front end: validation, table dumps, block decompositions,
join instances, and the invariant check suites.

All outputs are deterministic: orderings are fixed by the canonical basis
order and every report starts with '#' header lines naming the tool version
and the seed in effect.

Failures have two roots, and `run` alone turns them into exit codes, each as
one `error: <message>` line.  `arc_diagram.InputError` is input the program
cannot use (an argv outside the grammar, reported on stderr; an unreadable,
unparsable or invalid diagram file, a bad descriptor or model, a beta-type
diagram for `nice`): exit 1.
`gf2.StructureError` is an object that fails its own equation (a module's
structure equation, d^2 = 0 on a complex): exit 2.  `check` turns a
StructureError raised inside a suite into that suite's FAIL line, and an
InputError into its `not applicable` line; a failed suite or comparison also
exits 2.  Exit 0 is success.
"""

from __future__ import annotations

import gc
import sys
from types import SimpleNamespace

from . import __version__
from .arc_diagram import InputError, ParseError, closed_components, parse, validate
from .gf2 import StructureError
from .strands import (
    dump_basis_tsv,
    dump_diff_tsv,
    dump_mult_tsv,
    enumerate_basis,
    gamma_block,
    homology_blocks,
)


def _header(args) -> str:
    return f"# strandjoin {__version__}\n# seed: {args.seed}\n"


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(e)


def _load_algebra(path: str):
    """The algebra of the valid diagram in the file at path; an InputError
    naming the path if the file cannot be read or parsed, or the diagram is
    invalid."""
    try:
        z = parse(_read(path))
    except InputError as e:
        what = "parse error in" if isinstance(e, ParseError) else "cannot read"
        raise InputError(f"{what} {path}: {e}")
    problems = validate(z)
    if problems:
        raise InputError(f"invalid diagram {path}: " + "; ".join(problems))
    return enumerate_basis(z)


def _subset_label(s) -> str:
    return "{" + ",".join(str(i) for i in sorted(s)) + "}"


def _numbered(basis, lines: list) -> dict:
    """Number the basis in repr order: append a line 'i<TAB>repr' for each
    element and return the element -> i map."""
    named = sorted(((repr(g), g) for g in basis), key=lambda pair: pair[0])
    lines += [f"{i}\t{r}\n" for i, (r, _) in enumerate(named)]
    return {g: i for i, (_, g) in enumerate(named)}


def cmd_validate(args, out) -> int:
    out.write(_header(args))  # a file that cannot be read or parsed is reported below it
    z = parse(_read(args.diagram))
    problems = validate(z)
    if problems:
        for p in problems:
            out.write(f"violation: {p}\n")
        return 1
    out.write(f"ok\nclosed components: {closed_components(z)}\n")
    return 0


def cmd_algebra(args, out) -> int:
    am = _load_algebra(args.diagram)
    out.write("".join([
        _header(args),
        f"# basis (dim {am.dim})\n",
        dump_basis_tsv(am),
        "# mult\n",
        dump_mult_tsv(am),
        "# diff\n",
        dump_diff_tsv(am),
    ]))
    return 0


def cmd_blocks(args, out) -> int:
    am = _load_algebra(args.diagram)
    blocks = homology_blocks(am)
    lines = [_header(args)]
    for (I, J) in sorted(blocks, key=lambda t: (sorted(t[0]), sorted(t[1]))):
        lines.append(f"{_subset_label(I)}\t{_subset_label(J)}\t{blocks[(I, J)]}\n")
    out.write("".join(lines))
    return 0


# The forms each argument role takes, and the name its error gives the role.
# A form ending in ':' is followed by a subset {i,j,..} of 1..k.  U, M and V
# are read with surrounding spaces stripped, MODEL as given.
_ROLES = {
    "U": ("U descriptor", ("elementary:D:",)),
    "M": ("M descriptor", ("elementary:A:", "amod:")),
    "V": ("V descriptor", ("elementary:D:",)),
    "MODEL": ("model", ("slice", "cap:")),
}


def _subset(text: str, k: int) -> frozenset:
    """The subset of 1..k that text names as {i,j,..}; spaces may surround
    it and its entries."""
    text = text.strip()
    try:
        if not (text.startswith("{") and text.endswith("}")):
            raise ValueError
        inner = text[1:-1].strip()
        I = frozenset(int(t) for t in inner.split(",")) if inner else frozenset()
    except ValueError:
        raise InputError(f"bad subset {text!r}") from None
    if not all(1 <= i <= k for i in I):
        raise InputError(f"subset {text!r} out of range 1..{k}")
    return I


def _argument(am, text: str, role: str):
    """What text names in the given role: U a right type-D module, M a
    bounded left type-A module, V a left type-D module, MODEL the cap subset
    of a nice diagram, or None for the twisting slice."""
    name, forms = _ROLES[role]
    if role != "MODEL":
        text = text.strip()
    form = next((f for f in forms if text == f or f.endswith(":") and text.startswith(f)), None)
    if form is None:
        shown = " or ".join(f + "{..}" if f.endswith(":") else f for f in forms)
        raise InputError(f"{name} must be {shown}, got {text!r}")
    if form == "slice":
        return None
    I = _subset(text[len(form):], am.k)
    if form == "cap:":
        return I
    from .ainf import dualize
    from .standard_models import elementary, left_module_from_right_idem

    if form == "amod:":
        return left_module_from_right_idem(am, I)
    m = elementary(am, I, form[-2])  # the side: elementary:A: or elementary:D:
    # elementary:D:{..} is a left type-D module; U is its mirror image.
    return dualize(m) if role == "U" else m


def cmd_join(args, out) -> int:
    from .join import join_general

    am = _load_algebra(args.diagram)
    U, M, V = (_argument(am, text, role) for text, role in zip((args.u, args.m, args.v), "UMV"))
    inst = join_general(U, M, V)
    lines = [_header(args), "# domain basis\n"]
    dom = _numbered(inst.domain.basis, lines)
    lines.append("# codomain basis\n")
    cod = _numbered(inst.codomain.basis, lines)
    lines.append("# matrix (row col) triplets, value 1\n")
    trips = sorted((cod[r], dom[c]) for (r, c) in inst.matrix.nonzero)
    lines += [f"{r}\t{c}\n" for r, c in trips]
    out.write("".join(lines))
    return 0


def cmd_double(args, out) -> int:
    from .gf2 import rank
    from .join import diagonal

    am = _load_algebra(args.diagram)
    c, vec = diagonal(_argument(am, args.m, "M"))
    lines = [_header(args), f"# double complex dim {c.dim}\n"]
    basis = _numbered(c.basis, lines)
    lines.append("# differential triplets\n")
    trips = sorted((basis[r], basis[c2]) for (r, c2) in c.differential.nonzero)
    lines += [f"{r}\t{cc}\n" for r, cc in trips]
    lines.append("# diagonal cycle\n")
    lines.append(",".join(map(str, sorted(basis[g] for g in vec))) + "\n")
    # diagonal has checked d^2 = 0, so dim H = dim ker d - rank d = dim - 2 rank d.
    lines.append(f"# homology dimension: {c.dim - 2 * rank(c.differential)}\n")
    out.write("".join(lines))
    return 0


def _nice_pair(am, I=None) -> tuple:
    """The nice diagram of the twisting slice, or of the cap of I, and the model
    it is compared with.  A diagram that cannot be drawn raises NotDrawable,
    an InputError; a failing model StructureError."""
    from .nice_diagram import build_cap_diagram, build_twisting_slice_diagram
    from .standard_models import alg_as_aa, elementary

    if I is None:
        return build_twisting_slice_diagram(am.arc_diagram), alg_as_aa(am)
    return build_cap_diagram(am.arc_diagram, I), elementary(am, I, "A")


def cmd_nice(args, out) -> int:
    from .nice_diagram import compare_with_algebra

    am = _load_algebra(args.diagram)
    out.write(_header(args))
    d, model = _nice_pair(am, _argument(am, args.model, "MODEL"))
    verdict = compare_with_algebra(d, model)
    out.write(f"generators: {len(d.enumerate_generators())}\n")
    out.write(f"regions: {len(d.regions)}\n")
    if verdict.isomorphic:
        out.write("comparison: isomorphic\n")
        return 0
    out.write(f"comparison: mismatch ({verdict.witness})\n")
    return 2


# The suites of `check`, in the order `all` runs them; suite NAME is the
# function _suite_NAME, looked up when it runs.
SUITES = ("dga", "variants", "structures", "join", "nice", "sfh", "homotopy")


def _suite_dga(am, rng) -> list:
    from .gf2 import vsum

    failures = []
    n = am.dim
    for i in range(n):
        if am.diff(am.diff_table[i]):
            failures.append(f"d^2 != 0 at {i}")
    # d(i.j), d(i).j and i.d(j) vanish unless (i, j) is a product key, or
    # (l, j) is one for some l in d(i), or (i, l) is one for some l in d(j);
    # so only those pairs are visited, in increasing order.
    d_pre: dict = {}
    for i in range(n):
        for l in am.diff_table[i]:
            d_pre.setdefault(l, []).append(i)
    pairs = set(am.mult_table)
    for a, b in am.mult_table:
        pairs.update((i, b) for i in d_pre.get(a, ()))
        pairs.update((a, j) for j in d_pre.get(b, ()))
    for i, j in sorted(pairs):
        x, y = frozenset({i}), frozenset({j})
        if am.diff(am.mul(x, y)) != am.mul(am.diff(x), y) ^ am.mul(x, am.diff(y)):
            failures.append(f"Leibniz fails at ({i},{j})")
    # (i.j).k vanishes unless (l, k) is a product key for some l in i.j, and
    # i.(j.k) unless (i, l) is one for some l in j.k; so only those triples
    # are visited, in increasing order.
    right_of: dict = {}
    left_of: dict = {}
    for l, k in am.mult_table:
        right_of.setdefault(l, []).append(k)
        left_of.setdefault(k, []).append(l)
    triples = set()
    for (i, j), ij in am.mult_table.items():
        for l in ij:
            triples.update((i, j, k) for k in right_of.get(l, ()))
    for (j, k), jk in am.mult_table.items():
        for l in jk:
            triples.update((i, j, k) for i in left_of.get(l, ()))
    for i, j, k in sorted(triples):
        a = vsum(am.mult_table[(l, k)] for l in am.mult_table[(i, j)])
        if a != am.mul(frozenset({i}), am.mult_table[(j, k)]):
            failures.append(f"associativity fails at ({i},{j},{k})")
    u = am.unit()
    for i in range(n):
        x = frozenset({i})
        if am.mul(u, x) != x:
            failures.append(f"unit fails at {i}")
        if am.mul(x, u) != x:
            failures.append(f"unit fails at {i}")
    return failures


def _suite_variants(am, rng) -> list:
    from .strands import reflect, rotate180

    failures = []
    for name, (tgt, bij) in (("rotate180", rotate180(am)), ("reflect", reflect(am))):
        for i in range(am.dim):
            if frozenset(bij[j] for j in am.diff_table[i]) != tgt.diff_table[bij[i]]:
                failures.append(f"{name} differential fails at {i}")
        # Both sides vanish unless (i, j) is a product key or (bij[j], bij[i])
        # is one of the target's; so only those pairs are visited, in
        # increasing order.
        inv = {v: k for k, v in bij.items()}
        pairs = set(am.mult_table)
        pairs.update((inv[y], inv[x]) for x, y in tgt.mult_table)
        for i, j in sorted(pairs):
            img = frozenset(bij[l] for l in am.mult_table[(i, j)])
            if img != tgt.mult_table[(bij[j], bij[i])]:
                failures.append(f"{name} anti-homomorphism fails at ({i},{j})")
    return failures


def _suite_structures(am, rng) -> list:
    from .ainf import validated
    from .standard_models import alg_as_aa, da_identity, dd_identity, dual_alg_as_aa, elementary

    failures = []
    builds = [(build,) for build in (alg_as_aa, dual_alg_as_aa, da_identity, dd_identity)]
    builds += [(elementary, I, side) for I in am.all_idempotent_subsets() for side in "AD"]
    for build, *args in builds:
        try:  # every builder but dual_alg_as_aa validates what it returns
            m = build(am, *args)
            if build is dual_alg_as_aa:
                validated(m)
        except StructureError as e:
            failures.append(str(e))
    return failures


def _suite_join(am, rng) -> list:
    from .ainf import is_homomorphism
    from .join import cancel_cA, diagonal, left_module_candidates, nabla

    failures = []
    try:  # a candidate whose own build fails its equation ends the list
        for M in left_module_candidates(am):
            try:  # a module built on the way or a double may fail its equation
                if not is_homomorphism(nabla(M)):
                    failures.append(f"d(nabla) != 0 for {M.name}")
                c, vec = diagonal(M)
                if c.differential.apply(vec):
                    failures.append(f"d(Delta) != 0 for {M.name}")
            except StructureError as e:  # a shared model's failure is listed once
                if str(e) not in failures:
                    failures.append(str(e))
    except StructureError as e:
        failures.append(str(e))
    try:
        if not is_homomorphism(cancel_cA(am)):
            failures.append("d(c_A) != 0")
    except StructureError as e:
        failures.append(str(e))
    return failures


def _suite_nice(am, rng) -> list:
    from .nice_diagram import compare_with_algebra

    pairs = [("slice", *_nice_pair(am))]
    for I in am.all_idempotent_subsets():
        pairs.append((f"cap {_subset_label(I)}", *_nice_pair(am, I)))
    verdicts = ((label, compare_with_algebra(d, model)) for label, d, model in pairs)
    return [f"{label}: {v.witness}" for label, v in verdicts if not v.isomorphic]


def _suite_sfh(am, rng) -> list:
    from .join import left_module_candidates
    from .sfh import action_on_homology, block_homology
    from .gf2 import ChainComplexGf2, Gf2Matrix, rank

    failures = []
    subsets = list(am.all_idempotent_subsets())
    try:  # a complex whose d^2 or a module whose structure equation fails
        blocks = [block_homology(am, gamma_block(am, I, J))[0] for I in subsets for J in subsets]
        basis = tuple(range(am.dim))
        c = ChainComplexGf2(basis, Gf2Matrix.from_columns(basis, basis, am.diff_table))
        c.check_d_squared()
        if sum(map(len, blocks)) != c.dim - 2 * rank(c.differential):
            failures.append("block dimensions do not sum to the homology dimension")
        for N in left_module_candidates(am):
            action_on_homology(N)
    except StructureError as e:
        failures.append(str(e))
    return failures


def _suite_homotopy(am, rng) -> list:
    """Seeded plant-and-recover trials, all solved by one homotopy solver."""
    from .ainf import Morphism, _morphism_slots, homotopy_solver, morphism_diff
    from .standard_models import left_module_from_right_idem

    max_len = 4
    # A.iota_{} is one generator with an empty table, so plant on A.iota_{1}.
    M = left_module_from_right_idem(am, {1} if am.k else ())
    slots = _morphism_slots(M, M, max_len - 1)
    if not slots:
        return []
    solve, failures = homotopy_solver(M, M, max_len), []
    for trial in range(5):
        picks = rng.sample(slots, k=min(3, len(slots)))
        f = morphism_diff(Morphism(M, M, {k: {v} for k, v in picks}))
        H = solve(f.table)
        if H is None or morphism_diff(H).table != f.table:
            failures.append(f"plant-and-recover trial {trial} failed")
    return failures


def cmd_check(args, out) -> int:
    import random

    am = _load_algebra(args.diagram)
    rng = random.Random(args.seed)
    lines = [_header(args)]
    bad = False
    try:
        for name in SUITES if args.suite == "all" else (args.suite,):
            try:
                failures = globals()[f"_suite_{name}"](am, rng)
            except InputError as e:  # the suite cannot take this (valid) diagram
                lines.append(f"{name}: not applicable ({e})\n")
                continue
            except StructureError as e:  # a model or complex the suite built
                failures = [str(e)]
            if failures:
                bad = True
                lines.append(f"{name}: FAIL\n")
                lines += [f"  {f}\n" for f in failures[:10]]
            else:
                lines.append(f"{name}: PASS\n")
    finally:  # a suite that raises still leaves the verdicts before it
        out.write("".join(lines))
    return 2 if bad else 0


# command -> (its arguments, one line of help).  Command NAME runs cmd_NAME,
# looked up when it runs, with each argument an attribute named in lower case.
COMMANDS = {
    "validate": ("DIAGRAM", "validate an arc diagram file"),
    "algebra": ("DIAGRAM", "dump the algebra basis and tables"),
    "blocks": ("DIAGRAM", "homology block decomposition"),
    "join": ("DIAGRAM U M V", "dump a join instance"),
    "double": ("DIAGRAM M", "dump the double of a module with its diagonal"),
    "check": ("DIAGRAM [SUITE]", f"run checks; SUITE is all (default), {', '.join(SUITES)}"),
    "nice": ("DIAGRAM MODEL", "compare a nice diagram, slice or cap:{..}, with the algebra"),
}


def _help(commands) -> str:
    lines = [f"  {c + ' ' + COMMANDS[c][0]:<24}{COMMANDS[c][1]}\n" for c in commands]
    return "".join(["usage: strandjoin [--seed N] COMMAND ARGS...  (N seeds checks)\n", *lines])


def _parse(argv: list):
    """The seed, the command and its arguments as attributes, or the help that
    -h or --help asks for at the top or after the command.  An InputError for
    an argv outside `[--seed N | --seed=N] COMMAND ARGS...`."""
    seed, argv = 0, list(argv)
    while argv and argv[0].startswith("-"):
        flag = argv.pop(0)
        if flag in ("-h", "--help"):
            return _help(COMMANDS)
        if flag == "--seed" and argv:
            flag += "=" + argv.pop(0)
        name, _, value = flag.partition("=")
        if name != "--seed":
            raise InputError(f"unknown option {flag!r}; the one option is --seed N")
        try:
            seed = int(value)
        except ValueError:
            raise InputError(f"--seed takes an integer, got {value!r}") from None
    if not argv or argv[0] not in COMMANDS:
        raise InputError(f"COMMAND is one of {', '.join(COMMANDS)}; got {argv[:1]}")
    command, *rest = argv
    if "-h" in rest or "--help" in rest:
        return _help([command])
    names = [n.strip("[]").lower() for n in COMMANDS[command][0].split()]
    if command == "check" and len(rest) == 1:
        rest.append("all")
    if (len(rest) != len(names) or any(a.startswith("-") for a in rest)
            or command == "check" and rest[1] not in SUITES + ("all",)):
        raise InputError(f"{command} takes {COMMANDS[command][0]}; got {rest}")
    return SimpleNamespace(seed=seed, command=command, **dict(zip(names, rest)))


def run(argv=None, out=None) -> int:
    out = out or sys.stdout
    # Each command is its own process, and the collections at its exit walked
    # every object that start-up and the imports built: freeze those once.
    if gc.get_freeze_count() == 0:
        gc.freeze()
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except InputError as e:  # a usage error leaves out empty
        sys.stderr.write(f"strandjoin: error: {e}\n")
        return 1
    if isinstance(args, str):
        out.write(args)
        return 0
    try:
        return globals()[f"cmd_{args.command}"](args, out)
    except (InputError, StructureError) as e:
        out.write(f"error: {e}\n")
        return 1 if isinstance(e, InputError) else 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
