"""The library holds only what it runs: every function, class and method
defined in `src/strandjoin` is referenced somewhere in `src/strandjoin`
outside its own body.  What only the tests need lives in the tests' own
modules (the oracles, `diagrams`).

The scan reads each module with `ast` and matches by name.  A bare name (a
call, a decorator, a value stored in a table) counts unless a function around
it binds that name to a value of its own, as a parameter or by assignment:
so `sfh`'s local list `induced` does not keep a module-level `induced`
alive.  An attribute (`x.name`) counts for every definition of that name,
since the scan cannot tell whose method it reads.

Exempt are special methods, which Python calls; the suites named in
`cli.SUITES`, which `cmd_check` looks up as `_suite_<name>`; the commands
named in `cli.COMMANDS`, which `run` looks up as `cmd_<name>`; and `KEPT`,
each with its reason.
"""

from __future__ import annotations

import ast
import pathlib

from strandjoin.cli import COMMANDS, SUITES

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "strandjoin"

_JOIN_VERDICT = (
    "one of the paper's chain-level join properties, which only the tests check "
    "today; a `check gluing` suite is to run it on any diagram (ROADMAP item 20)"
)

KEPT = {
    "join.join_symmetry_verdict": _JOIN_VERDICT + "; perfbench's lib operations call it by name",
    "join.join_identity_check": _JOIN_VERDICT + "; perfbench's lib operations call it by name",
    "join.three_joins": _JOIN_VERDICT,
    "join.self_join": _JOIN_VERDICT,
    "join.JoinInstance.is_chain_map": _JOIN_VERDICT,
    "arc_diagram.serialize": "the inverse of `parse`; CI writes its ladder diagram files with it",
    "gf2.Gf2Matrix.column": "one column of a sparse matrix; the tests read joins and differentials by it",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _variables(fn) -> set:
    """The names a function binds to values of its own: its parameters and
    the names it assigns, not those assigned in functions or classes nested
    in it.  A nested definition and a name the function imports stay names
    of definitions."""
    args = fn.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    todo = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while todo:
        node = todo.pop()
        if isinstance(node, (*_DEFS, ast.Lambda)):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            names.add(node.id)
        todo.extend(ast.iter_child_nodes(node))
    return names


def _scan() -> tuple[list, list]:
    """(definitions, references) over every module of the package.

    A definition is (qualified name, node); a reference is (name, the
    definitions enclosing it).  Annotations are not read: they never run."""
    defs, refs = [], []

    def visit(nodes, module: str, enclosing: tuple, scopes: tuple) -> None:
        for node in nodes:
            if isinstance(node, _DEFS):
                defs.append((".".join([module, *(d.name for d in enclosing), node.name]), node))
                outside = node.decorator_list + getattr(node, "bases", [])
                if not isinstance(node, ast.ClassDef):
                    outside += [d for d in node.args.defaults + node.args.kw_defaults if d]
                    scopes_in = scopes + (_variables(node),)
                else:
                    scopes_in = scopes
                visit(outside, module, enclosing, scopes)
                visit(node.body, module, enclosing + (node,), scopes_in)
            elif isinstance(node, ast.Lambda):
                visit([node.body], module, enclosing, scopes + (_variables(node),))
            else:
                if isinstance(node, ast.Name) and not any(node.id in s for s in scopes):
                    refs.append((node.id, enclosing))
                elif isinstance(node, ast.Attribute):
                    refs.append((node.attr, enclosing))
                visit(ast.iter_child_nodes(node), module, enclosing, scopes)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)).body, path.stem, (), ())
    return defs, refs


def unreferenced(kept=KEPT) -> list[str]:
    """Each definition that no reference outside its own body reaches, less
    the special methods, the suites, the commands and `kept`."""
    defs, refs = _scan()
    exempt = set(kept) | {f"cli._suite_{name}" for name in SUITES}
    exempt |= {f"cli.cmd_{name}" for name in COMMANDS}
    out = []
    for qual, node in defs:
        if qual in exempt or (node.name.startswith("__") and node.name.endswith("__")):
            continue
        if not any(name == node.name and node not in enclosing for name, enclosing in refs):
            out.append(qual)
    return out


def test_every_definition_in_the_library_is_used_by_the_library():
    assert unreferenced() == []


def test_every_kept_name_is_defined_and_unused_by_the_library():
    # An entry the library now calls, or whose definition is gone, is stale.
    assert set(KEPT) <= set(unreferenced(kept=()))
