"""One benchmark operation, run in its own fresh interpreter.

    python3 perfbench/child.py '<json spec>'

The spec's "kind" is "cli" (run `strandjoin.cli.run` on "args"), "lib" (a
join verdict from `strandjoin.join` on descriptors, printing its result),
"setup" (import the CLI, then parse and validate the diagram files in
"args") or "warm" (import every module once, so that later timings do not
include writing the bytecode cache).  With "trace" set to a file name,
wrappers from tracer.py record spans around the library's entry points and
write them there at exit.  "timeout" (whole seconds) ends the process by
SIGALRM if it runs longer.
"""

from __future__ import annotations

import json
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _module(am, desc: str, hand: str):
    from strandjoin.standard_models import elementary, left_module_from_right_idem

    family, _, subset = desc.rpartition(":")
    inner = subset.strip("{}")
    s = frozenset(int(t) for t in inner.split(",")) if inner else frozenset()
    if family == "elementary:D":
        return elementary(am, s, "D", hand=hand)
    if family == "elementary:A":
        return elementary(am, s, "A")
    if family == "amod":
        return left_module_from_right_idem(am, s)
    raise ValueError(f"unsupported descriptor {desc!r}")


def _run_lib(args: list) -> int:
    from strandjoin import join
    from strandjoin.arc_diagram import parse
    from strandjoin.strands import enumerate_basis

    fn, path, *descs = args
    with open(path) as fh:
        am = enumerate_basis(parse(fh.read()))
    hands = ("right", "left", "left")  # U is a right module; M and V are left ones
    modules = [_module(am, d, h) for d, h in zip(descs, hands)]
    print(getattr(join, fn)(*modules))
    return 0


def _run_setup(paths: list) -> int:
    import strandjoin.cli  # noqa: F401  (the import is what is being timed)
    from strandjoin.arc_diagram import parse, validate

    for path in paths:
        with open(path) as fh:
            if validate(parse(fh.read())):
                return 1
    return 0


def main() -> int:
    spec = json.loads(sys.argv[1])
    signal.alarm(spec["timeout"])  # the default action ends the process
    sys.path.insert(0, os.path.join(ROOT, "src"))
    tracer = None
    if spec.get("trace"):
        import tracer

        tracer.install()
    try:
        if spec["kind"] == "cli":
            from strandjoin.cli import run

            return run(spec["args"])
        if spec["kind"] == "lib":
            return _run_lib(spec["args"])
        if spec["kind"] == "warm":
            from tracer import import_all

            import_all()
            return 0
        return _run_setup(spec["args"])
    finally:
        sys.stdout.flush()
        if tracer is not None:
            tracer.dump(spec["trace"])


if __name__ == "__main__":
    sys.exit(main())
