"""Spans around the library's entry points, and the per-layer metrics built from them.

`install()` replaces each entry point listed in ENTRY_POINTS with a wrapper
that records a span (entry point, start, end, parent span, counters).  The
modules bind names at import (`from .gf2 import homology`), so every module
attribute that holds the original function is replaced, not just the
definition.  Entry points that no longer exist are skipped, so a change that
deletes one leaves the benchmark working and the families that listed it sum
over whatever remains.  Spans stay in memory until `dump()`.

`layer_metrics()` turns the spans of one pass into the per-layer metrics:
`.s` is self time (a span's duration minus the time its child spans cover),
`.calls` a call count, and the other names are counters read from arguments
or results after the span has ended.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time

from checks import CHECK_ALL_SUITES as CHECK_SUITES

PACKAGE = "strandjoin"


def _dim(args, result):
    return {"dim": args[0].dim}


def _algebra(args, result):
    am = args[0]
    table = getattr(am, "mult_table", {})
    return {
        "dim": am.dim,
        "mult_entries": len(table),
        "mult_nonzero": sum(1 for v in table.values() if v),
    }


def _gens(args, result):
    return {"gens": len(args[0].gens)}


CLI_COMMANDS = ("algebra", "blocks", "double", "join", "nice", "check")
STANDARD_MODELS = (
    "elementary", "left_module_from_right_idem", "alg_as_aa", "dual_alg_as_aa",
    "da_identity", "dd_identity", "gamma_block", "parse_descriptor",
)
# join.py's hand-built box complexes (tensor.box is the general engine).
JOIN_BOXES = (
    "dm_complex", "mv_complex", "sandwich_complex", "dd_sandwich_complex", "ui_m_complex",
    "dm_right_complex", "md_left_complex", "sandwich_complex_right", "dd_box_left_module",
    "dd_box_right_module", "sandwich_right_module", "dd_sandwich_left_module",
    "tensor_complex",
)
JOIN_GENERAL = ("join_general", "join_general_right", "join_dg", "join_elementary")
JOIN_DIAGONAL = ("diagonal", "double_module", "dd_middle")
JOIN_NABLA = ("nabla", "pair_bimodule")
JOIN_CANCEL = ("cancel_cA", "dd_sandwich_da_bimodule")
JOIN_VERDICTS = ("join_symmetry_verdict", "join_identity_check", "three_joins", "self_join")
SFH = (
    "homology_blocks", "m_H", "mu_H", "right_module_block", "bsa_blocks",
    "alg_as_right_module", "mu_H_cross_zero", "_bilinear_on_homology", "_express_in_homology",
)
NICE_BUILD = ("build_twisting_slice_diagram", "build_cap_diagram")
NICE_COMPARE = ("compare_with_algebra", "count_domains")
STRANDS_DUMPS = ("dump_basis_tsv", "dump_mult_tsv", "dump_diff_tsv")


def _q(module: str, names) -> list[str]:
    return [f"{module}.{n}" for n in names]


# "module.qualname" -> counter probe (or None)
ENTRY_POINTS: dict = {}
for _t in (
    _q("cli", (f"cmd_{c}" for c in CLI_COMMANDS))
    + _q("cli", (f"_suite_{s}" for s in CHECK_SUITES))
    + _q("strands", STRANDS_DUMPS)
    + _q("gf2", ("Gf2Matrix.compose", "solve", "rank", "_rref"))
    + _q("ainf", ("morphism_diff",))
    + _q("standard_models", STANDARD_MODELS)
    + _q("tensor", ("box",))
    + _q("join", JOIN_BOXES + JOIN_GENERAL + JOIN_DIAGONAL + JOIN_NABLA + JOIN_CANCEL
         + JOIN_VERDICTS)
    + _q("sfh", SFH)
    + _q("nice_diagram", NICE_BUILD + NICE_COMPARE)
):
    ENTRY_POINTS[_t] = None
ENTRY_POINTS["strands.AlgebraModel.__init__"] = _algebra
ENTRY_POINTS["gf2.homology"] = _dim
ENTRY_POINTS["ainf.check_structure"] = _gens

# metric name -> (aggregate, counter, entry points).  "self" sums self time,
# "calls" counts calls, "sum"/"max" combine a counter over the calls.
METRICS: dict = {}
for _c in CLI_COMMANDS:
    METRICS[f"cli.{_c}.s"] = ("self", None, [f"cli.cmd_{_c}"])
for _s in CHECK_SUITES:
    METRICS[f"cli.check.{_s}.s"] = ("self", None, [f"cli._suite_{_s}"])
_BUILD = ["strands.AlgebraModel.__init__"]
METRICS.update({
    "strands.build.s": ("self", None, _BUILD),
    "strands.build.calls": ("calls", None, _BUILD),
    "strands.dim": ("max", "dim", _BUILD),
    "strands.mult_entries": ("sum", "mult_entries", _BUILD),
    "strands.mult_nonzero": ("sum", "mult_nonzero", _BUILD),
    "strands.dump.s": ("self", None, _q("strands", STRANDS_DUMPS)),
    "gf2.homology.s": ("self", None, ["gf2.homology"]),
    "gf2.homology.calls": ("calls", None, ["gf2.homology"]),
    "gf2.homology.max_dim": ("max", "dim", ["gf2.homology"]),
    "gf2.compose.s": ("self", None, ["gf2.Gf2Matrix.compose"]),
    "gf2.compose.calls": ("calls", None, ["gf2.Gf2Matrix.compose"]),
    "gf2.solve.s": ("self", None, ["gf2.solve"]),
    "gf2.solve.calls": ("calls", None, ["gf2.solve"]),
    "gf2.rank.s": ("self", None, ["gf2.rank", "gf2._rref"]),
    "ainf.check_structure.s": ("self", None, ["ainf.check_structure"]),
    "ainf.check_structure.calls": ("calls", None, ["ainf.check_structure"]),
    "ainf.check_structure.gens": ("sum", "gens", ["ainf.check_structure"]),
    "ainf.morphism_diff.s": ("self", None, ["ainf.morphism_diff"]),
    "ainf.morphism_diff.calls": ("calls", None, ["ainf.morphism_diff"]),
    "standard_models.alg_as_aa.calls": ("calls", None, ["standard_models.alg_as_aa"]),
    "standard_models.s": ("self", None, _q("standard_models", STANDARD_MODELS)),
    "tensor.box.s": ("self", None, ["tensor.box"]),
    "tensor.box.calls": ("calls", None, ["tensor.box"]),
    "join.box.s": ("self", None, _q("join", JOIN_BOXES)),
    "join.box.calls": ("calls", None, _q("join", JOIN_BOXES)),
    "join.join_general.s": ("self", None, _q("join", JOIN_GENERAL)),
    "join.join_general.calls": ("calls", None, _q("join", JOIN_GENERAL[:2])),
    "join.diagonal.s": ("self", None, _q("join", JOIN_DIAGONAL)),
    "join.nabla.s": ("self", None, _q("join", JOIN_NABLA)),
    "join.cancel_cA.s": ("self", None, _q("join", JOIN_CANCEL)),
    "join.cancel_cA.calls": ("calls", None, ["join.cancel_cA"]),
    "join.verdicts.s": ("self", None, _q("join", JOIN_VERDICTS)),
    "sfh.homology_blocks.s": ("self", None, ["sfh.homology_blocks"]),
    "sfh.m_H.calls": ("calls", None, ["sfh.m_H"]),
    "sfh.mu_H.calls": ("calls", None, ["sfh.mu_H"]),
    "sfh.s": ("self", None, _q("sfh", SFH)),
    "nice_diagram.build.s": ("self", None, _q("nice_diagram", NICE_BUILD)),
    "nice_diagram.compare.s": ("self", None, _q("nice_diagram", NICE_COMPARE)),
})

_spans: list = []  # [entry point, start, end, parent index, counters]
_stack: list = []


def _wrap(target: str, fn, probe):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = [target, 0.0, 0.0, _stack[-1] if _stack else -1, None]
        _stack.append(len(_spans))
        _spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            _stack.pop()
        if probe is not None:
            try:
                rec[4] = probe(args, result)
            except (AttributeError, TypeError, IndexError):
                pass  # a renamed attribute loses the counter, not the run
        return result

    return wrapper


def import_all() -> list:
    pkg = importlib.import_module(PACKAGE)
    return [
        importlib.import_module(f"{PACKAGE}.{m.name}")
        for m in pkgutil.iter_modules(pkg.__path__)
    ]


def install() -> None:
    modules = import_all()
    for target, probe in ENTRY_POINTS.items():
        modname, _, qualname = target.partition(".")
        owner = sys.modules.get(f"{PACKAGE}.{modname}")
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        orig = getattr(owner, attr, None) if owner is not None else None
        if not callable(orig):
            continue
        wrapper = _wrap(target, orig, probe)
        setattr(owner, attr, wrapper)
        if path:
            continue  # a method: the class attribute is the only binding
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, name, wrapper)


def dump(path: str) -> None:
    with open(path, "w") as fh:
        json.dump({"spans": _spans}, fh)


def summarize(spans: list) -> tuple[dict, float]:
    """Per entry point self time, calls and counters; and the time root spans cover."""
    child = [0.0] * len(spans)
    for target, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: dict = {}
    covered = 0.0
    for i, (target, t0, t1, parent, counters) in enumerate(spans):
        if parent < 0:
            covered += t1 - t0
        agg = out.setdefault(target, {"self": 0.0, "calls": 0, "sum": {}, "max": {}})
        agg["self"] += (t1 - t0) - child[i]
        agg["calls"] += 1
        for key, val in (counters or {}).items():
            agg["sum"][key] = agg["sum"].get(key, 0) + val
            agg["max"][key] = max(agg["max"].get(key, 0), val)
    return out, covered


def merge(into: dict, part: dict) -> None:
    for target, agg in part.items():
        dst = into.setdefault(target, {"self": 0.0, "calls": 0, "sum": {}, "max": {}})
        dst["self"] += agg["self"]
        dst["calls"] += agg["calls"]
        for key, val in agg["sum"].items():
            dst["sum"][key] = dst["sum"].get(key, 0) + val
        for key, val in agg["max"].items():
            dst["max"][key] = max(dst["max"].get(key, 0), val)


def layer_metrics(per_target: dict) -> dict:
    out = {}
    for name, (how, counter, targets) in METRICS.items():
        aggs = [per_target[t] for t in targets if t in per_target]
        if how == "self":
            out[name] = float(sum(a["self"] for a in aggs))
        elif how == "calls":
            out[name] = sum(a["calls"] for a in aggs)
        elif how == "sum":
            out[name] = sum(a["sum"].get(counter, 0) for a in aggs)
        else:
            out[name] = max((a["max"].get(counter, 0) for a in aggs), default=0)
    return out
