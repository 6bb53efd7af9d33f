"""The strandjoin benchmark.

    python3 perfbench/run.py --workload validate-z2 --seed 1 --seconds 10 --trace 0

Runs the workload's operation list in passes, each operation in its own
fresh interpreter, one at a time (a closed loop with one client), until
--seconds have been measured; every pass is whole.  After each operation,
outside the timed interval, its output is checked (checks.py), and each
distinct output is also corrupted to show that its check rejects the damage.

--trace 0 reports the end-to-end metrics: `wall_s`, the median over passes
of one pass's launch-to-exit time summed over its operations; `peak_rss_mb`,
the largest peak RSS of any operation process in a pass; `setup_s`, the
median over the run of a process that imports `strandjoin.cli` and parses
and validates the workload's diagrams.  --trace 1 alternates untraced and
traced passes and reports the per-layer metrics of tracer.py, the tracing
overhead and the share of wall time that named spans cover.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Results and traces are also written under
.perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time

import checks
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
SETUP_PROBES = 6  # set-up processes timed per untraced pass
RUN_LIMIT_S = 170  # every process is ended by then, so a run stays within 180 s


class Runner:
    def __init__(self, workload: str, seed: int, trace: int):
        self.seed = seed
        self.workdir = os.path.join(ROOT, ".perfbench", f"{workload}-{seed}-{trace}")
        self.diagrams, self.ops = workloads.build(workload, seed, self.workdir)
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.refs: dict = {}  # diagram key -> checks.Algebra from a checked dump
        self.verdicts: dict = {}  # (op, output digest, exit code) -> error or None
        self.errors: list = []
        self.attempted = self.failed = 0
        self.trace_log: list = []
        self.op_log: list = []  # (pass kind, operation, seconds, peak RSS MB, exit code)

    # -- processes --------------------------------------------------------------

    def launch(self, spec: dict) -> tuple:
        """Run child.py on spec; (seconds from launch to exit, peak RSS MB, exit code, stdout)."""
        spec = dict(spec, timeout=max(1, int(self.deadline - time.monotonic())))
        err_path = os.path.join(self.workdir, "stderr.txt")
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, CHILD, json.dumps(spec)],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=err,
            )
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - t0
        proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode not in (0, 2):
            with open(err_path, "rb") as fh:
                tail = fh.read()[-600:].decode(errors="replace")
            print(f"[{spec['kind']} {spec['args']}] exit {proc.returncode}: {tail}", file=sys.stderr)
        return seconds, usage.ru_maxrss / 1024.0, proc.returncode, out.decode()

    def warm(self) -> None:
        self.launch({"kind": "warm", "args": []})

    def setup_probe(self) -> float:
        paths = [d.path for d in self.diagrams.values()]
        seconds, _, rc, _ = self.launch({"kind": "setup", "args": paths})
        if rc != 0:
            self.errors.append(f"set-up probe exit code {rc}")
        return seconds

    # -- checks -----------------------------------------------------------------

    def reference(self, key: str):
        """The checked algebra dump of a diagram, produced untimed if no operation gave it."""
        if key not in self.refs:
            d = self.diagrams[key]
            op = workloads.Op("cli", ("algebra", d.path), "algebra", key)
            _, _, rc, out = self.launch(op.spec())
            self.check(op, rc, out)
        return self.refs.get(key)

    def check(self, op, rc: int, out: str) -> None:
        memo = (op, hashlib.sha1(out.encode()).hexdigest(), rc)
        if memo in self.verdicts:
            error = self.verdicts[memo]
        else:
            ctx = checks.Context(op, self.diagrams[op.diagram],
                                 rng=random.Random(f"check:{self.seed}:{op.label}"))
            if op.check in ("blocks", "join"):
                ctx.ref = self.reference(op.diagram)
            check, _ = checks.CHECKS[op.check]
            try:
                result = check(out, rc, ctx)
                error = None
            except checks.CheckError as e:
                error = f"{op.label}: {e}"
            if error is None:
                if op.check == "algebra":
                    self.refs.setdefault(op.diagram, result)
                missed = checks.self_test(op.check, out, ctx)
                if missed:
                    error = f"{op.label}: self-test accepted corrupted output ({', '.join(missed)})"
            self.verdicts[memo] = error
        if error is not None:
            self.errors.append(error)

    # -- passes -----------------------------------------------------------------

    def run_pass(self, traced: bool) -> dict:
        res = {"wall_s": 0.0, "peak_rss_mb": 0.0, "setup": [], "layers": {}, "covered": 0.0}
        # Set-up probes are spread over the pass, so that their median samples
        # the machine's speed across the whole pass rather than one moment.
        probes_at = [] if traced else [j * len(self.ops) // SETUP_PROBES for j in range(SETUP_PROBES)]
        trace_path = os.path.join(self.workdir, "spans.json")
        for i, op in enumerate(self.ops):
            res["setup"] += [self.setup_probe() for _ in range(probes_at.count(i))]
            self.attempted += 1
            if time.monotonic() >= self.deadline:
                self.failed += 1
                continue
            spec = op.spec()
            if traced:
                spec["trace"] = trace_path
                if os.path.exists(trace_path):
                    os.remove(trace_path)
            seconds, rss, rc, out = self.launch(spec)
            self.op_log.append(("traced" if traced else "plain", op.label, seconds, rss, rc))
            res["wall_s"] += seconds
            res["peak_rss_mb"] = max(res["peak_rss_mb"], rss)
            if rc not in (0, 2):
                self.failed += 1
                continue
            if traced and os.path.exists(trace_path):
                with open(trace_path) as fh:
                    per_target, covered = tracer.summarize(json.load(fh)["spans"])
                tracer.merge(res["layers"], per_target)
                res["covered"] += covered
                self.trace_log.append({"op": op.label, "seconds": seconds, "entry_points": per_target})
            self.check(op, rc, out)
        return res


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "strandjoin", "cli.py")):
        print("error: no strandjoin sources under src/ in this checkout", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, args.trace)
    runner.warm()
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(runner.run_pass(traced=False))
        if args.trace:
            traced.append(runner.run_pass(traced=True))
        if time.perf_counter() - start >= args.seconds or time.monotonic() >= runner.deadline:
            break

    if args.trace:
        per_pass = [tracer.layer_metrics(p["layers"]) for p in traced]
        metrics = {
            name: _metric(statistics.median(p[name] for p in per_pass),
                          "s" if name.endswith(".s") else "count")
            for name in tracer.METRICS
        }
        wall_plain = statistics.median(p["wall_s"] for p in plain)
        wall_traced = statistics.median(p["wall_s"] for p in traced)
        metrics["trace.overhead_s"] = _metric(wall_traced - wall_plain, "s")
        metrics["trace.coverage"] = _metric(
            statistics.median(p["covered"] / p["wall_s"] for p in traced), "ratio")
    else:
        metrics = {
            "wall_s": _metric(statistics.median(p["wall_s"] for p in plain), "s"),
            "peak_rss_mb": _metric(statistics.median(p["peak_rss_mb"] for p in plain), "MB"),
            "setup_s": _metric(statistics.median(t for p in plain for t in p["setup"]), "s"),
        }
    result = {
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    for e in runner.errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    out_dir = os.path.join(ROOT, ".perfbench")
    tag = f"{args.workload}-{args.seed}-{args.trace}"
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w") as fh:
        json.dump(dict(result, passes=len(plain), errors=runner.errors, ops=runner.op_log),
                  fh, indent=1)
    if args.trace:
        with open(os.path.join(out_dir, f"trace-{tag}.json"), "w") as fh:
            json.dump(runner.trace_log, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
