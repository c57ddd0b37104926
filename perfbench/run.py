"""End-to-end and per-layer benchmark of the epslie engine.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree (``src/epslie`` next to ``perfbench``).
Workloads are listed in ``perfbench/workloads.py``; metric names and units
in ``BENCHMARK.json``.

Every execution is a fresh interpreter (``perfbench/child.py``), closed
loop, one process at a time.  Each execution times its set-up apart from
the command and has its report checked against the workload's reference
answers and the seed commit's golden report.

``--trace 0`` runs the command again and again, as long as another
execution should end within ``--seconds`` (at least once), tops the set-up
samples up with set-up-only processes, and reports medians:

- ``wall_s``: the command after set-up;
- ``setup_s``: ``import epslie.cli`` plus catalog construction;
- ``peak_rss_mb``: peak resident memory of an execution's process.

Times are at reference host speed (``reference.py``): a small fixed probe
computation runs every 50 ms inside each timed interval, and the interval,
less its probes, is scaled by the probe's nominal over its mean time.  The
measured medians are printed too.

``--trace 1`` runs the command once untraced and twice with the layer
tracer (``perfbench/tracer.py``), under two PYTHONHASHSEED values, checks
that every count metric is the same in both, and reports per-layer self
times (median of the two), counts, and the tracing overhead: traced
``wall_s`` over untraced ``wall_s``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the same metrics by
name with their unit, the quartiles, ``fail_frac`` and the provenance.  A
JSON record of every sample and of the span tree goes to
``perfbench/results/``.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
RESULTS = os.path.join(HERE, "results")

sys.path.insert(0, HERE)
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Every invocation must end within 180 s; leave room for the report.
HARD_CAP_S = 165.0
# Set-up samples per untraced run, counting the executions' own.
SETUP_SAMPLES = 7


class Failure(Exception):
    pass


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


class Runner:
    def __init__(self, workload, hashseed):
        self.w = workload
        self.hashseed = hashseed
        self.start = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.counts_repeat = True
        self.samples = []

    def remaining(self):
        return self.start + HARD_CAP_S - time.monotonic()

    def child(self, mode, hashseed=None):
        """One fresh interpreter; returns its JSON record or None on failure."""
        w = self.w
        argv = [sys.executable, CHILD, SRC, mode, w.algebra, w.module or "-"]
        if mode != "setup":
            argv += w.command
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = str(self.hashseed if hashseed is None else hashseed)
        env.pop("PYTHONPATH", None)
        self.attempted += 1
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                argv, cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=max(self.remaining(), 1.0),
            )
        except subprocess.TimeoutExpired:
            return self._fail(mode, "timed out after %.1f s" % (time.monotonic() - t0))
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-3:]
            return self._fail(mode, "exit %d: %s" % (proc.returncode, " | ".join(tail)))
        rec = json.loads(lines[-1])
        rec["mode"] = mode
        rec["hashseed"] = env["PYTHONHASHSEED"]
        if mode != "setup":
            found = w.problems(rec["rc"], rec["stdout"])
            if found:
                self._fail(mode, "; ".join(found))
                rec["ok"] = False
            else:
                rec["ok"] = True
        self.samples.append({k: v for k, v in rec.items() if k not in ("stdout", "layers")})
        return rec

    def _fail(self, mode, why):
        self.failed += 1
        self.problems.append("%s: %s" % (mode, why))
        return None


def run_untraced(r, seconds):
    r.child("setup")  # fills the bytecode cache; its time is not used
    execs, setups = [], []
    t0 = time.monotonic()
    longest = 0.0
    while True:
        t = time.monotonic()
        rec = r.child("run")
        if rec is None:
            break
        execs.append(rec)
        setups.append(rec)
        longest = max(longest, time.monotonic() - t)
        # Start another execution only if it should end within the run.
        now = time.monotonic()
        if now - t0 + longest > seconds or longest > r.remaining():
            break
    while len(setups) < SETUP_SAMPLES and r.remaining() > 5:
        s = r.child("setup")
        if s is None:
            break
        setups.append(s)
    if not execs:
        raise Failure("no execution completed")
    return {
        "wall_s": [e["wall_s"] for e in execs],
        "setup_s": [s["setup_s"] for s in setups],
        "peak_rss_mb": [e["peak_rss_mb"] for e in execs],
        "wall_measured_s": [e["wall_measured_s"] for e in execs],
        "setup_measured_s": [s["setup_measured_s"] for s in setups],
        "probe_s": [e["probe_s"] for e in execs],
    }


def count_metrics(layers):
    """The exact-count part of a layer summary: everything but times."""
    return {k: v for k, v in layers.items() if k != "edges" and not k.endswith("_s")}


def run_traced(r):
    r.child("setup")
    base = r.child("run")
    traced = [r.child("trace", r.hashseed), r.child("trace", (r.hashseed + 1) % 2**32)]
    if base is None or None in traced:
        raise Failure("an execution failed")
    a, b = (t["layers"] for t in traced)
    if count_metrics(a) != count_metrics(b):
        diff = sorted(k for k in count_metrics(a) if a[k] != b.get(k))
        r.counts_repeat = False
        r.problems.append("counts differ across hash seeds: %s" % ", ".join(diff))
    metrics = dict(a)
    for k in a:
        if k.endswith("_s"):
            metrics[k] = statistics.median([a[k], b[k]])
    metrics.update(tracing.ratios(metrics))
    metrics["trace.overhead"] = metrics["trace.wall_s"] / base["wall_s"]
    metrics["trace.untraced_wall_s"] = base["wall_s"]
    accounted = sum(v for k, v in a.items() if k.endswith(".self_s")) + a["trace.bookkeeping_s"]
    metrics["trace.accounted_frac"] = accounted / (a["trace.wall_s"] + a["catalog.build_s"])
    return metrics


def provenance(hashseed, backend):
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "epslie")
    for name in sorted(os.listdir(pkg)):
        if name.endswith((".py", ".pyx")):
            with open(os.path.join(pkg, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "backend": backend,
        "nproc": os.cpu_count(),
        "pythonhashseed": hashseed,
    }


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "epslie", "__init__.py")):
        sys.exit("no epslie source tree at %s" % SRC)
    spec = load_spec()
    w = WORKLOADS[args.workload]
    hashseed = args.seed % 2**32
    r = Runner(w, hashseed)
    out = {}
    try:
        if args.trace:
            values = run_traced(r)
            for m in spec["per_layer"]:
                out[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            extra = {k: v for k, v in values.items() if k not in out}
            lines = ["%s %s %s" % (k, out[k]["value"], out[k]["unit"]) for k in out]
            lines += ["%s %s" % (k, extra[k]) for k in
                      ("trace.untraced_wall_s", "trace.bookkeeping_s", "trace.accounted_frac")]
        else:
            samples = run_untraced(r, args.seconds)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            lines = []
            for name, values in samples.items():
                q1, med, q3 = quartiles(values)
                if name in units:
                    out[name] = {"value": med, "unit": units[name]}
                lines.append("%s median %.6g %s (q1 %.6g, q3 %.6g, n=%d)" % (
                    name, med, units.get(name, "s"), q1, q3, len(values)))
            extra = samples
    except Failure as e:
        r.problems.append(str(e))
        out = None
    backends = sorted({s["backend"] for s in r.samples}) or ["unknown"]
    prov = provenance(hashseed, ",".join(backends))

    print("workload %s (%s)" % (w.name, w.why))
    print("provenance " + json.dumps(prov, sort_keys=True))
    if out is not None:
        for line in lines:
            print(line)
    print("fail_frac %d/%d" % (r.failed, r.attempted))
    for problem in r.problems:
        print("FAILED " + problem)

    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "%s-seed%d-trace%d.json" % (w.name, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"workload": w.name, "command": w.command, "references": w.sources,
                   "seed": args.seed, "seconds": args.seconds, "provenance": prov,
                   "metrics": out, "extra": extra if out else None,
                   "problems": r.problems, "samples": r.samples}, f, indent=1, sort_keys=True)
    if out is None:
        sys.exit("benchmark failed: " + "; ".join(r.problems))
    print(json.dumps({
        "correct": r.failed == 0 and r.counts_repeat,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": out,
    }))


if __name__ == "__main__":
    main()
