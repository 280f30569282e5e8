"""fglab benchmark: four CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload witness --seed 1 --seconds 25 --trace 0

Builds the workload's inputs from the seed (untimed), then for about
``--seconds`` seconds runs batches of the workload's ops, each batch in a
fresh interpreter (``worker.py``), one after another: a closed loop of one
process with one thread.  Every output is checked by an oracle that does
not share the route under test.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, as medians
over the batches.  ``--trace 1`` alternates untraced and traced batches and
reports the per-layer metrics from the traced ones, plus
``trace.overhead_ratio``.  The last stdout line is the JSON result; the
lines before it give the environment, every metric by name and unit, and
the layer map's bypass predictions.  ``error_rate`` is ``failed`` over
``attempted`` ops.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_run")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_PROBES = 10       # extra fresh starts per run, for the setup_s median
MIN_BATCHES = 3         # per kind (untraced, traced) even if over time
HARD_LIMIT_S = 170      # the whole run must end within 180 s


def git_sha(root):
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    """Spawns worker interpreters one at a time and keeps the time budget."""

    def __init__(self, spec_path, started):
        self.spec_path = spec_path
        self.started = started
        self.env = dict(os.environ, PYTHONHASHSEED="0")

    def worker(self, *flags):
        remaining = HARD_LIMIT_S - (time.perf_counter() - self.started)
        if remaining <= 0:
            raise TimeoutError("no time left for another batch")
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), self.spec_path, *flags],
            capture_output=True, text=True, timeout=remaining, env=self.env)
        if proc.returncode != 0:
            raise RuntimeError("worker failed (%d): %s"
                               % (proc.returncode, proc.stderr.strip()[-500:]))
        return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(runner, seconds, trace, spans_path):
    """Batches until the time is up: (untraced reports, traced reports, set-up reports)."""
    runner.worker("--setup-only")   # untimed: byte-compiles fglab, warms the page cache
    setups = [runner.worker("--setup-only") for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    batch_s = 0.0
    while True:
        kinds = [plain] + ([traced] if trace else [])
        done = all(len(k) >= MIN_BATCHES for k in kinds)
        if done and time.perf_counter() + batch_s > deadline:
            break
        t0 = time.perf_counter()
        kind = traced if trace and len(traced) < len(plain) else plain
        report = runner.worker(*(["--trace", spans_path] if kind is traced else []))
        kind.append(report)
        setups.append(report)
        batch_s = max(batch_s, time.perf_counter() - t0)
    return plain, traced, setups


def median_of(reports, key):
    return statistics.median(r[key] for r in reports)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "fglab", "cli.py")):
        print("error: fglab sources not found under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "layers.json")) as fh:
        layer_map = json.load(fh)

    started = time.perf_counter()
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, "inputs-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(workdir)
    try:
        spec = workloads.build(args.workload, args.seed, workdir)
        spec_path = os.path.join(workdir, "spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        spans_path = os.path.join(OUT, "spans-%s.json" % args.workload)
        plain, traced, setups = measure(Runner(spec_path, started),
                                        args.seconds, args.trace, spans_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = {"workload": args.workload, "seed": args.seed,
           "python": sys.version.split()[0], "nproc": os.cpu_count(),
           "git_sha": git_sha(ROOT), "batches": len(plain), "traced_batches": len(traced),
           "ops_per_batch": len(spec["ops"]), "setup_starts": len(setups)}
    print("env " + json.dumps(env, sort_keys=True))
    reports = plain + traced
    for key in ("wall_s", "raw_wall_s"):
        print("batch %s %s" % (key, " ".join("%.4g" % r[key] for r in reports)))
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    for r in reports:
        for error in r["errors"]:
            print("FAILED " + error)

    if args.trace:
        values = {name: statistics.median(r["layers"].get(name, 0) for r in traced)
                  for name in {n for r in traced for n in r["layers"]}}
        values["trace.overhead_ratio"] = (median_of(traced, "wall_s")
                                          / median_of(plain, "wall_s"))
        wanted = bench["per_layer"]
        report_predictions(layer_map["workloads"][args.workload], values)
        for layer in layer_map["layers"].values():
            for name in layer["metrics"]:
                print("layer %-45s %.6g" % (name, values.get(name, 0)))
    else:
        values = {"setup_s": median_of(setups, "setup_s"),
                  "wall_s": median_of(plain, "wall_s"),
                  "largest_op_s": median_of(plain, "largest_op_s"),
                  "peak_rss_mb": median_of(plain, "peak_rss_mb")}
        raw = {"setup_s": median_of(setups, "raw_setup_s"),
               "wall_s": median_of(plain, "raw_wall_s"),
               "largest_op_s": median_of(plain, "raw_largest_op_s")}
        wanted = bench["end_to_end"]
        for m in wanted:
            name = m["name"]
            note = " (%.6g raw)" % raw[name] if name in raw else ""
            print("%-13s %12.6g %s%s" % (name, values[name], m["unit"], note))
        print("%-13s %12.6g ratio (%d failed of %d attempted ops)"
              % ("error_rate", failed / attempted, failed, attempted))

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                          for m in wanted}}
    with open(os.path.join(OUT, "result-%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump({"env": env, **result}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


def report_predictions(workload, values):
    """Print each bypass prediction of the layer map with what the trace saw."""
    for prefix in workload["zero_calls"]:
        calls = sum(v for k, v in values.items()
                    if k.startswith(prefix) and k.endswith(".calls"))
        print("prediction %s*.calls == 0: %s (%d calls)"
              % (prefix, "held" if calls == 0 else "FAILED", calls))


if __name__ == "__main__":
    sys.exit(main())
