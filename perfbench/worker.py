"""One fresh interpreter running one batch of a workload's ops, in process.

    python3 perfbench/worker.py SPEC.json [--setup-only] [--trace SPANS.json]

The interpreter is new for every batch, so ``fglab`` imports cold and the
``engine._machinery`` cache starts empty, as for a CLI user.  Reports on
its last stdout line one JSON object: ``setup_s`` (import of ``fglab.cli``
plus the workload's first-touch set-up calls), and unless ``--setup-only``
the batch's ``wall_s``, the largest op's time, ``peak_rss_mb``, ``attempted``
and ``failed`` counts, and with ``--trace`` the per-layer metrics.  Outputs
are checked by the oracles after the timed batch, and ``peak_rss_mb`` is
read before they run.

Times come in two forms.  ``raw_*`` are plain ``perf_counter`` seconds.
The others are reference seconds: each measured interval is scaled by
``REFERENCE_S / r``, where ``r`` is the mean time of a fixed reference loop
run just before and just after it in this process.  The shared host this
was tuned on changes speed by up to 1.6x within seconds, and both the
program and the reference slow down together, so the scaling cancels the
host while any change in fglab's own work shows in full.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

REFERENCE_LOOPS = 40000
REFERENCE_S = 0.005     # about the loop's time on a quiet 2 GHz Xeon host
_TABLE = list(range(1024))
_MAP = {i: 7 * i for i in range(97)}


def reference_s():
    """Time of a fixed loop of list and dict lookups and int arithmetic.

    It creates no container objects, so it leaves the garbage collector's
    counts, and with them the program's collections, as they were.
    """
    table, mapping = _TABLE, _MAP
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOPS):
        acc += table[i & 1023] ^ mapping[i % 97]
    return time.perf_counter() - start


def scaled(seconds, ref_before, ref_after):
    """Seconds in reference seconds, given the bracketing reference times."""
    return seconds * REFERENCE_S * 2 / (ref_before + ref_after)


def call(main, argv):
    """One CLI call with its stdout and stderr captured: (seconds, code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse rejects its arguments this way
            code = exc.code
        except Exception as exc:    # an op that raises is a failed op, not a crash
            code = "%s: %s" % (type(exc).__name__, exc)
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def run_steps(cli, steps, prev):
    """Run an op's steps in order; the token ``prev`` takes the last stdout."""
    seconds, outputs, error = 0.0, [], None
    for argv in steps:
        if outputs:
            argv = [outputs[-1].strip() if arg == prev else arg for arg in argv]
        dt, code, out, err = call(cli.main, argv)
        seconds += dt
        outputs.append(out)
        if code != 0:
            error = "%s exited %r: %s" % (argv[:3], code, err.strip()[-200:])
            break
    return seconds, outputs, error


def main(argv):
    spec_path = argv[0]
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)

    reference_s()   # lets the interpreter specialise the loop first
    ref_before = reference_s()
    start = time.perf_counter()
    import fglab.cli as cli
    _, _, error = run_steps(cli, spec["setup"], spec["prev"])
    if error:
        raise RuntimeError("set-up call failed: " + error)
    raw_setup_s = time.perf_counter() - start
    refs = [reference_s()]
    setup = {"setup_s": scaled(raw_setup_s, ref_before, refs[0]),
             "raw_setup_s": raw_setup_s}
    if "--setup-only" in argv:
        return setup

    import spans
    import workloads
    tracer = None
    if "--trace" in argv:
        tracer = spans.Tracer()
        tracer.install()

    results, times, ref_times, errors = {}, {}, {}, {}
    for op in spec["ops"]:
        if tracer:
            tracer.op = op["id"]
        seconds, results[op["id"]], error = run_steps(cli, op["steps"], spec["prev"])
        refs.append(reference_s())
        times[op["id"]] = seconds
        ref_times[op["id"]] = scaled(seconds, refs[-2], refs[-1])
        if error:
            errors[op["id"]] = error
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for op in spec["ops"]:
        if op["id"] not in errors:
            reason = workloads.check(op, results[op["id"]], results)
            if reason:
                errors[op["id"]] = reason
    largest = next(op["id"] for op in spec["ops"] if op.get("largest"))
    report = {
        **setup,
        "wall_s": sum(ref_times.values()),
        "largest_op_s": ref_times[largest],
        "raw_wall_s": sum(times.values()),
        "raw_largest_op_s": times[largest],
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(spec["ops"]),
        "failed": len(errors),
        "errors": ["%s: %s" % item for item in sorted(errors.items())][:5],
    }
    if tracer:
        tracer.uninstall()
        layers = spans.layer_metrics(tracer, report["raw_wall_s"])
        layers["cli.main.stdout_bytes"] = sum(
            len(out.encode()) for outputs in results.values() for out in outputs)
        report["layers"] = layers
        write_spans(argv[argv.index("--trace") + 1], tracer.spans)
    return report


def write_spans(path, records):
    """Spans as JSON: a name table and rows [name, start, end, parent, op]."""
    names = sorted({r[0] for r in records})
    ops = sorted({r[4] for r in records})
    index = {n: i for i, n in enumerate(names)}
    op_index = {o: i for i, o in enumerate(ops)}
    with open(path, "w") as fh:
        json.dump({"names": names, "ops": ops,
                   "fields": ["name", "start", "end", "parent", "op"],
                   "spans": [[index[n], s, e, p, op_index[o]]
                             for n, s, e, p, o in records]}, fh)


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
