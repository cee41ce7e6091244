"""One fresh benchmark process: imports kamforge, loads the scenarios,
signals READY on stdout, then runs scenarios one after another through
``kamforge.cli.main(["run", <scenario>, "--out", <report>])``.

Usage (started by run.py, not by hand):

    python3 perfbench/child.py WORKDIR REPORTDIR RESULT [--setup-only]
        [--seconds S] [--trace] [--muladd SEED]

``--seconds S`` cycles through the scenario set until S seconds have
passed (always at least one full pass); without it the set runs once.
``--trace`` installs the wrappers of tracer.py first.  ``--muladd SEED``
times x*y + y after the pass, on operands sampled from the reports.
"""

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from metrics import report_literals  # noqa: E402


def _literals(report):
    """Exact (context json, literal) pairs of a report; a report without
    series falls back on its scenario's frequency vector."""
    scen = report.get("scenario", {})
    out = report_literals(report)
    if not out and "omega" in scen and "context" in scen:
        out = [(scen["context"], x) for x in scen["omega"]]
    return [(c, x) for c, x in out if c is not None and c["mode"] != "float64"]


_REF_FRACTIONS = [Fraction(7 * i + 1, i % 9 + 2) for i in range(64)]


def reference():
    """Fixed pure-Python work in the style of exact series arithmetic:
    Fraction products summed into a dict.  Timed between scenarios, it
    measures how fast the host runs such code at that moment."""
    acc = {}
    zero = Fraction(0)
    fr = _REF_FRACTIONS
    for i in range(4000):
        key = (i % 17, i % 5)
        acc[key] = acc.get(key, zero) + fr[i % 64] * fr[(i * 7) % 64]
    return acc


def _timed(fn, *args):
    w0, c0 = time.perf_counter(), time.process_time()
    out = fn(*args)
    return out, time.perf_counter() - w0, time.process_time() - c0


def _run_scenario(cli, name, scen, out):
    try:
        return cli.main(["run", scen, "--out", out])
    except Exception as exc:  # a traceback is a failed scenario, not a crashed bench
        sys.stderr.write(f"{name}: {type(exc).__name__}: {exc}\n")
        return "exception"


def muladd_us(report_paths, seed):
    """Median time of one x*y + y, in microseconds, over sampled operands."""
    from kamforge.scalar import ScalarContext, parse_literal

    lits = []
    for path in report_paths:
        with open(path) as fh:
            lits.extend(_literals(json.load(fh)))
    if not lits:
        return None
    ctxs = [json.dumps(c, sort_keys=True) for c, _ in lits]
    main_ctx = max(sorted(set(ctxs)), key=ctxs.count)
    pool = [x for c, x in zip(ctxs, lits) if c == main_ctx]
    ctx = ScalarContext.from_json(json.loads(main_ctx))
    rng = random.Random(seed)
    pairs = [
        (parse_literal(ctx, rng.choice(pool)[1]), parse_literal(ctx, rng.choice(pool)[1]))
        for _ in range(200)
    ]
    times = []
    for _ in range(15):
        t0 = time.perf_counter()
        for x, y in pairs:
            x * y + y
        times.append((time.perf_counter() - t0) / len(pairs))
    return statistics.median(times) * 1e6


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workdir")
    ap.add_argument("reportdir")
    ap.add_argument("result")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--muladd", type=int, default=None)
    args = ap.parse_args()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from kamforge import cli

    with open(os.path.join(args.workdir, "manifest.json")) as fh:
        names = json.load(fh)["scenarios"]
    scen_dir = os.path.join(args.workdir, "scenarios")
    for name in names:
        with open(os.path.join(scen_dir, name + ".json")) as fh:
            json.load(fh)
    sys.stdout.write("READY\n")
    sys.stdout.flush()
    if args.setup_only:
        return 0

    os.makedirs(args.reportdir, exist_ok=True)
    records = []  # [name, wall_s, cpu_s, exit status, same bytes as first pass]
    refs = [_timed(reference)[1:]]  # (wall_s, cpu_s) before, between and after scenarios
    first = {}
    start = time.perf_counter()
    done_pass = False
    while not done_pass or time.perf_counter() - start < args.seconds:
        for name in names:
            scen = os.path.join(scen_dir, name + ".json")
            out = os.path.join(args.reportdir, name + ".json")
            rc, wall, cpu = _timed(_run_scenario, cli, name, scen, out)
            refs.append(_timed(reference)[1:])
            try:
                with open(out, "rb") as fh:
                    data = fh.read()
            except OSError:
                data = None
            same = first.setdefault(name, data) == data
            records.append([name, wall, cpu, rc, same])
            if done_pass and time.perf_counter() - start >= args.seconds:
                break
        done_pass = True

    result = {
        "records": records,
        "refs": refs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(args.result + ".spans.json")
    if args.muladd is not None:
        paths = [os.path.join(args.reportdir, n + ".json") for n in names]
        result["muladd_us"] = muladd_us(paths, args.muladd)
    import numpy

    result["numpy"] = numpy.__version__
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
