#!/usr/bin/env python3
"""The kamforge benchmark.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Run from the root of a kamforge checkout.  The seed generates the
workload's scenario files (scenarios.py); kamforge sees only those files.

--trace 0 measures the end-to-end metrics.  Five fresh processes are
started to measure set-up time (start, imports, scenario loading); the
last of them is one closed-loop client that runs the scenarios one after
another through kamforge's CLI entry for S seconds (at least one full
pass), with a fixed reference run before, between and after them.
wall_ref and cpu_ref sum each scenario's median time in reference units
(metrics.py); the raw seconds are printed too.

--trace 1 gives the per-layer metrics: one untraced pass, then two
traced passes (tracer.py), each in a fresh process.  Traced reports must
be byte-identical to the untraced ones, and the deterministic counters of
the two traced passes must repeat exactly.

Every report is checked independently (checks.py).  Human-readable
lines come first; the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import metrics  # noqa: E402
import scenarios  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
SETUP_SAMPLES = 5  # fresh processes whose start-up is timed; the last one also runs the loop
DEADLINE_S = 170.0  # the whole run ends within this, or fails
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _check_config():
    """BENCHMARK.json must list exactly the metrics this benchmark prints."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}")
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in cfg["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in cfg["per_layer"]}
    if e2e != metrics.END_TO_END or layer != {k: v[:2] for k, v in metrics.PER_LAYER.items()}:
        raise BenchError("BENCHMARK.json disagrees with perfbench/metrics.py")
    if sorted(w["name"] for w in cfg["workloads"]) != sorted(scenarios.WORKLOADS):
        raise BenchError("BENCHMARK.json workloads disagree with perfbench/scenarios.py")


def _child_env():
    """Environment of every child: BLAS threads capped at nproc."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in BLAS_VARS:
        cur = env.get(var, "")
        if not (cur.isdigit() and 1 <= int(cur) <= nproc):
            env[var] = str(nproc)
    return env, nproc


def _speed_probe_ms():
    """Best of five runs of a fixed pure-Python integer loop."""
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        x = 0
        for i in range(200_000):
            x = (x + i * i) % 1_000_003
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def _src_loc():
    total = 0
    for dirpath, _dirs, files in os.walk(os.path.join(ROOT, "src")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f)) as fh:
                    total += sum(1 for _ in fh)
    return total


class Runner:
    def __init__(self, workdir, env, deadline):
        self.workdir = workdir
        self.env = env
        self.deadline = deadline

    def child(self, tag, *extra):
        """Start a child, time it to READY, wait for it; returns (setup_s, result)."""
        result_path = os.path.join(self.workdir, tag + ".result.json")
        cmd = [sys.executable, CHILD, self.workdir, os.path.join(self.workdir, tag), result_path, *extra]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"child {tag} did not finish before the deadline")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if line.strip() != "READY" or proc.returncode != 0:
            raise BenchError(f"child {tag} failed (exit {proc.returncode})")
        if "--setup-only" in extra:
            return setup_s, None
        with open(result_path) as fh:
            return setup_s, json.load(fh)


def _load_reports(workdir, tag, scen):
    """{name: (scenario, report or None)} and the total report size in bytes."""
    out, size = {}, 0
    for name, sc in scen:
        path = os.path.join(workdir, tag, name + ".json")
        try:
            with open(path, "rb") as fh:
                data = fh.read()
            size += len(data)
            out[name] = (sc, json.loads(data))
        except (OSError, ValueError):
            out[name] = (sc, None)
    return out, size


def _same_bytes(workdir, tag_a, tag_b, names):
    differ = []
    for name in names:
        with open(os.path.join(workdir, tag_a, name + ".json"), "rb") as fa, \
                open(os.path.join(workdir, tag_b, name + ".json"), "rb") as fb:
            if fa.read() != fb.read():
                differ.append(name)
    return differ


def _failed(records, problems):
    """Executions that exited nonzero, changed their report, or failed a check."""
    return [r for r in records if r[3] != 0 or not r[4] or problems.get(r[0])]


def run_untraced(runner, scen, seconds):
    setup = [runner.child(f"setup{i}", "--setup-only")[0] for i in range(SETUP_SAMPLES - 1)]
    setup_s, res = runner.child("loop", "--seconds", str(seconds))
    setup.append(setup_s)
    reports, _ = _load_reports(runner.workdir, "loop", scen)
    problems = checks.check_all(reports)
    failed = _failed(res["records"], problems)
    values = metrics.end_to_end(res["records"], res["refs"], setup, res["peak_rss_mb"])
    info = {
        "numpy": res["numpy"],
        "passes": len(res["records"]) / len(scen),
        "setup_samples": setup,
        **metrics.raw_seconds(res["records"], res["refs"]),
    }
    return values, len(res["records"]), failed, problems, info


def run_traced(runner, scen, seed):
    names = [n for n, _ in scen]
    _, plain = runner.child("plain", "--muladd", str(seed))
    traced = [runner.child(tag, "--trace")[1] for tag in ("traced1", "traced2")]
    reports, _ = _load_reports(runner.workdir, "plain", scen)
    problems = checks.check_all(reports)
    for tag in ("traced1", "traced2"):
        for name in _same_bytes(runner.workdir, "plain", tag, names):
            problems[name].append(f"{tag} report differs from the untraced one")
    records = plain["records"] + traced[0]["records"] + traced[1]["records"]
    failed = _failed(records, problems)

    def wall(res):
        return sum(sum(w) for w, _ in metrics.ref_ratios(res["records"], res["refs"]).values())

    overhead = wall(traced[0]) / wall(plain) - 1.0
    values = []
    for tag, res in zip(("traced1", "traced2"), traced):
        rep, size = _load_reports(runner.workdir, tag, scen)
        counted = metrics.report_counters({n: v for n, v in rep.items() if v[1] is not None}, size)
        values.append(metrics.per_layer(res["trace"], counted, plain.get("muladd_us"), overhead))
    repeat = {k: (values[0][k], values[1][k]) for k in metrics.DETERMINISTIC if values[0][k] != values[1][k]}
    info = {
        "numpy": plain["numpy"],
        "spans": traced[0]["trace"]["spans"],
        "wrapped_bindings": len(traced[0]["trace"]["patched"]),
        "counters_repeat": not repeat,
    }
    if repeat:
        info["counters_differ"] = repeat
    return values[0], len(records), failed, problems, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True, choices=scenarios.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "kamforge", "cli.py")):
        raise BenchError("no kamforge sources under src/: run from the root of a kamforge checkout")
    _check_config()
    workdir = os.path.join(ROOT, ".perfbench_runs", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(os.path.join(workdir, "scenarios"))
    scen = scenarios.generate(args.workload, args.seed)
    for name, sc in scen:
        with open(os.path.join(workdir, "scenarios", name + ".json"), "w") as fh:
            json.dump(sc, fh, indent=1)
    with open(os.path.join(workdir, "manifest.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "scenarios": [n for n, _ in scen]}, fh)

    env, nproc = _child_env()
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "scenarios": len(scen),
        "nproc": nproc,
        "python": platform.python_version(),
        "blas_threads": {v: env[v] for v in BLAS_VARS},
        "src_loc": _src_loc(),
        "speed_probe_ms": _speed_probe_ms(),
    }
    runner = Runner(workdir, env, deadline)
    if args.trace:
        values, attempted, failed, problems, info = run_traced(runner, scen, args.seed)
        table = {k: v[0] for k, v in metrics.PER_LAYER.items()}
    else:
        values, attempted, failed, problems, info = run_untraced(runner, scen, args.seconds)
        table = {k: v[0] for k, v in metrics.END_TO_END.items()}
    meta.update(info)

    for name, probs in sorted(problems.items()):
        for p in probs:
            print(f"check failed: {name}: {p}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"failed_frac = {len(failed) / attempted:.6g} ({len(failed)} of {attempted} scenario runs)")
    for name, value in values.items():
        moves = f"  (should move: {metrics.PER_LAYER[name][2]})" if args.trace else ""
        print(f"{name} = {value:.6g} {table[name]}{moves}")
    if not args.trace:
        print(f"raw: wall {info['wall_s']:.6g} s, cpu {info['cpu_s']:.6g} s, "
              f"reference run {info['reference_ms']:.4g} ms")
    correct = not failed and info.get("counters_repeat", True)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": table[k]} for k, v in values.items()},
    }
    with open(os.path.join(workdir, "summary.json"), "w") as fh:
        json.dump({"meta": meta, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        sys.exit(2)
