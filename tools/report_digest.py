"""Digest every benchmark report, to check that two trees write the same bytes.

Usage, from anywhere:

    python3 tools/report_digest.py

For each workload of ``perfbench/scenarios.py`` and seeds 1-3, it runs
every scenario through ``kamforge.cli.main(["run", <scenario>, "--out",
<report>])`` of the checkout this script sits in, in one process, and
prints per workload the scenario count and one SHA-256 over (name, exit
code, report bytes), then the same over all workloads.  Run it in two
trees and compare the lines.

The reports include float results (the Monte-Carlo and Lie kinds), so a
digest depends on the machine: compare two trees on one machine only.
It uses the standard library and imports only ``perfbench/scenarios.py``
of the benchmark.
"""

import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import scenarios  # noqa: E402
from kamforge import cli  # noqa: E402

SEEDS = (1, 2, 3)


def _feed(h, *parts):
    for part in parts:
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)


def main() -> int:
    total, count = hashlib.sha256(), 0
    with tempfile.TemporaryDirectory() as tmp:
        scen, out = os.path.join(tmp, "scenario.json"), os.path.join(tmp, "report.json")
        for workload in scenarios.WORKLOADS:
            h, n = hashlib.sha256(), 0
            for seed in SEEDS:
                for name, sc in scenarios.generate(workload, seed):
                    with open(scen, "w") as fh:
                        json.dump(sc, fh, indent=1)
                    if os.path.exists(out):
                        os.remove(out)
                    rc = cli.main(["run", scen, "--out", out])
                    try:
                        with open(out, "rb") as fh:
                            data = fh.read()
                    except OSError:
                        data = b"<no report>"
                    record = (f"{workload}/{seed}/{name}".encode(), str(rc).encode(), data)
                    _feed(h, *record)
                    _feed(total, *record)
                    n += 1
            print(f"{workload}: {n} reports {h.hexdigest()}")
            count += n
    print(f"total: {count} reports {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
