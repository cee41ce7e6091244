"""Normal-form reports must stay byte-identical to their recorded hashes.

``tests/data/byte_identity.json`` holds the 49 seed-1 scenarios of the
benchmark's nf-quadratic and nf-rational workloads, each with the exit
code and the SHA-256 of the report ``kamforge run`` wrote for it; the
scenarios are ``generate(workload, 1)`` of ``perfbench/scenarios.py``.
The reports use exact arithmetic only, so the hashes do not depend on the
machine.  A refactor or an optimisation must leave them all unchanged.
Regenerate the file only in a change that alters reports on purpose and
records that in CHANGES.md (a correctness fix such as an honest
truncation window).
"""

import hashlib
import json
import os

import pytest

from kamforge.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data", "byte_identity.json")
with open(DATA) as fh:
    CASES = json.load(fh)


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_report_is_byte_identical(tmp_path, case):
    scenario, out = tmp_path / "scenario.json", tmp_path / "report.json"
    scenario.write_text(json.dumps(case["scenario"]))
    assert main(["run", str(scenario), "--out", str(out)]) == case["exit"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == case["sha256"]
