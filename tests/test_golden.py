"""Reports of checked-in scenarios must stay byte-identical.

Each ``tests/data/golden/<name>.scenario.json`` has its expected report
next to it as ``<name>.report.json``.
"""

import os

import pytest

from kamforge.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden")
SUFFIX = ".scenario.json"
NAMES = sorted(f[: -len(SUFFIX)] for f in os.listdir(GOLDEN) if f.endswith(SUFFIX))
EXIT_STATUS = {"hadamard-resonant": 1, "schema-error": 2}


def golden_report(name):
    with open(os.path.join(GOLDEN, f"{name}.report.json"), "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("name", NAMES)
def test_golden_report(tmp_path, name):
    out = tmp_path / "report.json"
    rc = main(["run", os.path.join(GOLDEN, name + SUFFIX), "--out", str(out)])
    assert rc == EXIT_STATUS.get(name, 0)
    assert out.read_bytes() == golden_report(name)


def test_selftest_command_equals_run(tmp_path):
    out = tmp_path / "report.json"
    assert main(["selftest", "--seed", "7", "--out", str(out)]) == 0
    assert out.read_bytes() == golden_report("selftest-7")
