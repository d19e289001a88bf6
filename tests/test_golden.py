"""Golden replay: every benchmark invocation's exit code and stdout, in process.

The reference reports in perfbench/reference/ are the oracle: desk.json
(every command on every fixture), lattice.json (verify-all on three
256-element local algebras with 47 right ideals each) and
calibration.json (the M2(Z2)C3 commands). Each invocation is replayed
through glab.cli.main from the repository root and must match byte for
byte. The files are only read here; perfbench/record.py rewrites them.
The full law matrix at the calibration point, in text and TSV, is
frozen in tests/golden/, which nothing rewrites.
"""

import json
from pathlib import Path

import pytest

import glab.cli

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = {
    workload: json.loads(
        (ROOT / "perfbench" / "reference" / f"{workload}.json").read_text())
    for workload in ("desk", "lattice", "calibration")}


def _replay(want, invocation, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("GLAB_MAX_ELEMS", raising=False)
    code = glab.cli.main(invocation.split(" "))
    out = capsys.readouterr().out
    assert (code, out.encode()) == (want["exit"], want["stdout"].encode())


@pytest.mark.parametrize("invocation", sorted(REFERENCE["desk"]))
def test_desk_report_replays(invocation, monkeypatch, capsys):
    _replay(REFERENCE["desk"][invocation], invocation, monkeypatch, capsys)


@pytest.mark.parametrize("invocation", sorted(REFERENCE["lattice"]))
def test_lattice_report_replays(invocation, monkeypatch, capsys):
    _replay(REFERENCE["lattice"][invocation], invocation, monkeypatch, capsys)


@pytest.mark.parametrize("invocation", sorted(REFERENCE["calibration"]))
def test_calibration_report_replays(invocation, monkeypatch, capsys):
    _replay(REFERENCE["calibration"][invocation], invocation, monkeypatch,
            capsys)


# The full law matrix at the calibration point, the paper's own
# noncommutative setting (M2(Z2)C3), recorded while sets were still
# keyed by their masks: 24 laws, 3 of which fail by design (exit 1).
CALIBRATION_VERIFY_ALL = "verify-all fixtures/m2f2c3.glab --census-bound 5000"


@pytest.mark.parametrize("fmt", ["txt", "tsv"])
def test_calibration_verify_all_replays(fmt, monkeypatch, capsys):
    golden = ROOT / "tests" / "golden" / f"verify_all_m2f2c3.{fmt}"
    invocation = CALIBRATION_VERIFY_ALL + (" --format tsv" * (fmt == "tsv"))
    _replay({"exit": 1, "stdout": golden.read_text()}, invocation,
            monkeypatch, capsys)
