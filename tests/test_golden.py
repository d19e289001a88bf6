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

import numpy as np
import pytest

import glab.cli
from glab.galg import GroupAlgebra

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


def _count(monkeypatch, cls, name):
    """The arguments of each call of a method, which still runs."""
    calls = []
    method = getattr(cls, name)

    def counted(self, *args):
        calls.append(args)
        return method(self, *args)
    monkeypatch.setattr(cls, name, counted)
    return calls


def test_lcp_scan_squares_all_certificates_in_one_product(monkeypatch,
                                                           capsys):
    # the 176 certificates of M2(Z2)C3 are checked for idempotence by one
    # broadcast product, and the report is the reference's; the other
    # products are rows over the whole index range (the orbits of the
    # class tables and the idempotent scan), one operand a scalar or
    # all 4,096 elements
    calls = _count(monkeypatch, GroupAlgebra, "mul")
    invocation = "lcp scan fixtures/m2f2c3.glab --census-bound 5000"
    _replay(REFERENCE["calibration"][invocation], invocation, monkeypatch,
            capsys)
    assert [len(x) for x, _ in calls if np.ndim(x) and len(x) != 4096] == [
        176]


def test_lcp_verify_decides_the_pair_in_one_reduction(monkeypatch, capsys):
    # the split of 1 decides complementarity too: one certificate
    # reduction and no sum of forms, and the report is the reference's
    certificates = _count(monkeypatch, GroupAlgebra, "certificates")
    sums = _count(monkeypatch, GroupAlgebra, "sum_forms")
    invocation = ("lcp verify perfbench/instances/m2f2c3pair.glab "
                  "--pair C D")
    _replay(REFERENCE["calibration"][invocation], invocation, monkeypatch,
            capsys)
    assert (len(certificates), len(sums)) == (1, 0)
