"""Golden replay: every desk invocation's exit code and stdout, in process.

The reference reports in perfbench/reference/desk.json (every command on
every fixture) are the oracle: each one is replayed through
glab.cli.main from the repository root and must match byte for byte.
The file is only read here; perfbench/record.py rewrites it.
"""

import json
from pathlib import Path

import pytest

import glab.cli

ROOT = Path(__file__).resolve().parent.parent
DESK = json.loads((ROOT / "perfbench" / "reference" / "desk.json").read_text())


@pytest.mark.parametrize("invocation", sorted(DESK))
def test_desk_report_replays(invocation, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("GLAB_MAX_ELEMS", raising=False)
    want = DESK[invocation]
    code = glab.cli.main(invocation.split(" "))
    out = capsys.readouterr().out
    assert (code, out.encode()) == (want["exit"], want["stdout"].encode())
