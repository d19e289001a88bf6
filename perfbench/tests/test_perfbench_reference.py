"""Self-tests of the reference check and of BENCHMARK.json."""

import json
import sys
from collections import Counter
from dataclasses import replace

from run import ROOT, child_env, load_reference, mismatch, run_child
from tracer import PER_LAYER
from workloads import WORKLOADS, invocation_id


def test_one_changed_byte_or_exit_code_is_caught():
    args = ("ring-info", "fixtures/f3c2.glab")
    expected = load_reference(WORKLOADS["desk"])[invocation_id(args)]
    got = run_child([sys.executable, "-m", "glab", *args], child_env(), 60)
    assert mismatch(expected, got) is None
    flipped = bytearray(got.stdout)
    flipped[len(flipped) // 2] ^= 1
    assert mismatch(expected, replace(got, stdout=bytes(flipped)))
    assert mismatch(expected, replace(got, stdout=got.stdout + b"\n"))
    assert mismatch(expected, replace(got, exit=got.exit + 1))


def test_desk_covers_every_exit_path():
    desk = WORKLOADS["desk"]
    reference = load_reference(desk)
    codes = Counter(reference[invocation_id(a)]["exit"]
                    for a in desk.invocations)
    assert len(desk.invocations) == 76
    assert codes == {0: 57, 1: 10, 2: 6, 3: 3}


def test_every_invocation_has_a_reference():
    for workload in WORKLOADS.values():
        load_reference(workload)


def test_benchmark_json_names_what_the_code_reports():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == PER_LAYER
    assert [m["name"] for m in spec["end_to_end"]] == [
        "wall_s", "setup_s", "cmd_p50_s", "peak_rss_mb"]
