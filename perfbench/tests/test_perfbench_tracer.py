"""Self-tests of the span arithmetic and of wrapper install/uninstall."""

import sys
from pathlib import Path

import pytest

from tracer import LAYERS, Tracer, install, layer_metrics, merge, uninstall


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock)

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        traced_inner()
        clock.now += 3.0
        traced_inner()

    traced_inner = tracer.wrap("m.inner", inner)
    tracer.wrap("m.outer", outer)()
    assert tracer.calls == {"m.outer": 1, "m.inner": 2}
    assert tracer.total == {"m.outer": 8.0, "m.inner": 4.0}
    assert tracer.self_time == {"m.outer": 4.0, "m.inner": 4.0}
    assert tracer.edges == {(None, "m.outer"): 1, ("m.outer", "m.inner"): 2}


def test_recursive_span_counts_its_total_once():
    clock = FakeClock()
    tracer = Tracer(clock)

    def f(depth):
        clock.now += 1.0
        if depth:
            traced(depth - 1)

    traced = tracer.wrap("m.f", f)
    traced(2)
    assert tracer.calls["m.f"] == 3
    assert tracer.total["m.f"] == 3.0
    assert tracer.self_time["m.f"] == 3.0


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.now += 1.5
        raise ValueError("law falsified")

    with pytest.raises(ValueError):
        tracer.wrap("m.boom", boom)()
    assert tracer.total["m.boom"] == 1.5
    assert not tracer._stack


def test_ratios_on_a_hand_built_trace():
    trace = {
        "calls": {"verify.Workspace.dual": 10, "ideals.dual_code": 4,
                  "ideals.enumerate_ideals": 2},
        "total": {"verify.law.hat-transfer.size": 0.5},
        "self": {"ideals.dual_code": 0.25, "ideals.principal": 0.5,
                 "verify.Workspace.dual": 1.0},
        "returned": {"ideals.enumerate_ideals": 6},
        "edges": [["ideals.enumerate_ideals", "ideals.principal", 16],
                  ["ideals.enumerate_ideals", "ideals.ideal_sum", 8],
                  ["verify.Workspace.dual", "ideals.dual_code", 3],
                  [None, "ideals.dual_code", 1]],
    }
    m = layer_metrics(trace)
    assert m["ideals.census_yield"] == 6 / 24
    assert m["verify.dual_cache_hit_ratio"] == 1 - 3 / 10
    assert m["verify.Workspace.dual.calls"] == 10
    assert m["ideals.self_s"] == 0.75
    assert m["verify.self_s"] == 1.0
    assert m["verify.law.hat-transfer.size.s"] == 0.5
    # two identical passes give the same per-pass figures
    assert layer_metrics(merge([trace, trace]), passes=2) == m


def _bindings():
    import glab.verify
    from glab.galg import GroupAlgebra

    snapshot = {}
    for name, module in list(sys.modules.items()):
        if name == "glab" or name.startswith("glab."):
            for attr, obj in vars(module).items():
                snapshot[(name, attr)] = obj
    for cls in (GroupAlgebra, glab.verify.Workspace):
        for attr, obj in vars(cls).items():
            snapshot[(cls.__name__, attr)] = obj
    for i, row in enumerate(glab.verify.LAW_TABLE):
        snapshot[("LAW_TABLE", i)] = row
    return snapshot


def test_install_then_uninstall_restores_every_binding(capsys):
    import glab.cli
    import glab.lcp
    import glab.verify
    from glab.galg import GroupAlgebra

    for layer in LAYERS:
        __import__(f"glab.{layer}")
    before = _bindings()
    tracer = Tracer()
    undo = install(tracer)
    try:
        # names imported with `from .x import y` point at the same wrapper
        assert glab.cli.lcp_scan is glab.lcp.lcp_scan
        assert glab.lcp.lcp_scan is not before[("glab.lcp", "lcp_scan")]
        assert GroupAlgebra.mul is not before[("GroupAlgebra", "mul")]
        fixture = Path(__file__).resolve().parents[2] / "fixtures" / "f3c2.glab"
        assert glab.cli.main(["verify-all", str(fixture)]) == 0
    finally:
        uninstall(undo)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert "summary: 20 pass, 4 skip" in capsys.readouterr().out
    assert tracer.calls["cli.main"] == 1
    assert tracer.calls["verify.law.dual-lattice.sum-meet"] == 1
    assert tracer.calls["ideals.enumerate_ideals"] > 0
    assert tracer.edges[("verify.Workspace.dual", "ideals.dual_code")] > 0
