"""Benchmark of the glab command line: time, memory and report correctness.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 40 --trace 0

Runs one workload's glab invocations from the repository root as child
processes, one at a time (a closed loop with one client). Each pass
runs every invocation once, in an order shuffled by the seed. One
pass always runs; more run while they fit in --seconds. Every exit
code and every stdout byte is checked against the reference reports in
perfbench/reference/ (written by perfbench/record.py).

With --trace 0 it also times the construction of the workload's
instance files and reports the end-to-end metrics:

  wall_s       sum over invocations of each one's median seconds
  setup_s      interpreter start, import, load_instance and
               build_instance of each instance file, one process per
               file, summed; the median of three repeats
  cmd_p50_s    median over invocations of each one's median seconds
  peak_rss_mb  largest child ru_maxrss over the run
  failed_frac  printed, not in the JSON metrics: it is `failed` over
               `attempted`, 0 when every report matches

Their seconds are scaled to a nominal machine speed, because the
speed of a shared host drifts by a quarter within minutes: a fixed
reference load (perfbench/speed_ref.py) runs before the first child
and again after every REF_EVERY_S of child time, and each child's
seconds are multiplied by REF_NOMINAL_S over the mean time of the
reference loads around it. The unscaled total is printed too. Each
child runs pinned to the CPU that a short spin loop finds fastest
just before it starts.

With --trace 1 it runs each invocation twice in a row, plainly and
through perfbench/traced.py, and reports the per-layer metrics of
perfbench/tracer.py per pass, in unscaled seconds. The last line of
stdout is one JSON object with the keys correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import LAYERS, PER_LAYER, layer_metrics, merge
from workloads import WORKLOADS, Workload, invocation_id

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference"
TRACE_FILE = HERE / ".out" / "trace.json"
SETUP_REPEATS = 3
RUN_LIMIT_S = 170  # children still running then are killed
CPUS = sorted(os.sched_getaffinity(0))
REF_EVERY_S = 2.0
# About the reference load's time on an idle host of the kind the
# baseline was recorded on; a fixed unit, never re-measured.
REF_NOMINAL_S = 0.2


@dataclass
class Outcome:
    exit: int
    stdout: bytes
    seconds: float
    rss_mb: float


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


def _spin() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(50_000):
        total += i * i % 7
    return time.perf_counter() - start


def pin_to_fastest_cpu() -> None:
    """Pin this process, and so the children it starts next, to the CPU
    on which a 4 ms spin loop runs fastest right now."""
    spins = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        spins[cpu] = _spin()
    os.sched_setaffinity(0, {min(spins, key=spins.get)})


def run_child(argv: list[str], env: dict[str, str],
              timeout: float) -> Outcome:
    """Run one process to its end; kill it after `timeout` seconds."""
    pin_to_fastest_cpu()
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(proc.returncode, out, seconds, usage.ru_maxrss / 1024)


class SpeedScale:
    """Scales child seconds to the nominal machine speed."""

    def __init__(self, env: dict[str, str]):
        self.env = env
        self.pending: list[tuple[list, float]] = []
        self.raw_s = self.scaled_s = 0.0
        self.before = self._reference()

    def _reference(self) -> float:
        outcome = run_child([sys.executable, str(HERE / "speed_ref.py")],
                            self.env, 60)
        if outcome.exit != 0:
            raise SystemExit("perfbench: the reference load failed")
        return outcome.seconds

    def add(self, sink: list, seconds: float) -> None:
        """Append `seconds`, scaled, to `sink` once the next reference
        load has run."""
        self.pending.append((sink, seconds))
        if sum(s for _, s in self.pending) >= REF_EVERY_S:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        after = self._reference()
        factor = REF_NOMINAL_S / ((self.before + after) / 2)
        for sink, seconds in self.pending:
            sink.append(seconds * factor)
            self.raw_s += seconds
            self.scaled_s += seconds * factor
        self.pending, self.before = [], after


def mismatch(expected: dict, outcome: Outcome) -> str | None:
    """Why an outcome differs from its reference, or None."""
    if outcome.exit != expected["exit"]:
        return f"exit code {outcome.exit}, reference {expected['exit']}"
    if outcome.stdout != expected["stdout"].encode():
        return "stdout differs from the reference"
    return None


def load_reference(workload: Workload) -> dict[str, dict]:
    path = REFERENCE / f"{workload.name}.json"
    with open(path) as fh:
        reference = json.load(fh)
    missing = [invocation_id(a) for a in workload.invocations
               if invocation_id(a) not in reference]
    if missing:
        raise SystemExit(f"perfbench: no reference in {path} for {missing}")
    return reference


@dataclass
class Passes:
    """What a series of passes measured, by invocation."""
    times: dict[str, list[float]] = field(default_factory=dict)
    rss_mb: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def medians(self) -> list[float]:
        return [statistics.median(t) for t in self.times.values()]

    @property
    def wall_s(self) -> float:
        return sum(self.medians)


def run_passes(workload: Workload, reference: dict, rng: random.Random,
               seconds: float, deadline: float, scale: SpeedScale | None,
               traced: bool) -> tuple[Passes, Passes, list[dict]]:
    """Run passes over the workload; return the plain runs, the traced
    runs and the merged trace of each pass. With `traced` each
    invocation runs plainly and then traced; `scale` scales the plain
    runs' seconds."""
    env = child_env()
    plain, with_trace, traces = Passes(), Passes(), []
    started = time.perf_counter()
    passes, last_pass = 0, 0.0
    # Start another pass only if it should end within `seconds`.
    while passes == 0 or (
            time.perf_counter() - started + last_pass <= seconds
            and time.perf_counter() + last_pass < deadline):
        pass_start = time.perf_counter()
        order = list(workload.invocations)
        rng.shuffle(order)
        pass_traces = []
        for args in order:
            key = invocation_id(args)
            runs = [(plain, [sys.executable, "-m", "glab", *args])]
            if traced:
                runs.append((with_trace, [sys.executable,
                                          str(HERE / "traced.py"),
                                          str(TRACE_FILE), *args]))
            for got, argv in runs:
                outcome = run_child(argv, env,
                                    max(1.0, deadline - time.perf_counter()))
                got.attempted += 1
                times = got.times.setdefault(key, [])
                if scale and got is plain:
                    scale.add(times, outcome.seconds)
                else:
                    times.append(outcome.seconds)
                got.rss_mb = max(got.rss_mb, outcome.rss_mb)
                why = mismatch(reference[key], outcome)
                if why:
                    got.failures.append(f"{key}: {why}")
            if traced and TRACE_FILE.exists():
                with open(TRACE_FILE) as fh:
                    pass_traces.append(json.load(fh))
                TRACE_FILE.unlink()
        if traced:
            traces.append(merge(pass_traces))
        passes += 1
        last_pass = time.perf_counter() - pass_start
    if scale:
        scale.flush()
    return plain, with_trace, traces


def measure_setup(workload: Workload, deadline: float,
                  scale: SpeedScale) -> float:
    env = child_env()
    repeats = [[] for _ in range(SETUP_REPEATS)]
    for times in repeats:
        for path in workload.files:
            outcome = run_child(
                [sys.executable, str(HERE / "setup_probe.py"), path], env,
                max(1.0, deadline - time.perf_counter()))
            if outcome.exit != 0:
                raise SystemExit(f"perfbench: set-up of {path} exited "
                                 f"with code {outcome.exit}")
            scale.add(times, outcome.seconds)
    scale.flush()
    return statistics.median(sum(times) for times in repeats)


def end_to_end(workload: Workload, reference: dict, rng: random.Random,
               seconds: float, deadline: float) -> tuple[Passes, dict]:
    scale = SpeedScale(child_env())
    setup_s = measure_setup(workload, deadline, scale)
    got, _, _ = run_passes(workload, reference, rng, seconds, deadline,
                           scale, traced=False)
    print(f"  unscaled: {scale.raw_s:.6g} s of children ran as "
          f"{scale.scaled_s:.6g} nominal s")
    metrics = {
        "wall_s": (got.wall_s, "s"),
        "setup_s": (setup_s, "s"),
        "cmd_p50_s": (statistics.median(got.medians), "s"),
        "peak_rss_mb": (got.rss_mb, "MB"),
    }
    return got, metrics


def per_layer(workload: Workload, reference: dict, rng: random.Random,
              seconds: float, deadline: float) -> tuple[Passes, dict]:
    TRACE_FILE.parent.mkdir(exist_ok=True)
    try:
        plain, traced, traces = run_passes(workload, reference, rng, seconds,
                                           deadline, None, traced=True)
    finally:
        if TRACE_FILE.exists():
            TRACE_FILE.unlink()
        TRACE_FILE.parent.rmdir()
    values = layer_metrics(merge(traces), len(traces))
    for n, trace in enumerate(traces[1:], 2):
        first, calls = traces[0]["calls"], trace["calls"]
        moved = sorted(k for k in first.keys() | calls.keys()
                       if first.get(k) != calls.get(k))
        if moved:
            print(f"FLAG: call counts of pass {n} differ from pass 1: "
                  f"{', '.join(moved)}")
    layers = sum(values[f"{layer}.self_s"] for layer in LAYERS)
    values["trace.wall_s"] = traced.wall_s
    values["trace.unwrapped_s"] = traced.wall_s - layers
    values["trace.overhead_s"] = traced.wall_s - plain.wall_s
    got = Passes(rss_mb=max(plain.rss_mb, traced.rss_mb),
                 attempted=plain.attempted + traced.attempted,
                 failures=plain.failures + traced.failures)
    units = {name: unit for name, unit, _ in PER_LAYER}
    return got, {name: (values[name], units[name]) for name, _, _ in PER_LAYER}


def missing_inputs() -> list[str]:
    needed = {"src/glab/cli.py"}
    for workload in WORKLOADS.values():
        needed.update(workload.files)
    return sorted(p for p in needed if not (ROOT / p).is_file())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S

    missing = missing_inputs()
    if missing:
        print(f"perfbench: glab source or inputs missing: {missing}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reference = load_reference(workload)
    warm = run_child([sys.executable, "-c", "import glab.cli"], child_env(),
                     60)
    if warm.exit != 0:
        print("perfbench: cannot import glab.cli", file=sys.stderr)
        return 2

    print(f"perfbench {workload.name}: seed {args.seed}, "
          f"{len(workload.invocations)} invocations")
    rng = random.Random(args.seed)
    measure = per_layer if args.trace else end_to_end
    got, metrics = measure(workload, reference, rng, args.seconds, deadline)

    for failure in got.failures:
        print(f"  MISMATCH {failure}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:.6g} {unit}")
    print(f"  {'failed_frac':<48} {len(got.failures) / got.attempted:.6g} "
          f"({len(got.failures)} of {got.attempted})")
    print(json.dumps({
        "correct": not got.failures,
        "attempted": got.attempted,
        "failed": len(got.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
