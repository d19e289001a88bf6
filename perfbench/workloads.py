"""The benchmark's workloads: the glab invocations of each, and the
instance files whose construction `setup_s` times.

Paths are relative to the repository root, where every child runs.
The lists are fixed, not read from the directory, so that the
reference reports in perfbench/reference/ stay the oracle for them.
"""

from __future__ import annotations

from dataclasses import dataclass

CALIBRATION_BOUND = ("--census-bound", "5000")

# Desk fixtures, and the ideals each names in its file. A file that
# names two ideals also gets the pair commands.
DESK = {
    "corrupt_cayley": (),
    "f2c2": ("C",),
    "f2c3": ("C", "D"),
    "f2s3": (),
    "f2x2c2": (),
    "f3c2": ("C", "D"),
    "m2f2c2": ("C", "D"),
    "m2f2c3": (),
    "ut2c1": (),
    "z4c2": ("N", "F"),
    "z4c3": ("C", "D"),
}

LATTICE = ("f2c2c2c2", "z4c2c2", "f2x2c2c2")


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[tuple[str, ...], ...]
    files: tuple[str, ...]


def _desk() -> Workload:
    invocations = []
    files = []
    for name, ideals in DESK.items():
        path = f"fixtures/{name}.glab"
        files.append(path)
        invocations += [("ring-info", path), ("idempotents", path),
                        ("lcp", "scan", path), ("checkable", "census", path),
                        ("verify-all", path)]
        if len(ideals) == 2:
            invocations += [("lcp", "verify", path, "--pair", *ideals),
                            ("lcp", "residue", path, "--pair", *ideals)]
        invocations += [("checkable", "ideal", path, "--ideal", ideal)
                        for ideal in ideals]
    return Workload("desk", tuple(invocations), tuple(files))


def _lattice() -> Workload:
    files = tuple(f"perfbench/instances/{name}.glab" for name in LATTICE)
    return Workload("lattice", tuple(("verify-all", f) for f in files), files)


def _calibration() -> Workload:
    # verify-all on this instance takes 82-93 s, more than one run of the
    # benchmark may last; these commands build the same shared objects.
    fixture = "fixtures/m2f2c3.glab"
    pair = "perfbench/instances/m2f2c3pair.glab"
    invocations = (
        ("idempotents", fixture),
        ("lcp", "scan", fixture, *CALIBRATION_BOUND),
        ("checkable", "census", fixture, *CALIBRATION_BOUND),
        ("lcp", "verify", pair, "--pair", "C", "D"),
    )
    return Workload("calibration", invocations, (fixture, pair))


WORKLOADS = {w.name: w for w in (_desk(), _lattice(), _calibration())}


def invocation_id(args: tuple[str, ...]) -> str:
    return " ".join(args)
