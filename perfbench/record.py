"""Write the reference reports that perfbench/run.py checks against.

    python3 perfbench/record.py [WORKLOAD ...]

Runs every invocation of each workload (all of them by default) once
and stores its exit code and stdout in perfbench/reference/. Record
only from a commit whose reports are known to be right: from then on
they are the oracle.
"""

import json
import sys

from run import REFERENCE, child_env, run_child
from workloads import WORKLOADS, invocation_id


def main(names: list[str]) -> None:
    env = child_env()
    for name in names or sorted(WORKLOADS):
        reference = {}
        for args in WORKLOADS[name].invocations:
            outcome = run_child([sys.executable, "-m", "glab", *args], env,
                                600)
            reference[invocation_id(args)] = {
                "exit": outcome.exit, "stdout": outcome.stdout.decode()}
        with open(REFERENCE / f"{name}.json", "w") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")
        codes = sorted(r["exit"] for r in reference.values())
        print(f"{name}: {len(reference)} invocations, exit codes "
              f"{ {c: codes.count(c) for c in set(codes)} }")


if __name__ == "__main__":
    main(sys.argv[1:])
