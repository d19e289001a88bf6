"""Run one glab command with every layer traced, then write the trace.

    python3 perfbench/traced.py TRACE.json <glab arguments>

Stdout and the exit code are the command's own; the summed spans go
to TRACE.json. Needs glab importable, e.g. PYTHONPATH=src.
"""

import json
import sys

import glab.cli
from tracer import Tracer, install, uninstall


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    undo = install(tracer)
    try:
        return glab.cli.main(argv)
    finally:
        uninstall(undo)
        with open(out, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
