"""Module entry point so `python -m glab` mirrors the console script."""

import gc

# numpy and glab load with no cyclic collection: the import leaves
# almost nothing unreachable, and `entry` freezes what it made and
# turns collection back on before the command runs
gc.disable()

from .cli import entry  # noqa: E402

raise SystemExit(entry())
