"""Module entry point so `python -m glab` mirrors the console script."""

from .cli import entry

raise SystemExit(entry())
