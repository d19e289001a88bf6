"""The desk instances of the test suite, read from fixtures/*.glab.

The instance files are the one definition of the desk algebras; the
tests load them the way the CLI does. Each call builds afresh, so a
test that counts products or patches a module sees its own objects.
"""

from pathlib import Path

from glab.instance import build_instance, load_instance
from glab.workspace import Workspace

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# every fixture file by stem, in file-name order
FIXTURE_NAMES = tuple(p.stem for p in sorted(FIXTURES.glob("*.glab")))


def fixture_path(name: str) -> str:
    return str(FIXTURES / f"{name}.glab")


def fixture_instance(name: str):
    return build_instance(load_instance(fixture_path(name)))


def fixture_algebra(name: str):
    return fixture_instance(name).algebra


def fixture_workspace(name: str) -> Workspace:
    return Workspace(fixture_instance(name))
