"""Scale limits shared across the laboratory.

Every exhaustive operation is gated by an explicit bound and raises
ScaleError instead of truncating. The defaults below are sized for
desk-scale instances; callers can widen them per call, and the hard
cap on algebra construction can be raised via the GLAB_MAX_ELEMS
environment variable.
"""

from __future__ import annotations

import os

from .errors import ParseError

DEFAULT_OP_BOUND = 4096         # elementwise scans over a whole group algebra
DEFAULT_CENSUS_BOUND = 256      # full one-sided ideal enumeration
DEFAULT_FROBENIUS_BOUND = 1024  # generating-character search, O(|R|^3)
DEFAULT_MAX_ELEMS = 65536       # hard cap on group-algebra construction
TABLE_LIMIT = 4096              # largest ring materialized as dense tables
AUDIT_LIMIT = 256               # full axiom audit of a ring or group, cubic
# longest instance file read: above the text of the largest literals the
# builders accept, a 256 x 256 table ring and Cayley group (~330 KB each)
INSTANCE_BYTE_LIMIT = 1 << 20

ENV_MAX_ELEMS = "GLAB_MAX_ELEMS"


def max_elements() -> int:
    """Hard cap on constructed algebra size, overridable via GLAB_MAX_ELEMS;
    a value that is not a positive integer raises ParseError."""
    raw = os.environ.get(ENV_MAX_ELEMS)
    if raw is None:
        return DEFAULT_MAX_ELEMS
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ParseError(
            f"{ENV_MAX_ELEMS} must be a positive integer, got {raw!r}")
    return value
