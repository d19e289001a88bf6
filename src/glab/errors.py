"""Shared exception types."""


class GlabError(Exception):
    """Base class for all laboratory errors."""


class ConstructionError(GlabError):
    """A ring, group, or derived object failed its construction-time audit."""


class ScaleError(GlabError):
    """An operation would exceed its configured element bound."""


class ParseError(GlabError):
    """An instance file, a setting or the command line is malformed;
    the message names the line, the setting or the argument."""


class FalsificationError(GlabError):
    """A ring failed a construction audit of an identity that must hold.

    Raised only while a ring's structure is built (radical, residue
    quotient); the laws of the algebra are counted by the law matrix
    instead. The message carries the witness.
    """
