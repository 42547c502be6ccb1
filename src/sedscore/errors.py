"""Exception hierarchy for data and input errors.

Everything raised on bad user input derives from :class:`SedScoreError`,
so callers (and the CLI) can catch one type. Programming errors such as
invalid parameter objects raise plain ``ValueError`` instead.
"""

__all__ = [
    "SedScoreError",
    "ValidationError",
    "NonPositiveDuration",
    "NegativeOnset",
    "UnknownFile",
    "EventExceedsFileDuration",
    "UnknownClassLabel",
    "ParseError",
    "MalformedHeader",
    "BadRow",
    "NoOperatingPoints",
    "EmptyClassGroundTruth",
    "ZeroLabelDuration",
    "DegenerateClassCount",
]


class SedScoreError(Exception):
    """Base class for all input-data errors raised by this package."""


class ValidationError(SedScoreError):
    """An event row violates the data model."""


class NonPositiveDuration(ValidationError):
    """Event offset is not strictly greater than its onset."""


class NegativeOnset(ValidationError):
    """Event onset is below zero."""


class UnknownFile(ValidationError):
    """Event references a file id with no duration entry."""


class EventExceedsFileDuration(ValidationError):
    """Event offset lies beyond the end of its file."""


class UnknownClassLabel(ValidationError):
    """Detection carries a label outside the ground-truth class set."""


class ParseError(SedScoreError):
    """A table could not be parsed."""


class MalformedHeader(ParseError):
    """First line of a table is not the expected header."""


class BadRow(ParseError):
    """A data row is structurally invalid."""


class NoOperatingPoints(SedScoreError):
    """A sweep directory contains no detection tables."""


class EmptyClassGroundTruth(SedScoreError):
    """A class has no ground-truth events, so its TP ratio is undefined."""


class ZeroLabelDuration(SedScoreError):
    """Total labelled duration of a class is zero, so its CT rate is undefined."""


class DegenerateClassCount(SedScoreError):
    """Cross-trigger weighting needs at least two classes."""
