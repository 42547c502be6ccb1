"""Evaluation toolkit for polyphonic sound event detection.

Scores detection outputs against ground truth with intersection tolerance
criteria (robust to labelling subjectivity), counts cross-triggers between
classes, and summarizes whole operating-point sweeps as a single
polyphonic sound detection score (PSDS). A collar-based matcher is
included as the conventional baseline for comparison.

The package root exports exactly the names in each module's ``__all__``.
"""

from . import errors, events, io, matching, psdroc, rates
from .errors import *
from .events import *
from .io import *
from .matching import *
from .psdroc import *
from .rates import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += errors.__all__
__all__ += events.__all__
__all__ += io.__all__
__all__ += matching.__all__
__all__ += psdroc.__all__
__all__ += rates.__all__
