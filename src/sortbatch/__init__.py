"""Look-ahead partial-sort batching for variable-length paired corpora.

A buffered loader (batch size m, look-ahead k) sorts m*k pairs at a time by
length before chunking, trading padding waste against batch stochasticity.
This package provides the loader, two reference policies (shuffled chunking
and whole-epoch sorting), synthetic corpus generation, padding-cost
accounting, and i.i.d.-violation diagnostics. The CLI and its sweep-level
API live in sortbatch.cli, which this package does not import.
"""

from . import batcher, corpus, cost, diagnostics
from .batcher import *
from .corpus import *
from .cost import *
from .diagnostics import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += batcher.__all__
__all__ += corpus.__all__
__all__ += cost.__all__
__all__ += diagnostics.__all__
