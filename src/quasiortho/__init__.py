"""Quasi-orthogonal geometry of high-dimensional Hilbert spaces.

Haar overlap statistics, random-coding packing of quasi-orthogonal
families, a toy decoherence model with chaotic and integrable
environments, and effective-dimension accounting, with a CLI that runs
and serializes every experiment.
"""

from .rng import *
from .limits import ResourceLimitError
from .states import *
from .overlap import *
from .packing import *
from .decoherence import *
from .effective_dim import *

# a literal, so pyproject.toml's dynamic version is read without importing
__version__ = "0.1.0"

__all__ = ["__version__", "ResourceLimitError"]
__all__ += rng.__all__
__all__ += states.__all__
__all__ += overlap.__all__
__all__ += packing.__all__
__all__ += decoherence.__all__
__all__ += effective_dim.__all__
