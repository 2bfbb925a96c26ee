"""Spectral decomposition of matrix-valued kernels over finite measure spaces.

The pipeline: load an atom space and a kernel, check the kernel axioms,
form the kernel pseudo-metric with its quotient and support, rescale the
measure, diagonalize the discrete kernel operator, and use the resulting
eigenpairs for series reconstruction, frame extraction, and synthesis of
new kernels from scalar frame families.

Each module declares its public names in its own ``__all__``; the package
re-exports exactly those.
"""

from . import kernels, mercer, operators, space, synthesis
from .kernels import *  # noqa: F403
from .mercer import *  # noqa: F403
from .operators import *  # noqa: F403
from .space import *  # noqa: F403
from .synthesis import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*space.__all__, *kernels.__all__, *operators.__all__, *mercer.__all__, *synthesis.__all__]
