"""Spectral decomposition of matrix-valued kernels over finite measure spaces.

The pipeline: load an atom space and a kernel, check the kernel axioms,
form the kernel pseudo-metric with its quotient and support, rescale the
measure, diagonalize the discrete kernel operator, and use the resulting
eigenpairs for series reconstruction, frame extraction, and synthesis of
new kernels from scalar frame families.

Each module declares its public names in its own ``__all__``; the package
re-exports exactly those.  ``import mercerkit`` loads neither numpy nor a
module: the first access of a public name, of ``__all__`` or of a module
(PEP 562 ``__getattr__``) imports the five library modules and binds them
all, so ``python -m mercerkit.cli`` compiles only what its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

_LIBRARY = ("space", "kernels", "operators", "mercer", "synthesis")


def _load() -> None:
    """Import the library modules and bind each one's public names here."""
    names: list[str] = []
    for short in _LIBRARY:
        module = importlib.import_module(f"{__name__}.{short}")
        globals().update((name, getattr(module, name)) for name in module.__all__)
        names += module.__all__
    globals()["__all__"] = names


def __getattr__(name: str):
    if "__all__" not in globals():
        _load()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    if "__all__" not in globals():
        _load()
    return sorted(globals())
