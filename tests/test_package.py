"""The package namespace: each public name is declared once, in its own module's ``__all__``."""

from __future__ import annotations

import importlib
import inspect

import mercerkit

LIBRARY = ("space", "kernels", "operators", "mercer", "synthesis")


def test_package_exports_the_union_of_the_module_lists():
    modules = [importlib.import_module(f"mercerkit.{name}") for name in LIBRARY]
    declared = [name for module in modules for name in module.__all__]
    assert len(declared) == len(set(declared)), "a name is declared by two modules"
    assert len(mercerkit.__all__) == len(set(mercerkit.__all__))
    assert set(mercerkit.__all__) == set(declared)
    assert {"TOL_SYM", "tol_recon_of"} <= set(mercerkit.__all__)
    for module in modules:
        for name in module.__all__:
            value = getattr(mercerkit, name)
            assert value is getattr(module, name)
            if inspect.isclass(value) or inspect.isfunction(value):
                # declared where it is defined, not re-exported from another module
                assert value.__module__ == module.__name__, name


def test_star_import_resolves_every_name():
    namespace: dict = {}
    exec("from mercerkit import *", namespace)
    assert set(mercerkit.__all__) <= set(namespace)


# public names no subcommand, acceptance criterion or library function called; each was deleted
DELETED = {
    "operators": ("adjoint_embed", "extend_eigenfunction"),
    "mercer": ("pointwise",),
    "kernels": ("spectral_norm",),
}
DELETED_MEMBERS = {"RKHSElement": "norm_sq", "Quotient": "class_of", "AtomSpace": "dim"}


def test_uncalled_names_are_gone():
    for module, names in DELETED.items():
        for name in names:
            assert not hasattr(importlib.import_module(f"mercerkit.{module}"), name), name
            assert not hasattr(mercerkit, name), name
    for cls, member in DELETED_MEMBERS.items():
        assert not hasattr(getattr(mercerkit, cls), member), f"{cls}.{member}"
