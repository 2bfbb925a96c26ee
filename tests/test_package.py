"""The package namespace: each public name is declared once, in its own module's ``__all__``."""

from __future__ import annotations

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import mercerkit

SRC = str(Path(__file__).resolve().parents[1] / "src")

LIBRARY = ("space", "kernels", "operators", "mercer", "synthesis")


def test_package_exports_the_union_of_the_module_lists():
    modules = [importlib.import_module(f"mercerkit.{name}") for name in LIBRARY]
    declared = [name for module in modules for name in module.__all__]
    assert len(declared) == len(set(declared)), "a name is declared by two modules"
    assert len(mercerkit.__all__) == len(set(mercerkit.__all__))
    assert set(mercerkit.__all__) == set(declared)
    assert {"TOL_SYM", "default_tol_recon"} <= set(mercerkit.__all__)
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


# deleted public names: those no subcommand, acceptance criterion or library function called, the
# support and quotient types, whose sets of atoms are arrays in atom order (a mask, a class id per atom),
# and the evaluations of diagonal blocks, which every stage now reads off the one Gram of its kernel
DELETED = {
    "operators": ("adjoint_embed", "extend_eigenfunction"),
    "mercer": ("pointwise", "tol_recon_of"),
    "kernels": ("spectral_norm", "diagonal_blocks"),
    "space": ("Quotient", "SupportSet"),
}
DELETED_MEMBERS = {"RKHSElement": "norm_sq", "AtomSpace": "dim", "SpectralDecomposition": "positive_indices"}


def test_uncalled_names_are_gone():
    for module, names in DELETED.items():
        for name in names:
            assert not hasattr(importlib.import_module(f"mercerkit.{module}"), name), name
            assert not hasattr(mercerkit, name), name
    for cls, member in DELETED_MEMBERS.items():
        assert not hasattr(getattr(mercerkit, cls), member), f"{cls}.{member}"


# imports the package in a fresh interpreter, where no other test has loaded its modules, and prints what
# that loaded and how the namespace then answers
FRESH = """
import json, sys
import mercerkit
loaded = sorted(name for name in sys.modules if name == "numpy" or name.startswith("mercerkit."))
namespace = {}
exec("from mercerkit import *", namespace)
try:
    mercerkit.no_such_name
except AttributeError as exc:
    missing = str(exc)
print(json.dumps({
    "loaded": loaded,
    "same": mercerkit.gram is mercerkit.kernels.gram,
    "star": sorted(set(mercerkit.__all__) & set(namespace)),
    "names": len(mercerkit.__all__),
    "dir": "__all__" in dir(mercerkit),
    "missing": missing,
    "version": mercerkit.__version__,
}))
"""


def test_import_loads_the_modules_on_first_use():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    child = subprocess.run([sys.executable, "-c", FRESH], env=env, capture_output=True, text=True)
    assert child.stderr == ""
    result = json.loads(child.stdout)
    assert result["loaded"] == []
    assert result["same"] is True
    assert result["names"] == len(mercerkit.__all__) == 51
    assert result["star"] == sorted(mercerkit.__all__)
    assert result["dir"] is True
    assert result["missing"] == "module 'mercerkit' has no attribute 'no_such_name'"
    assert result["version"] == mercerkit.__version__
