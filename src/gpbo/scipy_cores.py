"""The five compiled scipy functions gpbo calls, loaded without importing scipy.

Each function comes from the compiled module that defines it, loaded from
its own file under the scipy package's directory, which
``importlib.util.find_spec`` finds without running any scipy code.  So
neither scipy's top-level ``__init__`` nor that of ``scipy.optimize``,
``scipy.linalg`` or ``scipy.special`` runs: those cost most of
``import gpbo``'s time and memory.  The objects are the very ones scipy's
public modules export.  A module already imported is taken from
``sys.modules``; a module loaded here is registered there under its real
name, so a later ``import scipy.optimize`` (or ``scipy.linalg``,
``scipy.special``) reuses it instead of loading the file again.  Only the
private attribute on the package (``scipy.optimize._lbfgsb``) is then never
set.  Where a file or a name is missing, or a file fails to load (another
scipy layout), the function comes from the public module instead, the same
object at the old import cost.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES


def _package_roots() -> list[str]:
    """The directories of the scipy package, found without importing it."""
    spec = importlib.util.find_spec("scipy")
    return [] if spec is None else list(spec.submodule_search_locations or [])


def _compiled(name: str):
    """The compiled module ``name`` (``scipy.<sub>.<module>``), from
    ``sys.modules`` or from its file; None when no file is found or the
    file fails to load."""
    if name in sys.modules:
        return sys.modules[name]
    for root in _package_roots():
        for suffix in EXTENSION_SUFFIXES:
            path = os.path.join(root, *name.split(".")[1:]) + suffix
            if os.path.isfile(path):
                try:
                    spec = importlib.util.spec_from_file_location(name, path)
                    module = importlib.util.module_from_spec(spec)
                    spec.loader.exec_module(module)
                except (ImportError, OSError):
                    return None
                sys.modules[name] = module
                return module
    return None


def load(name: str, public: str, *functions: str) -> tuple:
    """``functions`` from the compiled module ``name``, each falling back to
    the public module ``public`` when the file or the name is missing."""
    module = _compiled(name)
    return tuple(
        getattr(module, f) if hasattr(module, f) else getattr(importlib.import_module(public), f)
        for f in functions
    )


(setulb,) = load("scipy.optimize._lbfgsb", "scipy.optimize._lbfgsb", "setulb")
dpotrf, dpotrs, dtrtri = load(
    "scipy.linalg._flapack", "scipy.linalg.lapack", "dpotrf", "dpotrs", "dtrtri"
)
(erfcx,) = load("scipy.special._special_ufuncs", "scipy.special", "erfcx")
