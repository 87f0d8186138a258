"""The seven compiled scipy functions gpbo calls, loaded without scipy's subpackages.

Each function comes from the compiled module that defines it, loaded from
its own file under ``scipy.__path__``, so no ``scipy.optimize``,
``scipy.linalg`` or ``scipy.special`` ``__init__`` runs: those three cost
most of ``import gpbo``'s time and memory.  The objects are the very ones
scipy's public modules export.  A module already imported is taken from
``sys.modules``; a module loaded here is registered there under its real
name, so a later ``import scipy.optimize`` (or ``scipy.linalg``,
``scipy.special``) reuses it instead of loading the file again.  Only the
private attribute on the package (``scipy.optimize._lbfgsb``) is then never
set.  Where a file or a name is missing (another scipy layout), the
function comes from the public module instead, the same object at the old
import cost.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES

# The top-level package and its _distributor_init run as they normally do.
import scipy


def _compiled(name: str):
    """The compiled module ``name`` (``scipy.<sub>.<module>``), from
    ``sys.modules`` or from its file; None when no file is found."""
    if name in sys.modules:
        return sys.modules[name]
    for root in scipy.__path__:
        for suffix in EXTENSION_SUFFIXES:
            path = os.path.join(root, *name.split(".")[1:]) + suffix
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(name, path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
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
dpotrf, dpotrs, dtrtri, dtrtrs = load(
    "scipy.linalg._flapack", "scipy.linalg.lapack", "dpotrf", "dpotrs", "dtrtri", "dtrtrs"
)
ndtr, erfcx = load("scipy.special._special_ufuncs", "scipy.special", "ndtr", "erfcx")
