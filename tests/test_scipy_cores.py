"""gpbo.scipy_cores: scipy's compiled functions without its subpackage inits.

The import checks run in fresh interpreters, because the pytest process
has long since imported scipy's public modules.
"""

import subprocess
import sys
import types
from pathlib import Path

from importlib.machinery import EXTENSION_SUFFIXES

import pytest
import scipy.special

import gpbo.scipy_cores
from gpbo.scipy_cores import load

SRC = str(Path(__file__).resolve().parents[1] / "src")
SUBPACKAGES = ("scipy.optimize", "scipy.linalg", "scipy.special")


def run_fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports gpbo from this checkout."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys\nsys.path.insert(0, {SRC!r})\n{code}"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_a_run_never_loads_the_scipy_subpackages():
    out = run_fresh(
        f"""
def loaded():
    print([m for m in {SUBPACKAGES!r} if m in sys.modules])

import gpbo
loaded()
import gpbo.cli
loaded()
from gpbo.benchmarks import default_space, make_builtin
best, experiment = gpbo.optimize(
    default_space("quadratic1d"), make_builtin("quadratic1d", {{}}), total_trials=8, seed=0
)
assert len(experiment.trials) == 8
loaded()
"""
    )
    assert out.splitlines() == ["[]"] * 3


def test_import_gpbo_never_imports_scipy():
    out = run_fresh(
        """
import gpbo, gpbo.cli
print(sorted(m.split(".")[-1] for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    )
    assert out.split() == ["['_flapack',", "'_lbfgsb',", "'_special_ufuncs']"]


# (compiled module, the gpbo module that imports from it, its functions)
CORES = [
    ("scipy.optimize._lbfgsb", "gpbo.lbfgsb", ("setulb",)),
    ("scipy.linalg._flapack", "gpbo.gp", ("dpotrf", "dpotrs", "dtrtri")),
    ("scipy.special._special_ufuncs", "gpbo.acquisition", ("erfcx",)),
]
# Where scipy's public code reaches each function.  (When gpbo loads first,
# the private package attributes such as scipy.optimize._lbfgsb are never
# set; scipy's own modules import the cores through sys.modules.)
PUBLIC = {
    "scipy.optimize._lbfgsb": "scipy.optimize._lbfgsb_py._lbfgsb",
    "scipy.linalg._flapack": "scipy.linalg.lapack",
    "scipy.special._special_ufuncs": "scipy.special",
}


@pytest.mark.parametrize("gpbo_first", [True, False], ids=["gpbo-first", "scipy-first"])
def test_each_module_is_loaded_once(gpbo_first):
    """gpbo's functions are the objects scipy's public modules export, and
    each compiled module stays one object whichever side imports first."""
    gpbo_import = "import gpbo, gpbo.gp, gpbo.lbfgsb, gpbo.acquisition"
    scipy_import = "import scipy.optimize, scipy.optimize._lbfgsb_py, scipy.linalg.lapack, scipy.special"
    first, second = (gpbo_import, scipy_import) if gpbo_first else (scipy_import, gpbo_import)
    checks = []
    for name, user, functions in CORES:
        checks.append(f"assert sys.modules[{name!r}] is before[{name!r}]")
        checks += [f"assert {user}.{f} is {PUBLIC[name]}.{f} is before[{name!r}].{f}" for f in functions]
    names = [name for name, *_ in CORES]
    out = run_fresh(
        f"""
import numpy as np
{first}
before = {{name: sys.modules[name] for name in {names!r}}}
{second}
{chr(10).join(checks)}
res = scipy.optimize.minimize(
    lambda x: (float(x @ x), 2 * x), np.array([0.5, -0.3]), jac=True, method="L-BFGS-B",
    bounds=[(-1, 1), (0.1, 1)],
)
print(res.success, np.round(res.x, 6).tolist())
"""
    )
    assert out.split() == ["True", "[0.0,", "0.1]"]


def test_missing_file_falls_back_to_the_public_module(monkeypatch, tmp_path):
    monkeypatch.delitem(sys.modules, "scipy.special._special_ufuncs")
    monkeypatch.setattr(gpbo.scipy_cores, "_package_roots", lambda: [str(tmp_path)])
    ndtr, erfcx = load("scipy.special._special_ufuncs", "scipy.special", "ndtr", "erfcx")
    assert ndtr is scipy.special.ndtr and erfcx is scipy.special.erfcx
    assert "scipy.special._special_ufuncs" not in sys.modules


def test_file_that_fails_to_load_falls_back_to_the_public_module(monkeypatch, tmp_path):
    (tmp_path / "special").mkdir()
    (tmp_path / "special" / f"_special_ufuncs{EXTENSION_SUFFIXES[0]}").write_bytes(b"not a module")
    monkeypatch.delitem(sys.modules, "scipy.special._special_ufuncs")
    monkeypatch.setattr(gpbo.scipy_cores, "_package_roots", lambda: [str(tmp_path)])
    (erfcx,) = load("scipy.special._special_ufuncs", "scipy.special", "erfcx")
    assert erfcx is scipy.special.erfcx
    assert "scipy.special._special_ufuncs" not in sys.modules


def test_imported_module_is_reused_and_a_missing_name_falls_back(monkeypatch):
    imported, marker = types.ModuleType("scipy.special._special_ufuncs"), object()
    imported.ndtr = marker
    monkeypatch.setitem(sys.modules, "scipy.special._special_ufuncs", imported)
    ndtr, erfcx = load("scipy.special._special_ufuncs", "scipy.special", "ndtr", "erfcx")
    assert ndtr is marker and erfcx is scipy.special.erfcx
    assert sys.modules["scipy.special._special_ufuncs"] is imported
