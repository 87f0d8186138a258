"""Traced runs: spans around gpbo's module-level entry points.

The tracer replaces module attributes of gpbo with wrappers for the length
of one BO run, records a span per call (name, start, end, enclosing span)
in memory, and restores every attribute afterwards.  Per-layer metrics are
computed from the spans once the run is over, and so is the check that
every fit is at least as likely as gpbo's default hyperparameters, so none
of that work lands inside a span.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import gpbo

from workloads import SOBOL_TRIALS

ALL, CLI = "all", "cli"

# (owner, attribute, span name, workloads that must call it)
TARGETS = (
    ("gpbo.loop", "suggest", "loop.suggest", ALL),
    ("gpbo.loop", "best_result", "loop.best_result", ALL),
    ("gpbo.loop", "fit_gp", "gp.fit", ALL),
    ("gpbo.gp", "minimize", "gp.lbfgs", ALL),
    ("gpbo.loop", "posterior", "gp.posterior", ALL),
    ("gpbo.acquisition", "posterior", "gp.posterior", ALL),
    ("gpbo.loop", "maximize_acquisition", "acqopt.maximize", ALL),
    ("gpbo.acqopt", "ei", "acquisition.ei", ALL),
    ("gpbo.loop", "encode", "space.encode", ALL),
    ("gpbo.loop", "decode", "space.decode", ALL),
    ("gpbo.sobol.SobolEngine", "next", "sobol.next", ALL),
    ("gpbo.external", "subprocess_evaluate", "external.eval", CLI),
    ("gpbo.cli", "run", "cli.run", CLI),
    ("gpbo.cli", "parse_config", "config.parse", CLI),
    ("gpbo.cli", "write_trial_log", "trial_log.write", CLI),
)

# name -> unit, in the order they are reported
LAYER_UNITS = {
    "gp.fit_ms": "ms",
    "gp.fit_calls": "count",
    "gp.lbfgs_runs": "count",
    "gp.mll_evals": "count",
    "gp.lbfgs_converged_ratio": "ratio",
    "gp.fit_at_bound_ratio": "ratio",
    "gp.posterior_ms": "ms",
    "gp.posterior_calls": "count",
    "acqopt.maximize_ms": "ms",
    "acqopt.calls": "count",
    "acqopt.score_calls": "count",
    "acqopt.points_scored": "count",
    "acquisition.ei_ms": "ms",
    "loop.suggest_ms": "ms",
    "loop.suggest_self_ms": "ms",
    "loop.best_result_ms": "ms",
    "loop.gpei_ratio": "ratio",
    "space.encode_calls": "count",
    "space.encode_ms": "ms",
    "space.decode_calls": "count",
    "space.decode_ms": "ms",
    "sobol.next_calls": "count",
    "sobol.points": "count",
    "sobol.next_ms": "ms",
    "external.calls": "count",
    "external.eval_ms": "ms",
    "trial_log.write_ms": "ms",
    "trial_log.bytes": "bytes",
    "config.parse_ms": "ms",
    "cli.run_ms": "ms",
}


class TraceError(RuntimeError):
    """A traced entry point is gone, or a workload never called it."""


def _resolve(owner: str):
    """Import the longest module prefix of a dotted name, then getattr the rest."""
    parts = owner.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
            break
        except ImportError:
            continue
    else:
        raise TraceError(f"{owner} no longer exists")
    for part in parts[cut:]:
        if not hasattr(obj, part):
            raise TraceError(f"{owner} no longer exists")
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Context manager that wraps every target for one BO run."""

    def __init__(self):
        self.spans = []  # (name, start, end, index of the enclosing span or -1)
        self.calls = Counter()  # per "owner.attribute"
        self.lbfgs = []  # (nfev, converged, bounds) per L-BFGS-B run
        self.fits = []  # (X, y, noise_diag, model, bounds) per fit
        self.points = Counter()  # rows returned by sobol.next, scored by ei
        self.log_bytes = 0
        self._stack = []
        self._saved = []

    def __enter__(self):
        try:
            for owner, attr, name, _ in TARGETS:
                obj = _resolve(owner)
                if attr not in vars(obj):
                    raise TraceError(f"{owner}.{attr} no longer exists")
                original = vars(obj)[attr]
                self._saved.append((obj, attr, original))
                setattr(obj, attr, self._wrap(original, f"{owner}.{attr}", name))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        for obj, attr, original in reversed(self._saved):
            setattr(obj, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, original, path: str, name: str):
        spans, stack, calls = self.spans, self._stack, self.calls
        after = {
            "gp.lbfgs": self._after_lbfgs,
            "gp.fit": self._after_fit,
            "acquisition.ei": self._after_ei,
            "sobol.next": self._after_sobol,
            "trial_log.write": self._after_log,
        }.get(name)

        def wrapper(*args, **kwargs):
            calls[path] += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _after_lbfgs(self, args, kwargs, result):
        self.lbfgs.append((int(result.nfev), bool(result.success), kwargs.get("bounds")))

    def _after_fit(self, args, kwargs, model):
        if not self.lbfgs:
            raise TraceError("gpbo.loop.fit_gp returned without an L-BFGS-B run")
        self.fits.append((args[0], args[1], kwargs.get("noise_diag"), model, self.lbfgs[-1][2]))

    def _after_ei(self, args, kwargs, result):
        self.points["ei"] += int(np.size(result))

    def _after_sobol(self, args, kwargs, result):
        self.points["sobol"] += int(result.shape[0])

    def _after_log(self, args, kwargs, result):
        self.log_bytes += Path(args[1]).stat().st_size

    def require_calls(self, kind: str, workload: str) -> None:
        """Every target the workload must use was called at least once."""
        for owner, attr, _, needed in TARGETS:
            if needed in (ALL, kind) and self.calls[f"{owner}.{attr}"] == 0:
                raise TraceError(f"{owner}.{attr} was never called on {workload}")

    def layer_metrics(self, generators: list) -> dict:
        total = defaultdict(float)
        count = Counter()
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            count[name] += 1
            if parent >= 0:
                child[parent] += end - start
        suggest_self = sum(
            (end - start) - child[i]
            for i, (name, start, end, _) in enumerate(self.spans)
            if name == "loop.suggest"
        )
        post_sobol = len(generators) - SOBOL_TRIALS
        ms = {name: 1e3 * t for name, t in total.items()}
        return {
            "gp.fit_ms": ms.get("gp.fit", 0.0),
            "gp.fit_calls": count["gp.fit"],
            "gp.lbfgs_runs": count["gp.lbfgs"],
            "gp.mll_evals": sum(n for n, _, _ in self.lbfgs),
            "gp.lbfgs_converged_ratio": sum(ok for _, ok, _ in self.lbfgs) / len(self.lbfgs),
            "gp.fit_at_bound_ratio": sum(_at_bound(f) for f in self.fits) / len(self.fits),
            "gp.posterior_ms": ms.get("gp.posterior", 0.0),
            "gp.posterior_calls": count["gp.posterior"],
            "acqopt.maximize_ms": ms.get("acqopt.maximize", 0.0),
            "acqopt.calls": count["acqopt.maximize"],
            "acqopt.score_calls": count["acquisition.ei"],
            "acqopt.points_scored": self.points["ei"],
            "acquisition.ei_ms": ms.get("acquisition.ei", 0.0),
            "loop.suggest_ms": ms.get("loop.suggest", 0.0),
            "loop.suggest_self_ms": 1e3 * suggest_self,
            "loop.best_result_ms": ms.get("loop.best_result", 0.0),
            "loop.gpei_ratio": generators.count("GPEI") / post_sobol,
            "space.encode_calls": count["space.encode"],
            "space.encode_ms": ms.get("space.encode", 0.0),
            "space.decode_calls": count["space.decode"],
            "space.decode_ms": ms.get("space.decode", 0.0),
            "sobol.next_calls": count["sobol.next"],
            "sobol.points": self.points["sobol"],
            "sobol.next_ms": ms.get("sobol.next", 0.0),
            "external.calls": count["external.eval"],
            "external.eval_ms": ms.get("external.eval", 0.0),
            "trial_log.write_ms": ms.get("trial_log.write", 0.0),
            "trial_log.bytes": self.log_bytes,
            "config.parse_ms": ms.get("config.parse", 0.0),
            "cli.run_ms": ms.get("cli.run", 0.0),
        }

    def check_fits(self, where: str) -> list[str]:
        """Each fit's mll, recomputed densely, is at least the default's.

        ``gpbo.gp.fit`` starts one restart at ``default_hyperparams`` and
        keeps the best value, so the fitted mll can never be lower.
        """
        failures = []
        for i, (X, y, noise_diag, model, _) in enumerate(self.fits):
            theta = model.theta
            if theta.kernel.family != "matern52":
                failures.append(f"{where}: fit {i} uses kernel {theta.kernel.family!r}")
                continue
            default = gpbo.default_hyperparams(X.shape[1])
            extra = np.zeros(len(y)) if noise_diag is None else np.asarray(noise_diag, float)
            fitted = dense_mll(
                X, y, theta.kernel.lengthscales, theta.kernel.signal_variance,
                theta.noise_variance + model.jitter_used + extra, theta.mean.constant,
            )
            start = dense_mll(
                X, y, default.kernel.lengthscales, default.kernel.signal_variance,
                (default.noise_variance if noise_diag is None else 0.0) + extra,
                default.mean.constant,
            )
            if not fitted >= start - 1e-6 * max(1.0, abs(start)):
                failures.append(f"{where}: fit {i} mll {fitted:.6g} below the default's {start:.6g}")
        return failures


def _at_bound(fit) -> bool:
    """Any fitted log-parameter on an edge of the box L-BFGS-B searched."""
    _, _, noise_diag, model, bounds = fit
    theta = model.theta
    z = list(np.log(theta.kernel.lengthscales)) + [math.log(theta.kernel.signal_variance)]
    if noise_diag is None:
        z.append(math.log(theta.noise_variance))
    z.append(theta.mean.constant)
    if bounds is None or len(bounds) != len(z):
        raise TraceError("gpbo.gp.minimize bounds do not match the fitted hyperparameters")
    return any(
        abs(v - lo) <= 1e-9 * max(1.0, abs(lo)) or abs(v - hi) <= 1e-9 * max(1.0, abs(hi))
        for v, (lo, hi) in zip(z, bounds)
    )


def dense_mll(X, y, lengthscales, signal_variance, noise, mean) -> float:
    """Log marginal likelihood of a Matern-5/2 GP by a dense numpy solve."""
    diff = (X[:, None, :] - X[None, :, :]) / np.asarray(lengthscales)
    r = np.sqrt(np.sum(diff * diff, axis=-1))
    K = signal_variance * (1.0 + math.sqrt(5.0) * r + 5.0 / 3.0 * r * r) * np.exp(-math.sqrt(5.0) * r)
    K = K + np.diag(np.broadcast_to(noise, (len(y),)))
    resid = np.asarray(y, float) - mean
    sign, logdet = np.linalg.slogdet(K)
    if sign <= 0:
        return -math.inf
    return float(-0.5 * resid @ np.linalg.solve(K, resid) - 0.5 * logdet - 0.5 * len(y) * math.log(2 * math.pi))
