"""Compare the GP-EI loop against random search on the built-in benchmarks.

Runs both strategies with the same evaluation budget over a block of
seeds and prints per-benchmark summaries.  Useful as a smoke test that
the surrogate is actually earning its keep.

Usage:
    python scripts/compare_baselines.py [--seeds 10] [--trials 20]
"""

from __future__ import annotations

import argparse

import numpy as np

from gpbo import optimize
from gpbo.benchmarks import BUILTIN_NAMES, default_space, make_builtin
from gpbo.space import decode

BENCH_PARAMS = {
    "quadratic1d": {},
    "branin2d": {},
    "groupweights3d": {"noise_sd": 0.01},
    "hartmann6": {},
}


def random_search_best(evaluator, space, budget: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    best = np.inf
    for i in range(budget):
        arm = decode(rng.random(space.d), space, name=f"rs_{i}")
        best = min(best, evaluator(arm).objective)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10, help="number of paired seeds")
    parser.add_argument("--trials", type=int, default=20, help="evaluation budget per run")
    args = parser.parse_args()

    print(f"{'benchmark':<16} {'bo median':>12} {'rs median':>12} {'bo wins':>8}")
    for name in BUILTIN_NAMES:
        space = default_space(name)
        bo_best, rs_best = [], []
        for seed in range(args.seeds):
            evaluator = make_builtin(name, BENCH_PARAMS[name])
            best, _ = optimize(space, evaluator, total_trials=args.trials, seed=seed)
            bo_best.append(best.observed_objective)
            rs_best.append(random_search_best(evaluator, space, args.trials, seed))
        wins = sum(b < r for b, r in zip(bo_best, rs_best))
        print(
            f"{name:<16} {np.median(bo_best):>12.5f} {np.median(rs_best):>12.5f} "
            f"{wins:>5}/{args.seeds}"
        )


if __name__ == "__main__":
    main()
