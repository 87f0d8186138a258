"""Child evaluator for the groupweights-cli workload (standard library only).

Speaks gpbo's external-evaluator protocol: one JSON request on stdin,
``{"parameters": {...}}``, one JSON reply on stdout,
``{"objective": <float>, "sem": <float>}``.

The objective stands in for the validation loss of the weighted-group-pooling
model that the source paper tunes: three group weights ``w_fg``, ``w_rg`` and
``w_ccg``, an integer number of autoencoder ``tiers`` and a learning rate
``lr``.  It is a convex bowl plus seeded Gaussian noise:

    f = BASE + sum_k C_k (w_k - T_k)^2 + COUPLING * w_fg * w_rg
        + TIER_CURV * (tiers - TIER_PEAK)^2 + LR_CURV * (log10(lr) - LOG10_LR_PEAK)^2

The noise is a function of (seed, parameters) alone, so an arm evaluated
twice scores the same and a run replays exactly.  Its standard deviation is
reported as ``sem``, which puts gpbo on its fixed-noise fit path.

To ``--stamps PATH`` the child appends one line ``<start> <end> <probe>``:
two ``time.monotonic()`` readings (a clock shared by every process of the
machine), the first taken as soon as the interpreter runs this file, the
second once the reply is computed, and the seconds ``host_probe`` took in
between.  The benchmark reads ask gaps and the host's speed from them.

Usage: evaluator.py --seed N --stamps PATH   (request on stdin)
"""

import time

_STARTED = time.monotonic()

import argparse  # noqa: E402  (after the start stamp on purpose)
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402

BASE = 0.25
TARGETS = (0.3, 0.55, 0.2)
CURVATURE = (1.0, 2.0, 0.5)
COUPLING = 0.4
TIER_PEAK = 3.4
TIER_CURV = 0.05
LOG10_LR_PEAK = -2.5
LR_CURV = 0.2
NOISE_SD = 0.02

NAMES = ("w_fg", "w_rg", "w_ccg", "tiers", "lr")

PROBE_ROUNDS = 64


def host_probe() -> float:
    """Seconds a fixed piece of interpreter-bound work takes right now.

    The benchmark runs it once per evaluation, in this child and in the
    in-process evaluators alike, and scales its timings by how long it took:
    the host's speed drifts by tens of percent from minute to minute, and
    the probe, which gpbo never runs, drifts with it.
    """
    began = time.perf_counter()
    acc = {}
    for i in range(PROBE_ROUNDS):
        rng = random.Random(i)
        row = sorted(rng.random() for _ in range(64))
        key = hashlib.blake2b(json.dumps(row).encode(), digest_size=8).hexdigest()
        acc[key] = sum(x * x for x in row)
    return time.perf_counter() - began


def noise_free(values: dict) -> float:
    """The objective without noise, at one arm's parameter values."""
    w = [float(values[n]) for n in NAMES[:3]]
    bowl = sum(c * (x - t) ** 2 for c, x, t in zip(CURVATURE, w, TARGETS))
    tiers = TIER_CURV * (float(values["tiers"]) - TIER_PEAK) ** 2
    lr = LR_CURV * (math.log10(float(values["lr"])) - LOG10_LR_PEAK) ** 2
    return BASE + bowl + COUPLING * w[0] * w[1] + tiers + lr


def noise(seed: int, values: dict) -> float:
    """Seeded Gaussian noise that depends only on the seed and the arm."""
    key = json.dumps([seed, [repr(values[n]) for n in NAMES]]).encode()
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "little")).gauss(0.0, NOISE_SD)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--stamps", required=True, help="file to append start/end stamps to")
    args = parser.parse_args()
    values = json.load(sys.stdin)["parameters"]
    reply = {"objective": noise_free(values) + noise(args.seed, values), "sem": NOISE_SD}
    probe = host_probe()
    ended = time.monotonic()
    json.dump(reply, sys.stdout)
    sys.stdout.write("\n")
    with open(args.stamps, "a") as fh:
        fh.write(f"{_STARTED!r} {ended!r} {probe!r}\n")


if __name__ == "__main__":
    main()
