"""The three benchmark workloads as seeded lists of `frame-sync` operations.

A workload is a fixed list of slots.  The seed picks, inside each slot's
narrow band, the total level N (or group order, or grid size), the program's
own `--seed` and any input ket; the make-up of the list, and so the work of a
round, is the same for every seed.  No two operations of a round share a
(command, state, N, cost) input, except the `threads` pair of `sync-mc`,
which differs only in `"threads": 2` read from a `--config` file.

Spec files (input kets, the threads config) are written into ``workdir``;
the program sees only argv and those files.
"""
from __future__ import annotations

import json
import math
import os
import random

TRIALS = 10000

# Bands are narrow where the work of an operation grows fast with N, so that
# a round costs the same for every seed.

# state, cost, N band: small N is per-trial sampling, large N is set-up work.
SYNC_MC = (
    ("flat", "variance", 2, 3),
    ("optimal", "likelihood", 5, 7),
    ("sine-paper", "variance", 10, 13),
    ("sine-paper", "likelihood", 3, 4),
    ("flat", "likelihood", 20, 21),
    ("optimal", "variance", 30, 32),
    ("optimal", "variance", 64, 64),
)
THREADS_PAIR = ("flat", "variance", 44, 46)

FAMILIES = ("flat", "sine-paper", "optimal")
# cost, N range of a sweep over the three families.  Every sweep takes longer
# than every oracle operation below, so the median operation is a sweep, which
# has no seed; an oracle's run time varies with its seed by up to a half.
SCALING = (
    ("variance", 496, 512),
    ("likelihood", 496, 512),
    ("variance", 320, 352),
    ("variance", 200, 256),
    ("likelihood", 200, 256),
)
# state, cost, N band for `cost --oracle`.  The variance-cost bands stay below
# N = 10, where the oracle's gap to the optimum stayed under 1e-6 for every
# seed tried; from N = 16 up it reaches 1e-4 to 8e-4 on some seeds, close to
# the 1e-3 check.
ORACLE = (
    ("sine-paper", "variance", 5, 6),
    ("optimal", "variance", 8, 9),
    ("sine-paper", "likelihood", 8, 9),
    ("optimal", "likelihood", 13, 14),
)

# group order band, trials per element
ALIGN = ((64, 64, 3), (28, 32, 8), (12, 16, 40))
# input ket dimension, grid band.  The grids put four operations below and
# four above `witness --N 22`, the median one, whose numpy-bound run time
# drifts less with the host's speed than the interpreter-bound ones.
TELEPORT = ((2, 240, 300), (5, 440, 450), (6, 400, 404), (8, 256, 260))
# input ket ("plus" or a random 2-level spec) and N of the optimal resource;
# the witness work grows as (N + 1)^6, so N is fixed.
WITNESS = (("plus", 22), ("random", 19))

WORKLOADS = ("sync-mc", "cost-scan", "frames")


def _write(workdir: str, name: str, doc) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _random_ket(rng: random.Random, dim: int) -> list:
    amps = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(dim)]
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    return [a / norm for a in amps]


def _ket_spec(workdir: str, name: str, amps: list) -> str:
    return _write(workdir, name, {"amplitudes": [[a.real, a.imag] for a in amps]})


def _sync_op(state, cost, n, seed, extra=()):
    argv = ["sync-sim", "--state", state, "--cost", cost, "--N", str(n),
            "--trials", str(TRIALS), "--seed", str(seed), *extra]
    return {"command": "sync-sim", "argv": argv, "state": state, "cost": cost,
            "N": n, "trials": TRIALS}


def sync_mc(rng: random.Random, workdir: str) -> list:
    ops = [_sync_op(state, cost, rng.randint(lo, hi), rng.randrange(2**32))
           for state, cost, lo, hi in SYNC_MC]
    state, cost, lo, hi = THREADS_PAIR
    n, seed = rng.randint(lo, hi), rng.randrange(2**32)
    config = _write(workdir, "threads.json", {"threads": 2})
    ops.append(_sync_op(state, cost, n, seed))
    ops.append(dict(_sync_op(state, cost, n, seed, ("--config", config)),
                    same_rows_as=len(ops) - 1))
    return ops


def cost_scan(rng: random.Random, workdir: str) -> list:
    ops = []
    for cost, lo, hi in SCALING:
        ops.append({"command": "scaling", "families": list(FAMILIES), "lo": lo,
                    "hi": hi, "cost": cost,
                    "argv": ["scaling", "--state", ",".join(FAMILIES),
                             "--N-range", f"{lo}..{hi}", "--cost", cost]})
    for state, cost, lo, hi in ORACLE:
        n = rng.randint(lo, hi)
        ops.append({"command": "cost", "state": state, "cost": cost, "N": n,
                    "argv": ["cost", "--state", state, "--cost", cost, "--N", str(n),
                             "--oracle", "--seed", str(rng.randrange(2**32))]})
    return ops


def frames(rng: random.Random, workdir: str) -> list:
    ops = []
    for lo, hi, trials in ALIGN:
        d = rng.randint(lo, hi)
        ops.append({"command": "align", "d": d, "trials": trials,
                    "argv": ["align", "--d", str(d), "--trials", str(trials),
                             "--seed", str(rng.randrange(2**32))]})
    for dim, lo, hi in TELEPORT:
        amps = _random_ket(rng, dim)
        grid = rng.randint(lo, hi)
        path = _ket_spec(workdir, f"teleport-{dim}.json", amps)
        ops.append({"command": "teleport-demo", "amplitudes": amps, "grid": grid,
                    "argv": ["teleport-demo", "--state", path, "--grid", str(grid)]})
    for psi0, n in WITNESS:
        if psi0 == "plus":
            amps, arg = [1 / math.sqrt(2), 1 / math.sqrt(2)], "plus"
        else:
            amps = _random_ket(rng, 2)
            arg = _ket_spec(workdir, f"witness-{n}.json", amps)
        ops.append({"command": "witness", "psi": amps, "state": "optimal", "N": n,
                    "cost": "variance",
                    "argv": ["witness", "--psi0", arg, "--state", "optimal", "--N", str(n)]})
    return ops


def generate(workload: str, seed: int, workdir: str) -> list:
    """The operations of one round of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}/{seed}")
    return {"sync-mc": sync_mc, "cost-scan": cost_scan, "frames": frames}[workload](rng, workdir)
