"""Benchmark of the `frame-sync` commands, end to end and per layer.

    python3 -B bench/run.py --workload sync-mc --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from the `src/` directory next to
`bench/`.  A run generates one round of operations from the workload and the
seed (see workloads.py), then repeats whole rounds until `--seconds` have
passed.  One operation is one in-process call of `framesync.cli.main(argv)`
with its report captured, after every `functools.lru_cache` of the package is
cleared, so each operation pays for its caches as a fresh CLI process would.
Every report is checked against values computed apart from the program
(checks.py).

`--trace 0` prints the end-to-end metrics.  Its setup_s is the median of five
cold set-ups, each from a process's start to its first operation: this run's
own, and four fresh interpreters that run this file with `--setup-only` after
the timed rounds.  `--trace 1` runs one untraced round, then traced rounds
for `--seconds` with spans around each module's public functions
(tracing.py), checks that the traced data rows are byte identical to the
untraced ones, and prints the per-layer metrics named in BENCHMARK.json, per
round.
The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""
import time

T0_PERF = time.perf_counter()
T0_BOOT = time.clock_gettime(time.CLOCK_BOOTTIME)

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

import checks
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

# One BLAS thread: with the two Monte Carlo workers of the threads pair the
# load stays within two cores.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# setup_s is the median of this many cold set-ups: the run's own, and the
# others in fresh interpreters started after the timed rounds.
SETUP_SAMPLES = 5

# Per-layer metrics that are not "<span>.calls" or "<span>.self_s".
DERIVED = ("protocols.mc.trials", "protocols.mc.us_per_trial", "trace.overhead_s")


def process_age() -> float:
    """Seconds from this process's start to the first line of this file."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return T0_BOOT - int(fields[19]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return 0.0


def cold_setups(args, count):
    """Set-up times of ``count`` fresh interpreters, each running this file with
    ``--setup-only`` and timed from its own start to where its first operation
    would begin."""
    argv = [sys.executable] + (["-B"] if sys.flags.dont_write_bytecode else []) + [
        os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--setup-only"]
    times = []
    for _ in range(count):
        child = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(child.stdout.split()[-1]))
    return times


def per_layer_units():
    """Name -> unit of each per-layer metric; BENCHMARK.json is the one list of them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def layer_metrics(units, spans, derived):
    """The metrics named in ``units``: "<span>.calls" and "<span>.self_s" from
    ``spans`` (span -> {key: value}), the names in DERIVED from ``derived``."""
    import tracing
    metrics = {}
    for name, unit in units.items():
        span, _, key = name.rpartition(".")
        if name in DERIVED:
            value = derived[name]
        elif span in tracing.SPANS and key in ("calls", "self_s"):
            value = spans.get(span, {}).get(key, 0.0)
        else:
            raise KeyError(f"per-layer metric {name!r} names no span or derived value")
        metrics[name] = (value, unit)
    return metrics


def clear_caches():
    for name, module in list(sys.modules.items()):
        if name == "framesync" or name.startswith("framesync."):
            for obj in list(vars(module).values()):
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


class Tally:
    """Operations attempted and failed, their times, and check problems."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.times = []
        self.problems = []
        self.rows = {}      # op index -> data rows of its first report

    def record(self, index, code, out, err, elapsed):
        op = self.ops[index]
        self.attempted += 1
        self.times.append(elapsed)
        label = " ".join(op["argv"])
        if code != 0:
            self.failed += 1
            print(f"bench: failed ({code}): {label}: {err.strip()}", file=sys.stderr)
            return
        self.problems += [f"{label}: {p}" for p in checks.check(op, out)]
        rows = checks.Report(out).data_text()
        first = self.rows.setdefault(index, rows)
        if rows != first:
            self.problems.append(f"{label}: data rows differ from the first report")
        twin = op.get("same_rows_as")
        if twin is not None and self.rows.get(twin) not in (None, rows):
            self.problems.append(f"{label}: data rows differ from operation {twin}")


def run_op(cli, op):
    clear_caches()
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op["argv"]))
    except Exception as exc:  # a traceback is a failed operation, not a crash
        code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def run_rounds(cli, tally, seconds, max_rounds=None):
    """Whole rounds until ``seconds`` pass; returns (rounds, summed op time)."""
    start = time.perf_counter()
    rounds = 0
    busy = 0.0
    while True:
        for index, op in enumerate(tally.ops):
            code, out, err, elapsed = run_op(cli, op)
            busy += elapsed
            tally.record(index, code, out, err, elapsed)
        rounds += 1
        if rounds == max_rounds or time.perf_counter() - start >= seconds:
            return rounds, busy


def end_to_end(cli, tally, args, setup_s):
    run_rounds(cli, tally, args.seconds)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup_s = statistics.median([setup_s] + cold_setups(args, SETUP_SAMPLES - 1))
    # A round's time is the sum of each operation's median over the rounds,
    # so a slow spell of the host in one round does not move it.
    n = len(tally.ops)
    round_s = sum(statistics.median(tally.times[i::n]) for i in range(n))
    return {
        "ops_per_s": (n / round_s, "ops/s"),
        "op_p50_ms": (statistics.median(tally.times) * 1e3, "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(cli, tally, seconds, trace_path):
    import tracing  # here, so that untraced runs do not pay its imports in setup_s
    units = per_layer_units()
    layer_metrics(units, {}, dict.fromkeys(DERIVED, 0.0))   # every name is known
    _, untraced = run_rounds(cli, tally, 0.0, max_rounds=1)
    tracer = tracing.Tracer()
    installed = tracing.Installed(tracer)
    try:
        rounds, traced = run_rounds(cli, tally, seconds)
    finally:
        installed.remove()
    spans = {name: {key: value / rounds for key, value in totals.items()}
             for name, totals in tracer.spans().items()}
    mc_trials = tracer.mc_trials / rounds
    want_trials = sum(op["trials"] for op in tally.ops if op["command"] == "sync-sim")
    for name, got in (("protocols.sync_trial.calls", spans.get("protocols.sync_trial", {}).get("calls", 0)),
                      ("protocols.mc.trials", mc_trials)):
        if got != want_trials:
            tally.problems.append(f"{name} = {got} per round, expected {want_trials}")
    mc_total = spans.get("protocols.mc", {}).get("total_s", 0.0)
    metrics = layer_metrics(units, spans, {
        "protocols.mc.trials": mc_trials,
        "protocols.mc.us_per_trial": mc_total / mc_trials * 1e6 if mc_trials else 0.0,
        "trace.overhead_s": traced / rounds - untraced,
    })

    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"rounds": rounds,
                   "edges": [{"parent": p, "span": s, "calls": c, "total_s": t, "self_s": o}
                             for (p, s), (c, t, o) in sorted(tracer.edges().items(), key=str)],
                   "metrics": {k: v for k, (v, _) in metrics.items()}}, fh, indent=1)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print the set-up time and stop (used for setup_s)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "framesync", "__init__.py")):
        print(f"bench: no framesync package under {SRC}", file=sys.stderr)
        return 1
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    framesync = importlib.import_module("framesync")
    cli = importlib.import_module("framesync.cli")
    if os.path.dirname(os.path.dirname(os.path.abspath(framesync.__file__))) != SRC:
        print(f"bench: imported framesync from {framesync.__file__}, not {SRC}", file=sys.stderr)
        return 1

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        tally = Tally(workloads.generate(args.workload, args.seed, workdir))
        setup_s = process_age() + (time.perf_counter() - T0_PERF)
        if args.setup_only:
            print(setup_s)
            return 0
        if args.trace:
            trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
            metrics = per_layer(cli, tally, args.seconds, trace_path)
        else:
            metrics = end_to_end(cli, tally, args, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in tally.problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    print(f"bench: {args.workload} seed {args.seed}: {tally.attempted} operations, "
          f"{tally.failed} failed, {len(tally.problems)} check problems", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
