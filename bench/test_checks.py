"""Tests of the benchmark's own checks: each must reject a report with one
value altered, and pass the report the program really wrote.

    python3 -m pytest -q bench/test_checks.py
"""
import contextlib
import io
import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks     # noqa: E402
import run        # noqa: E402
import tracing    # noqa: E402
import workloads  # noqa: E402
from framesync import cli  # noqa: E402


def report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


def alter(text, row, col, value):
    """Replace one cell of data row ``row`` (0-based, after the header)."""
    lines = text.split("\n")
    header = next(i for i, line in enumerate(lines) if line and not line.startswith("#"))
    cells = lines[header + 1 + row].split(",")
    cells[col] = value if isinstance(value, str) else repr(value)
    lines[header + 1 + row] = ",".join(cells)
    return "\n".join(lines)


def cell(text, row, col):
    return checks.Report(text).rows[row][col]


@pytest.fixture(scope="module")
def specs(tmp_path_factory):
    root = tmp_path_factory.mktemp("specs")
    kets = {"teleport": [0.6, 0.48j, 0.64], "witness": [0.8, 0.6j]}
    paths = {}
    for name, amps in kets.items():
        paths[name] = str(root / f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump({"amplitudes": [[complex(a).real, complex(a).imag] for a in amps]}, fh)
    return kets, paths


@pytest.fixture(scope="module")
def cases(specs):
    kets, paths = specs
    ops = {
        "sync": {"command": "sync-sim", "state": "sine-paper", "cost": "likelihood", "N": 3,
                 "argv": ["sync-sim", "--state", "sine-paper", "--cost", "likelihood",
                          "--N", "3", "--trials", "2000", "--seed", "5"]},
        "scaling": {"command": "scaling", "families": list(workloads.FAMILIES), "lo": 100,
                    "hi": 112, "cost": "variance",
                    "argv": ["scaling", "--state", "flat,sine-paper,optimal",
                             "--N-range", "100..112", "--cost", "variance"]},
        "cost": {"command": "cost", "state": "optimal", "cost": "variance", "N": 4,
                 "argv": ["cost", "--state", "optimal", "--cost", "variance", "--N", "4",
                          "--oracle", "--seed", "3"]},
        "teleport": {"command": "teleport-demo", "amplitudes": kets["teleport"], "grid": 12,
                     "argv": ["teleport-demo", "--state", paths["teleport"], "--grid", "12"]},
        "align": {"command": "align", "d": 5, "trials": 3,
                  "argv": ["align", "--d", "5", "--trials", "3", "--seed", "1"]},
        "witness": {"command": "witness", "psi": kets["witness"], "state": "optimal", "N": 4,
                    "cost": "variance",
                    "argv": ["witness", "--psi0", paths["witness"], "--state", "optimal",
                             "--N", "4"]},
    }
    return {name: (op, report(op["argv"])) for name, op in ops.items()}


def test_true_reports_pass(cases):
    for name, (op, text) in cases.items():
        assert checks.check(op, text) == [], name


def _bump(text, row, col, delta):
    return alter(text, row, col, float(cell(text, row, col)) + delta)


def _scale(text, row, col, factor):
    return alter(text, row, col, float(cell(text, row, col)) * factor)


def _sem(text):
    return float(cell(text, 0, 4))


# (case, alteration, fragment the problem list must contain)
ALTERATIONS = [
    ("sync", lambda t: alter(t, 0, 0, "4"), "N 4"),
    ("sync", lambda t: alter(t, 0, 1, "flat"), "state"),
    ("sync", lambda t: _bump(t, 0, 2, 1e-8), "analytic_min_cost"),
    ("sync", lambda t: _bump(t, 0, 3, 6 * _sem(t)), "|z|"),
    ("sync", lambda t: _scale(t, 0, 4, 2.0), "z_score"),
    ("sync", lambda t: alter(t, 0, 4, 0.0), "std_error"),
    ("sync", lambda t: _bump(t, 0, 5, 0.01), "z_score"),
    ("sync", lambda t: alter(t, 0, 6, 1e-9), "sector_form_residual"),
    ("sync", lambda t: t + "4,sine-paper,0.1,0.1,0.1,0.0,0.0\n", "data rows"),
    ("scaling", lambda t: alter(t, 2, 0, "flatter"), "expected (flat, 102)"),
    ("scaling", lambda t: _bump(t, 4, 2, 1e-8), "closed form"),
    ("scaling", lambda t: alter(t, 26 + 5, 2, float(cell(t, 5, 2)) + 1e-6), "above flat"),
    ("scaling", lambda t: alter(t, 26 + 5, 2, float(cell(t, 13 + 5, 2)) + 1e-6),
     "above sine-paper"),
    ("scaling", lambda t: alter(t, 39, 2, -1.5), "flat slope"),
    ("scaling", lambda t: alter(t, 41, 2, -1.5), "optimal slope"),
    ("scaling", lambda t: alter(t, 40, 1, "slop"), "slope row 1"),
    ("cost", lambda t: alter(t, 0, 2, "likelihood"), "labels"),
    ("cost", lambda t: _bump(t, 0, 3, 1e-8), "closed form"),
    ("cost", lambda t: alter(t, 0, 3, checks.joint_cost("flat", 4, "variance") + 1e-6),
     "above flat"),
    ("cost", lambda t: _bump(t, 0, 4, 1e-9), "frameness"),
    ("cost", lambda t: _bump(t, 0, 5, 1e-9), "oracle_cost - min_cost"),
    ("cost", lambda t: alter(alter(t, 0, 5, float(cell(t, 0, 3)) + 2e-3), 0, 6, 2e-3),
     "oracle_gap 0.002 outside"),
    ("cost", lambda t: alter(alter(t, 0, 5, float(cell(t, 0, 3)) - 1e-6), 0, 6, -1e-6),
     "oracle_gap -1e-06 outside"),
    ("teleport", lambda t: _bump(t, 3, 0, 1e-9), "row 3: phi"),
    ("teleport", lambda t: alter(t, 2, 2, 0.99), "row 2: si_fidelity"),
    ("teleport", lambda t: _bump(t, 5, 1, 1e-8), "row 5: ui_fidelity"),
    ("teleport", lambda t: alter(t, 0, 1, 0.999), "at phi = 0"),
    ("teleport", lambda t: _bump(t, 12, 1, 1e-8), "average row"),
    ("align", lambda t: alter(t, 2, 2, "1"), "row 2"),
    ("align", lambda t: alter(t, 1, 1, "4"), "row 1"),
    ("align", lambda t: alter(t, 5, 1, "16"), "total row"),
    ("witness", lambda t: alter(t, 0, 1, "-4 -3 -2 -1 0 2"), "level_differences"),
    ("witness", lambda t: alter(t, 1, 1, " ".join(
        repr(float(w) + (1e-6 if i == 0 else 0.0))
        for i, w in enumerate(cell(t, 1, 1).split()))), "weights differ"),
    ("witness", lambda t: alter(t, 1, 1, " ".join(
        repr(float(w) * 1.001) for w in cell(t, 1, 1).split())), "weights sum"),
    ("witness", lambda t: alter(t, 2, 1, "2"), "l_max"),
    ("witness", lambda t: alter(t, 3, 1, 1e-9), "invariance_residual"),
    ("witness", lambda t: _bump(t, 4, 1, 1e-6), "input_ui_norm"),
]


@pytest.mark.parametrize("name,mutate,fragment", ALTERATIONS,
                         ids=[f"{c}-{f}" for c, _, f in ALTERATIONS])
def test_one_altered_value_is_rejected(cases, name, mutate, fragment):
    op, text = cases[name]
    altered = mutate(text)
    assert altered != text
    problems = checks.check(op, altered)
    assert any(fragment in p for p in problems), problems


def test_closed_forms_match_their_definitions():
    for n in (1, 2, 7, 40):
        for state in ("flat", "sine-paper", "optimal"):
            e = checks.profile(state, n, "variance")
            assert math.isclose(sum(x * x for x in e), 1.0, rel_tol=1e-12)
            direct = 2.0 - 2.0 * sum(e[k] * e[k + 1] for k in range(n))
            assert math.isclose(checks.joint_cost(state, n, "variance"), direct, rel_tol=1e-10)
            e = checks.profile(state, n, "likelihood")
            pairs = sum(e[k] * e[k + q] for q in range(1, n + 1) for k in range(n + 1 - q))
            direct = -1.0 / (2 * math.pi) - pairs / math.pi
            assert math.isclose(checks.joint_cost(state, n, "likelihood"), direct, rel_tol=1e-10)


def test_tally_rejects_rows_that_do_not_replay(cases):
    op, text = cases["sync"]
    twin = dict(op, same_rows_as=0)
    tally = run.Tally([op, twin])
    tally.record(0, 0, text, "", 0.1)
    tally.record(1, 0, text, "", 0.1)
    assert tally.problems == []
    changed = alter(text, 0, 3, float(cell(text, 0, 3)) + 1e-15)
    tally.record(1, 0, changed, "", 0.1)
    tally.record(0, 0, changed, "", 0.1)
    assert any("operation 0" in p for p in tally.problems)
    assert any("first report" in p for p in tally.problems)
    tally.record(0, 1, "", "frame-sync: error", 0.1)
    assert (tally.attempted, tally.failed) == (5, 1)


def test_workloads_are_seeded_and_distinct(tmp_path):
    for workload in workloads.WORKLOADS:
        a = workloads.generate(workload, 7, str(tmp_path))
        b = workloads.generate(workload, 7, str(tmp_path))
        assert a == b
        keys = [(op["command"], op.get("state"), op.get("N"), op.get("lo"), op.get("d"),
                 op.get("cost"), len(op.get("amplitudes", ())))
                for op in a if "same_rows_as" not in op]
        assert len(keys) == len(set(keys)), workload


def test_tracer_reaches_from_imports_and_counts_trials():
    tracer = tracing.Tracer()
    installed = tracing.Installed(tracer)
    try:
        # rebound in the module that defines it and in the one that imported it
        assert cli.min_joint_cost is sys.modules["framesync.estimation"].min_joint_cost
        assert hasattr(cli.min_joint_cost, "__wrapped__")
        report(["sync-sim", "--N", "3", "--trials", "300", "--seed", "2"])
    finally:
        installed.remove()
    assert not hasattr(cli.min_joint_cost, "__wrapped__")
    spans = tracer.spans()
    assert spans["protocols.sync_trial"]["calls"] == 300
    assert tracer.mc_trials == 300
    assert spans["core.rng"]["calls"] >= 600
    assert spans["estimation.min_joint_cost"]["calls"] == 1
    assert spans["states.validate"]["calls"] >= 1


def test_every_per_layer_metric_has_a_measurement():
    units = run.per_layer_units()
    metrics = run.layer_metrics(units, {"core.rng": {"calls": 3, "self_s": 0.5}},
                                dict.fromkeys(run.DERIVED, 1.0))
    assert set(metrics) == set(units)
    assert metrics["core.rng.calls"] == (3, "count")
    with pytest.raises(KeyError):
        run.layer_metrics({"core.rgn.calls": "count"}, {}, {})
