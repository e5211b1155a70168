import argparse
import contextlib
import csv
import io
import json
import math
import tempfile
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import framesync.cli as cli
import framesync.config as config
import framesync.states as states
from framesync import (BipartiteFrameState, Generator, RandomSource, WitnessReport,
                       min_joint_cost)
from framesync.cli import COMMANDS, ReportTable, main, render_csv, render_json
from framesync.config import (ALIGN_WORK_CAP, COST_N_CAP, FAMILIES, GENERATOR_DIM_CAP,
                              SETTINGS, SYNC_WORK_CAP, UsageError, cost_from_spec,
                              frame_state_from_spec, ket_from_spec, parse_n_range,
                              resource_from_spec, run_config)

TWO_PI = 2 * math.pi


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_rows(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    return header, [l.split(",") for l in lines[1:]]


# ------------------------------------------------------------- config layer

def test_parse_n_range():
    assert parse_n_range("8..256") == (8, 256)
    for bad in ("8", "a..b", "5..2", "0..4"):
        with pytest.raises(UsageError):
            parse_n_range(bad)


def test_cost_from_spec_variants():
    assert cost_from_spec(None).cq.tolist() == [-2.0]
    assert cost_from_spec("likelihood", 5).qmax == 5
    c = cost_from_spec({"type": "fourier", "cq": [1.0, -0.5, -0.25]})
    assert (c.c0, c.cq.tolist()) == (1.0, [-0.5, -0.25])
    with pytest.raises(UsageError):
        cost_from_spec("likelihood")          # no state context
    with pytest.raises(UsageError):
        cost_from_spec({"type": "nope"})


def test_frame_state_from_spec_families_and_caps():
    s = frame_state_from_spec("flat", 3, None)
    assert s.total == 3
    s = frame_state_from_spec({"family": "single-sector", "N": 2, "level": 1}, None, None)
    np.testing.assert_allclose(s.magnitudes(), [0, 1, 0], atol=0)
    with pytest.raises(UsageError):
        frame_state_from_spec("flat", None, None)       # needs N
    with pytest.raises(UsageError):
        frame_state_from_spec("flat", 100, None, n_cap=64)
    with pytest.raises(UsageError):
        frame_state_from_spec("warbly", 3, None)


def test_frame_state_from_explicit_spec():
    spec = {
        "N": 1,
        "generatorA": [[0, 1], [1, 2]],
        "generatorB": [[0, 2], [1, 1]],
        "sectors": [
            {"n": 0, "e": [0.8, 0.0], "lambdas": [0.6, 0.8]},
            {"n": 1, "e": [0.0, 0.6]},
        ],
    }
    s = frame_state_from_spec(spec, None, None)
    np.testing.assert_allclose(s.magnitudes(), [0.8, 0.6], atol=1e-15)
    assert s.sector(0).tolist() == [0.6, 0.8]
    with pytest.raises(UsageError):
        frame_state_from_spec({"N": 1}, None, None)     # missing fields


def test_ket_from_spec_names_and_dicts():
    psi, gen = ket_from_spec("plus")
    np.testing.assert_allclose(np.abs(psi.amplitudes), [2**-0.5] * 2, atol=1e-15)
    assert gen.dim == 2
    psi, gen = ket_from_spec({"amplitudes": [[0, 0], [1, 0], [0, 0]]})
    assert psi.dim == 3 and gen.levels[-1, 0] == 2
    with pytest.raises(UsageError):
        ket_from_spec({"amplitudes": [[1, 0], [1, 0]]})   # not normalized
    with pytest.raises(UsageError):
        ket_from_spec({"nope": 1})


def test_resource_from_spec_bell_and_raw():
    psi, ga, gb = resource_from_spec(None, None, None)
    np.testing.assert_allclose(np.abs(psi.amplitudes),
                               [2**-0.5, 0, 0, 2**-0.5], atol=1e-15)
    raw = {"amplitudes": [[0, 0], [2**-0.5, 0], [2**-0.5, 0], [0, 0]],
           "generatorA": [[0, 1], [1, 1]], "generatorB": [[0, 1], [1, 1]]}
    psi, ga, gb = resource_from_spec(raw, None, None)
    assert ga.dim == gb.dim == 2
    with pytest.raises(UsageError):
        resource_from_spec({"amplitudes": [[1, 0]]}, None, None)


@pytest.mark.parametrize("key", ["bogus", "config", "n", "json_out", "N-range"])
def test_unknown_config_key_exits_one(capsys, tmp_path, key):
    # file keys are the flag names with "-" -> "_", never RunConfig field names
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 9, key: 1}))
    code, out, err = run(capsys, "cost", "--config", str(path))
    assert code == 1 and out == ""
    assert err == f"frame-sync: error: unknown config key {key!r}\n"


_KIND_SAMPLES = {"int": ("3", 3), "count": (None, 2), "str": ("x", "x"), "bool": (None, True),
                 "spec": ("x", "x")}


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_every_table_setting_is_accepted_by_every_command(tmp_path, command):
    parser = cli.build_parser()
    assert not any(isinstance(a, argparse._SubParsersAction) for a in parser._actions)
    for s in SETTINGS:
        flag_value, file_value = _KIND_SAMPLES[s.kind]
        if s.field is not None:
            argv = [command, "--" + s.key.replace("_", "-")] + ([flag_value] if flag_value else [])
            assert getattr(parser.parse_args(argv), s.field) == file_value
        path = tmp_path / f"{s.key}.json"
        path.write_text(json.dumps({s.key: file_value}))
        cfg = run_config(command, {}, str(path))
        assert cfg.command == command
        if s.field is not None:
            assert getattr(cfg, s.field) == file_value


# The full config echo of each argv, pinned byte for byte so that replayed
# reports stay identical: unset, false and zero values are left out, "grid"
# is on every command, and --out / --json / --config are never echoed.
@pytest.mark.parametrize("argv, echo", [
    (["cost"], '{"command": "cost", "grid": 24}'),
    (["cost", "--N", "5", "--seed", "17", "--oracle"],
     '{"N": 5, "command": "cost", "grid": 24, "oracle": true, "seed": 17}'),
    (["cost", "--config", "run.json", "--N", "3"],
     '{"N": 3, "command": "cost", "grid": 24, "seed": 9, "trials": 300}'),
    (["teleport-demo", "--grid", "4", "--degrees"],
     '{"command": "teleport-demo", "degrees": true, "grid": 4}'),
    (["scaling", "--N-range", "8..10", "--state", "flat", "--cost", "likelihood"],
     '{"N_range": "8..10", "command": "scaling", "cost": "likelihood", "grid": 24, "state": "flat"}'),
    (["align", "--d", "3", "--trials", "40", "--seed", "5"],
     '{"command": "align", "d": 3, "grid": 24, "seed": 5, "trials": 40}'),
    (["cost", "--config", "inline.json"],
     '{"command": "cost", "cost": {"qmax": 4, "type": "likelihood"}, "grid": 24, '
     '"state": {"N": 3, "family": "sine-paper"}}'),
    (["witness", "--psi0", "zero", "--seed", "0", "--out", "w.csv"],
     '{"command": "witness", "grid": 24, "psi0": "zero"}'),
    (["sync-sim", "--N-range", "1..2", "--trials", "200", "--seed", "3", "--config", "off.json"],
     '{"N_range": "1..2", "command": "sync-sim", "grid": 24, "seed": 3, "trials": 200}'),
])
def test_config_echo_is_pinned(capsys, tmp_path, monkeypatch, argv, echo):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(json.dumps({"N": 2, "seed": 9, "trials": 300}))
    (tmp_path / "inline.json").write_text(json.dumps(
        {"state": {"family": "sine-paper", "N": 3}, "cost": {"type": "likelihood", "qmax": 4}}))
    (tmp_path / "off.json").write_text(json.dumps({"oracle": False, "json": False, "seed": 8}))
    code, out, _ = run(capsys, *argv)
    text = out or (tmp_path / "w.csv").read_text()
    assert code == 0
    assert [l for l in text.splitlines() if l.startswith("# config: ")] == [f"# config: {echo}"]


# ------------------------------------------------------------ table render

def test_report_table_row_width_checked():
    t = ReportTable(["a", "b"])
    t.add(1, 2)
    with pytest.raises(AssertionError):
        t.add(1)


def test_render_csv_layout():
    t = ReportTable(["x", "value"], metadata={"command": "demo", "config": {"N": 2}})
    t.notes.append("hello")
    t.add("row", 0.5)
    text = render_csv(t)
    lines = text.splitlines()
    assert lines[0].startswith("# frame-sync ")
    assert lines[1] == "# command: demo"
    assert lines[2] == '# config: {"N": 2}'
    assert lines[3] == "# note: hello"
    assert lines[4] == "x,value"
    assert lines[5] == "row,0.5"


@pytest.mark.parametrize("label", ["a,b.json", "a\nb.json", "a\rb.json", 'q"uote.json',
                                   "plain.json"])
def test_csv_rows_quote_commas_and_line_breaks(capsys, tmp_path, monkeypatch, label):
    monkeypatch.chdir(tmp_path)
    (tmp_path / label).write_text(json.dumps({"family": "flat", "N": 3}))
    code, out, _ = run(capsys, "cost", "--state", label)
    assert code == 0
    body = out[out.index("\nstate,") + 1:]
    header, *rows = csv.reader(io.StringIO(body, newline=""))
    assert len(rows) == 1 and len(rows[0]) == len(header) == 5 and rows[0][0] == label
    assert ('"' in body) is (label != "plain.json")   # other rows stay as they were


def test_render_json_round_trips():
    t = ReportTable(["x"], metadata={"command": "demo"})
    t.add(1.25)
    doc = json.loads(render_json(t))
    assert doc["columns"] == ["x"]
    assert doc["rows"] == [[1.25]]
    assert doc["metadata"]["command"] == "demo"


# ------------------------------------------------------------ cost command

def test_cost_default_is_flat_four(capsys):
    code, out, _ = run(capsys, "cost")
    assert code == 0
    header, rows = data_rows(out)
    assert header == ["state", "N", "cost_type", "min_cost", "frameness"]
    state, n, kind, value, fr = rows[0]
    assert (state, n, kind) == ("flat", "4", "variance")
    assert float(value) == pytest.approx(0.4, abs=1e-12)
    assert float(fr) == pytest.approx(-0.4, abs=1e-12)


def test_cost_oracle_columns(capsys, tmp_path):
    code, out, _ = run(capsys, "cost", "--state", "flat", "--N", "2", "--oracle")
    assert code == 0
    header, rows = data_rows(out)
    assert header[-2:] == ["oracle_cost", "oracle_gap"]
    assert abs(float(rows[0][-1])) <= 1e-12
    # complex amplitudes at N = 2, where a 360-point phase grid stopped 2.4e-5 above the optimum
    spec = tmp_path / "complex.json"
    ladder = [[0, 1], [1, 1], [2, 1]]
    spec.write_text(json.dumps({
        "N": 2, "generatorA": ladder, "generatorB": ladder,
        "sectors": [{"n": 0, "e": [0.3, 0.4]}, {"n": 1, "e": [0.5, -0.1]},
                    {"n": 2, "e": [0.2, 0.6708203932499369]}]}))
    code, out, _ = run(capsys, "cost", "--state", str(spec), "--oracle")
    assert code == 0
    _, rows = data_rows(out)
    assert abs(float(rows[0][-1])) <= 1e-12


def test_cost_oracle_cells_are_plain_numbers(capsys):
    # eigh-derived amplitudes must not leak numpy scalar reprs into the CSV
    code, out, _ = run(capsys, "cost", "--state", "optimal", "--N", "3",
                       "--oracle")
    assert code == 0
    assert "np.float64" not in out
    _, rows = data_rows(out)
    assert abs(float(rows[0][-1])) < 1e-3


@pytest.mark.parametrize("n_tot", ["5", "30"])
def test_cost_oracle_on_a_decoupled_band(capsys, tmp_path, n_tot):
    spec = tmp_path / "even.json"
    spec.write_text(json.dumps({"cq": [0, -1]}))
    code, out, _ = run(capsys, "cost", "--state", "optimal", "--N", n_tot,
                       "--cost", str(spec), "--oracle")
    assert code == 0
    _, rows = data_rows(out)
    assert abs(float(rows[0][-1])) <= 1e-12


def test_cost_oracle_reaches_the_likelihood_optimum_at_n512(capsys):
    # 500 sweeps per restart used to stop 2.6e-4 above the optimum here
    code, out, _ = run(capsys, "cost", "--state", "optimal", "--N", "512",
                       "--cost", "likelihood", "--oracle")
    assert code == 0
    _, rows = data_rows(out)
    assert abs(float(rows[0][-1])) <= 1e-12


def test_cost_likelihood_default_qmax(capsys):
    code, out, _ = run(capsys, "cost", "--state", "flat", "--N", "8",
                       "--cost", "likelihood")
    _, rows = data_rows(out)
    assert float(rows[0][3]) == pytest.approx(-9 / TWO_PI, abs=1e-12)


def test_cost_sine_paper_emits_suboptimality_note(capsys):
    code, out, _ = run(capsys, "cost", "--state", "sine-paper", "--N", "4")
    assert code == 0
    notes = [l for l in out.splitlines() if l.startswith("# note:")]
    assert len(notes) == 1 and "not the minimizer" in notes[0]


def test_cost_from_explicit_spec_file(capsys, tmp_path):
    spec = {
        "N": 1,
        "generatorA": [[0, 1], [1, 2]],
        "generatorB": [[0, 2], [1, 1]],
        "sectors": [
            {"n": 0, "e": [0.8, 0.0], "lambdas": [0.6, 0.8]},
            {"n": 1, "e": [0.0, 0.6]},
        ],
    }
    path = tmp_path / "state.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "cost", "--state", str(path))
    assert code == 0
    _, rows = data_rows(out)
    assert float(rows[0][3]) == pytest.approx(2 - 2 * (0.8 * 0.6), abs=1e-12)


def test_cost_json_output_matches_csv(capsys):
    _, text_csv, _ = run(capsys, "cost", "--N", "3")
    _, text_json, _ = run(capsys, "cost", "--N", "3", "--json")
    doc = json.loads(text_json)
    _, rows = data_rows(text_csv)
    assert doc["rows"][0][3] == float(rows[0][3])
    assert doc["metadata"]["command"] == "cost"


def test_cost_metadata_echo_is_json(capsys):
    _, out, _ = run(capsys, "cost", "--N", "5", "--seed", "17")
    config_lines = [l for l in out.splitlines() if l.startswith("# config: ")]
    echo = json.loads(config_lines[0][len("# config: "):])
    assert echo["N"] == 5 and echo["seed"] == 17


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_json_output_writes_non_finite_floats_as_null(capsys):
    # one N: no slope fit, so every family's slope row is NaN
    code, out, _ = run(capsys, "scaling", "--N-range", "8..8", "--json")
    assert code == 0
    doc = json.loads(out, parse_constant=_reject_constant)
    assert [row[2] for row in doc["rows"] if row[1] == "slope"] == [None] * 3
    _, csv_out, _ = run(capsys, "scaling", "--N-range", "8..8")
    assert [row[2] for row in data_rows(csv_out)[1] if row[1] == "slope"] == ["nan"] * 3
    t = ReportTable(["x"], metadata={"limits": [math.inf, -math.inf]})
    t.add(math.nan)
    doc = json.loads(render_json(t), parse_constant=_reject_constant)
    assert doc["rows"] == [[None]] and doc["metadata"]["limits"] == [None, None]


# ---------------------------------------------------------- other commands

def test_scaling_flat_costs_and_slope(capsys):
    code, out, _ = run(capsys, "scaling", "--N-range", "8..32", "--state", "flat")
    assert code == 0
    _, rows = data_rows(out)
    slope_rows = [r for r in rows if r[1] == "slope"]
    assert len(slope_rows) == 1
    assert -1.1 < float(slope_rows[0][2]) < -0.9
    for family, n, value in rows:
        if n != "slope":
            assert float(value) == pytest.approx(2 / (int(n) + 1), abs=1e-12)


def test_scaling_optimal_approaches_quadratic(capsys):
    code, out, _ = run(capsys, "scaling", "--N-range", "8..64", "--state", "optimal")
    _, rows = data_rows(out)
    slope = float([r for r in rows if r[1] == "slope"][0][2])
    assert -2.05 < slope < -1.7


@pytest.mark.parametrize("state", [{"family": "flat", "N": 3}, ["flat"], 3])
def test_scaling_state_from_a_config_file_must_be_names(capsys, tmp_path, state):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"state": state, "N_range": "8..9"}))
    code, out, err = run(capsys, "scaling", "--config", str(path))
    assert (code, out) == (1, "")
    assert err == ("frame-sync: error: scaling takes comma-separated family names "
                   "(a string) in state\n")


def test_scaling_without_a_family_exits_one(capsys, tmp_path):
    path = tmp_path / "c.json"
    for state in (" , ", ",", ""):
        path.write_text(json.dumps({"state": state}))
        for argv in (["--state", state], ["--config", str(path)]):
            code, out, err = run(capsys, "scaling", "--N-range", "2..3", *argv)
            assert (code, out) == (1, ""), argv
            assert err.startswith("frame-sync: error: scaling needs at least one state family")
            assert len(err.splitlines()) == 1


def _count_eigh(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return calls


@pytest.mark.parametrize("cost", ["variance", "likelihood"])
def test_scaling_named_costs_run_no_eigensolve(capsys, monkeypatch, cost):
    calls = _count_eigh(monkeypatch)
    code, out, _ = run(capsys, "scaling", "--state", "flat,sine-paper,optimal",
                       "--N-range", "496..512", "--cost", cost)
    assert code == 0 and len(data_rows(out)[1]) == 3 * 18
    assert calls == []


def test_scaling_other_bands_solve_once_per_n(capsys, monkeypatch, tmp_path):
    path = tmp_path / "cost.json"
    path.write_text(json.dumps({"type": "likelihood", "qmax": 3}))
    calls = _count_eigh(monkeypatch)
    code, _, _ = run(capsys, "scaling", "--state", "flat,sine-paper,optimal",
                     "--N-range", "496..512", "--cost", str(path))
    assert code == 0
    assert calls == [((n + 2) // 2, (n + 2) // 2) for n in range(496, 513)]


@pytest.mark.parametrize("spec", [
    {"family": "optimal", "N": 12},
    {"N": 1, "generatorA": [[0, 1], [1, 1]], "generatorB": [[0, 1], [1, 1]],
     "sectors": [{"n": 0, "e": 0.6}, {"n": 1, "e": 0.8}]},
])
def test_scaling_state_takes_family_names_only(capsys, tmp_path, spec):
    # a spec path would fix N and print one cost on every row
    path = tmp_path / "s.json"
    path.write_text(json.dumps(spec))
    for state in (str(path), f"flat,{path}"):
        code, out, err = run(capsys, "scaling", "--state", state, "--N-range", "3..5")
        assert (code, out) == (1, "")
        assert err == (f"frame-sync: error: scaling takes family names only, got {str(path)!r}; "
                       "known: flat, sine-paper, optimal, single-sector\n")


_SCALING_COSTS = ["variance", "likelihood", {"type": "likelihood", "qmax": 3},
                  {"type": "fourier", "cq": [1.5, -1.0, -0.5, -0.1]}]


@pytest.mark.parametrize("n_range", ["1..24", "500..512"])
@pytest.mark.parametrize("cost_spec", _SCALING_COSTS)
def test_scaling_rows_match_the_state_reference(capsys, tmp_path, cost_spec, n_range):
    arg = cost_spec
    if isinstance(cost_spec, dict):
        arg = str(tmp_path / "cost.json")
        (tmp_path / "cost.json").write_text(json.dumps(cost_spec))
    code, out, _ = run(capsys, "scaling", "--state", ",".join(FAMILIES),
                       "--N-range", n_range, "--cost", arg)
    lo, hi = parse_n_range(n_range)
    want = [[family, str(n), repr(min_joint_cost(
                frame_state_from_spec(family, n, cost_spec, n_cap=COST_N_CAP).magnitudes(),
                cost_from_spec(cost_spec, n)))]
            for family in FAMILIES for n in range(lo, hi + 1)]
    assert code == 0
    assert data_rows(out)[1][:len(want)] == want   # bit for bit, as repr


def _count_constructions(monkeypatch):
    """Totals of every BipartiteFrameState and number of Generators built."""
    built = {"states": [], "generators": 0}
    state_init, gen_init = BipartiteFrameState.__post_init__, Generator.__post_init__

    def counting_state(self):
        built["states"].append(self.total)
        state_init(self)

    def counting_generator(self):
        built["generators"] += 1
        gen_init(self)

    monkeypatch.setattr(BipartiteFrameState, "__post_init__", counting_state)
    monkeypatch.setattr(Generator, "__post_init__", counting_generator)
    return built


def test_scaling_builds_no_state(capsys, monkeypatch):
    built = _count_constructions(monkeypatch)
    for cost in ("variance", "likelihood"):
        code, out, _ = run(capsys, "scaling", "--N-range", "496..512", "--cost", cost)
        assert code == 0 and len(data_rows(out)[1]) == 3 * 18
    assert built == {"states": [], "generators": 0}
    code, _, _ = run(capsys, "cost", "--state", "optimal", "--N", "8", "--oracle")
    assert code == 0 and built["states"] == [8]
    code, _, _ = run(capsys, "sync-sim", "--N-range", "3..4", "--trials", "200")
    assert code == 0 and built["states"] == [8, 3, 4]
    assert built["generators"] == 3


def test_scaling_refuses_a_profile_off_the_sector_gate(capsys, monkeypatch):
    # scaling builds no state, so the profile itself carries the state's gate
    off = np.full(5, math.sqrt((1.0 + 1e-11) / 5))
    monkeypatch.setattr(states, "_optimal_profile", lambda n, cost: off)
    code, out, err = run(capsys, "scaling", "--state", "optimal", "--N-range", "4..4")
    assert (code, out) == (1, "")
    assert err == "frame-sync: invalid input: sector amplitudes must have unit sum of squares\n"


def test_sync_sim_single_n(capsys):
    code, out, _ = run(capsys, "sync-sim", "--N", "2", "--trials", "500",
                       "--seed", "7")
    assert code == 0
    header, rows = data_rows(out)
    assert header[:4] == ["N", "state", "analytic_min_cost", "mc_mean"]
    row = rows[0]
    assert float(row[2]) == pytest.approx(2 / 3, abs=1e-12)
    assert abs(float(row[5])) < 5.0          # z-score self-check
    assert float(row[6]) < 1e-12             # collapsed-state residual


def test_sync_sim_range_rows(capsys):
    code, out, _ = run(capsys, "sync-sim", "--N-range", "1..3",
                       "--trials", "200", "--seed", "3")
    assert code == 0
    _, rows = data_rows(out)
    assert [r[0] for r in rows] == ["1", "2", "3"]


def test_sync_sim_replays_byte_identical(capsys):
    args = ("sync-sim", "--N", "3", "--trials", "400", "--seed", "11")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_sync_sim_threads_env_does_not_change_rows(capsys, monkeypatch):
    args = ("sync-sim", "--N", "2", "--trials", "300", "--seed", "5")
    _, base, _ = run(capsys, *args)
    monkeypatch.setenv("FRAME_SYNC_THREADS", "3")
    _, threaded, _ = run(capsys, *args)
    assert data_rows(base) == data_rows(threaded)


@pytest.mark.parametrize("value", ["x", 0, -1, 2.5, True])
def test_sync_sim_bad_threads_in_config_file(capsys, tmp_path, value):
    path = tmp_path / "threads.json"
    path.write_text(json.dumps({"threads": value}))
    code, out, err = run(capsys, "sync-sim", "--config", str(path),
                         "--N", "2", "--trials", "200")
    assert code == 1 and out == ""
    assert err.startswith("frame-sync: error:") and "threads" in err
    assert len(err.strip().splitlines()) == 1


def test_sync_sim_threads_in_config_file_still_runs(capsys, tmp_path):
    path = tmp_path / "threads.json"
    path.write_text(json.dumps({"threads": 2}))
    args = ("sync-sim", "--N", "2", "--trials", "200", "--seed", "3")
    code, threaded, _ = run(capsys, *args, "--config", str(path))
    _, base, _ = run(capsys, *args)
    assert code == 0 and data_rows(threaded) == data_rows(base)


@pytest.mark.parametrize("command,key,value", [
    ("cost", "seed", "x"),
    ("cost", "seed", True),
    ("align", "trials", "x"),
    ("cost", "N", 2.5),
    ("teleport-demo", "grid", "x"),
    ("teleport-demo", "grid", 2.5),
    ("align", "d", "3"),
    ("sync-sim", "threads", 1.0),
])
def test_non_integer_config_values_exit_one(capsys, tmp_path, command, key, value):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({key: value}))
    code, out, err = run(capsys, command, "--config", str(path))
    assert code == 1 and out == ""
    assert err.startswith("frame-sync: error:") and f"config {key} " in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("command,key,value", [
    ("scaling", "N_range", 5),
    ("sync-sim", "N_range", ["2..3"]),
    ("cost", "out", 5),
    ("scaling", "out", ["report.csv"]),
])
def test_non_string_config_values_exit_one(capsys, tmp_path, command, key, value):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({key: value}))
    code, out, err = run(capsys, command, "--config", str(path))
    assert code == 1 and out == ""
    assert err.startswith("frame-sync: error:") and f"config {key} must be a string" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command,key,value", [
    ("cost", "oracle", "no"),
    ("cost", "json", "false"),
    ("teleport-demo", "degrees", 1),
    ("cost", "oracle", 0),
    ("cost", "json", [True]),
])
def test_non_boolean_config_values_exit_one(capsys, tmp_path, command, key, value):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({key: value}))
    code, out, err = run(capsys, command, "--config", str(path))
    assert code == 1 and out == ""
    assert err == f"frame-sync: error: config {key} must be true or false, got {value!r}\n"


@pytest.mark.parametrize("doc", ["[1, 2]", "5", "null", '"N"'])
def test_config_file_must_hold_an_object(capsys, tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    code, out, err = run(capsys, "cost", "--config", str(path))
    assert code == 1 and out == ""
    assert err.startswith("frame-sync: error:") and "JSON object" in err


def test_unreadable_config_path_exits_one(capsys, tmp_path):
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe\x00")
    for path in (tmp_path, tmp_path / "binary.json"):
        code, out, err = run(capsys, "cost", "--config", str(path))
        assert code == 1 and out == ""
        assert err.startswith("frame-sync: error: cannot read")
        assert len(err.strip().splitlines()) == 1


def test_sync_sim_range_beyond_the_cap_exits_before_any_trial(capsys, monkeypatch):
    monkeypatch.setattr(cli, "monte_carlo_cost", None)   # any trial would raise
    code, out, err = run(capsys, "sync-sim", "--N-range", "1..65", "--trials", "200")
    assert code == 1 and out == "" and "capped at 64" in err


def test_sync_sim_huge_range_exits_before_listing_it(capsys, monkeypatch):
    monkeypatch.setattr(cli, "monte_carlo_cost", None)   # any trial would raise
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "sync-sim", "--N-range", f"1..{10**12}")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and out == "" and "capped at 64" in err
    assert peak < 1 << 20


@pytest.mark.parametrize("argv", [
    ("--N", "2", "--trials", "1000000000000000"),
    ("--N", "64", "--trials", str(SYNC_WORK_CAP + 1)),
    ("--N-range", "1..2", "--trials", str(SYNC_WORK_CAP // 2 + 1)),
    ("--N-range", "1..64"),   # the default 10 000 trials for each N
])
def test_sync_sim_work_beyond_the_cap_exits_before_any_trial(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "monte_carlo_cost", None)   # any trial would raise
    code, out, err = run(capsys, "sync-sim", *argv)
    assert code == 1 and out == ""
    assert err.startswith("frame-sync: error: sync-sim work") and f"capped at {SYNC_WORK_CAP}" in err
    assert len(err.strip().splitlines()) == 1


def test_sync_sim_work_at_the_cap_is_admitted(capsys, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "monte_carlo_cost",
                        lambda state, cost, trials, rng: seen.append(trials) or (0.0, 0.0))
    code, _, _ = run(capsys, "sync-sim", "--N-range", "1..2", "--trials", str(SYNC_WORK_CAP // 2))
    assert code == 0 and seen == [SYNC_WORK_CAP // 2] * 2


# Wrong-typed config values.  Any `trials` count is drawn: `sync-sim` work is
# capped, so a large count exits 1.  Strings hold no "/" so that an `out`
# value stays inside the temporary directory.
_STRINGS = st.one_of(
    st.text(alphabet=st.characters(exclude_characters="/\\"), max_size=8),
    st.sampled_from(["", "8..12", "1..3", "500..512", "5..2", "0..4", "a..b",
                     "1..2..3", "report.csv", ".", "a\x00b"]))
_CONFIG_VALUES = {
    "N_range": st.one_of(st.none(), _STRINGS, st.integers(), st.lists(st.integers(), max_size=3)),
    "out": st.one_of(st.none(), _STRINGS, st.integers(), st.lists(_STRINGS, max_size=2)),
    "N": st.one_of(st.none(), _STRINGS, st.integers(), st.lists(st.integers(), max_size=3)),
    "trials": st.one_of(st.none(), _STRINGS, st.integers(), st.lists(st.integers(), max_size=3)),
    "seed": st.one_of(st.none(), _STRINGS, st.integers(), st.lists(st.integers(), max_size=3)),
}


@settings(max_examples=40, deadline=None)
@given(command=st.sampled_from(["scaling", "cost", "sync-sim"]),
       config=st.fixed_dictionaries({}, optional=_CONFIG_VALUES))
@example(command="scaling", config={"N_range": 5})
@example(command="cost", config={"out": 5})
def test_config_value_shapes_exit_cleanly(command, config):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        with open("run.json", "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", "run.json"])
        elapsed = time.perf_counter() - start
    assert code in (0, 1, 2), (config, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("frame-sync: ")
        assert len(err.getvalue().strip().splitlines()) == 1
    assert elapsed < 20.0, (config, elapsed)


# Command lines: every flag of SETTINGS omitted or given a drawn value.  A
# drawn `--trials` stays under 2000 or exceeds every work cap, so that no
# example runs a long Monte Carlo or alignment.
_ARGV_VALUES = st.one_of(
    st.integers(-3, 70).map(str), st.integers(max_value=-1).map(str),
    st.integers(2**63, 2**70).map(str), _STRINGS,
    st.sampled_from([*FAMILIES, "variance", "likelihood", "plus", "zero", "one", "bell"]))


def _quick_trials(text):
    try:
        return not 2000 <= int(text) <= SYNC_WORK_CAP
    except ValueError:
        return True


_FLAG_VALUES = {
    s.key: st.booleans() if s.kind == "bool"
    else _ARGV_VALUES.filter(_quick_trials) if s.key == "trials" else _ARGV_VALUES
    for s in SETTINGS if s.field is not None}


@settings(max_examples=40, deadline=None)
@given(command=st.sampled_from(sorted(COMMANDS)),
       flags=st.fixed_dictionaries({}, optional=_FLAG_VALUES))
@example(command="scaling", flags={"state": " , ", "N_range": "1..3"})
@example(command="align", flags={"trials": str(2**63), "d": "64"})
@example(command="teleport-demo", flags={"psi0": "\r0"})
@example(command="sync-sim", flags={"config": "e\nf"})
@example(command="cost", flags={"": "x\ny"})   # argv `cost -- 'x\ny'`: a stray argument
def test_argv_shapes_exit_cleanly(command, flags):
    argv = [command]
    for key, value in flags.items():
        flag = "--" + key.replace("_", "-")
        argv += [flag] if value is True else [] if value is False else [flag, value]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        elapsed = time.perf_counter() - start
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("frame-sync: ")
        assert len(err.getvalue().strip().splitlines()) == 1
    assert elapsed < 20.0, (argv, elapsed)


# Wrong-typed inner fields of spec files: a cost spec, a family state spec, an
# explicit state spec (one sector) and a ket spec.  Integers stay small enough
# for a quick run once accepted: N and qmax are capped, a ket by its size.
_FIELD_VALUES = st.one_of(
    st.none(), st.booleans(), _STRINGS, st.integers(-3, 600), st.integers(),
    st.floats(), st.lists(st.one_of(st.integers(-2, 3), st.floats(), _STRINGS), max_size=3),
    st.dictionaries(_STRINGS, st.integers(), max_size=2))
_LADDER2 = [[0, 1], [1, 1]]

# Generator pairs: any shapes, unsorted or negative eigenvalues, odd and huge
# degeneracies, and many sorted levels from 0 that often make a valid state.
_DEGENERACIES = st.sampled_from([0, -1, 1.5, True, "2", 10**5, 10**12, 2**63])


def _levels(eigs, degs):
    return [[n, d] for n, d in zip(sorted(eigs), degs)]


_GENERATOR_VALUES = st.one_of(
    st.lists(st.lists(st.one_of(st.integers(-3, 60), st.integers(), _DEGENERACIES),
                      min_size=2, max_size=2), max_size=40),
    st.builds(_levels, st.lists(st.integers(-2, 80), unique=True, min_size=1, max_size=80),
              st.lists(st.one_of(st.integers(1, 4), _DEGENERACIES), min_size=80, max_size=80)),
    st.builds(_levels, st.lists(st.integers(2, 80), unique=True, max_size=78).map(
        lambda eigs: [0, 1, *eigs]), st.lists(st.integers(1, 8), min_size=80, max_size=80)))
_MANY_DEGENERATE_LEVELS = [[n, 3] for n in range(12)]


def _field_spec(kind, value):
    if kind == "qmax":
        return ["cost", "--cost"], {"type": "likelihood", "qmax": value}
    if kind == "cq":
        return ["cost", "--cost"], {"type": "fourier", "cq": value}
    if kind in ("N", "level"):
        return ["cost", "--state"], {"family": "single-sector", "N": 3, kind: value}
    if kind == "amplitudes":
        return ["teleport-demo", "--grid", "4", "--state"], {"amplitudes": value}
    if kind == "generator":
        return ["witness", "--psi0"], {"amplitudes": [1.0, 0.0], "generator": value}
    if kind in ("generatorA", "generatorB"):
        # sector 0 pairs Alice's level 1 with Bob's level 0
        argv = ["sync-sim", "--trials", "200", "--state"] if kind == "generatorA" else [
            "witness", "--state"]
        return argv, {"N": 1, "generatorA": _LADDER2, "generatorB": _LADDER2, kind: value,
                      "sectors": [{"n": 0, "e": 1.0}]}
    sector = {"n": 0, "e": 1.0, kind: value}
    if kind in ("n", "e"):
        sector = {"n": 0, "e": 1.0, "lambdas": [1.0], kind: value}
    return ["cost", "--state"], {"N": 1, "generatorA": _LADDER2, "generatorB": _LADDER2,
                                 "sectors": value if kind == "sectors" else [sector]}


@settings(max_examples=90, deadline=None)
@given(kind=st.sampled_from(["qmax", "cq", "N", "level", "n", "e", "lambdas", "sectors",
                             "amplitudes", "generatorA", "generatorB", "generator"]),
       value=st.one_of(_FIELD_VALUES, _GENERATOR_VALUES))
@example(kind="qmax", value="x")
@example(kind="N", value="x")
@example(kind="lambdas", value=["a"])
@example(kind="qmax", value=10**12)
@example(kind="e", value=[1, 10**400])
@example(kind="generatorA", value=[[0, 1], [1, 10**12]])
@example(kind="generatorB", value=[[0, 10**12], [1, 1]])
@example(kind="generatorA", value=_MANY_DEGENERATE_LEVELS)
def test_spec_field_shapes_exit_cleanly(kind, value):
    argv, spec = _field_spec(kind, value)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        with open("spec.json", "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "spec.json"])
        elapsed = time.perf_counter() - start
    assert code in (0, 1, 2), (spec, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("frame-sync: ")
        assert len(err.getvalue().strip().splitlines()) == 1
    assert elapsed < 20.0, (spec, elapsed)


@pytest.mark.parametrize("flag, spec, message", [
    ("--cost", {"type": "likelihood", "qmax": "x"}, "likelihood qmax must be an integer"),
    ("--state", {"family": "flat", "N": "x"}, "state N must be an integer"),
    ("--state", {"N": 1, "generatorA": _LADDER2, "generatorB": _LADDER2,
                 "sectors": [{"n": 0, "e": 1.0, "lambdas": ["a"]}]},
     "sector 0 lambdas must be a list of numbers"),
    # JSON values of the wrong kind are refused, never coerced
    ("--state", {"family": "flat", "N": 4.9}, "state N must be an integer, got 4.9"),
    ("--state", {"family": "flat", "N": True}, "state N must be an integer, got True"),
    ("--state", {"family": "flat", "N": "5"}, "state N must be an integer, got '5'"),
    ("--cost", {"type": "likelihood", "qmax": 2.5}, "likelihood qmax must be an integer"),
    ("--state", {"family": "single-sector", "N": 2, "level": 1.0},
     "single-sector level must be an integer"),
    ("--state", {"N": 1, "generatorA": [[0.5, 1], [1, 1]], "generatorB": _LADDER2,
                 "sectors": [{"n": 0, "e": 1.0}]}, "generatorA eigenvalue must be an integer"),
    ("--state", {"N": 1, "generatorA": _LADDER2, "generatorB": [[0, True], [1, 1]],
                 "sectors": [{"n": 0, "e": 1.0}]}, "generatorB degeneracy must be an integer"),
    ("--state", {"N": 1, "generatorA": _LADDER2, "generatorB": _LADDER2,
                 "sectors": [{"n": 0.0, "e": 1.0}]}, "sector n must be an integer"),
    ("--state", {"N": 1, "generatorA": _LADDER2, "generatorB": _LADDER2,
                 "sectors": [{"n": 0, "e": True}]}, "sector 0 amplitude must be a number"),
    ("--state", {"N": 1, "generatorA": _LADDER2, "generatorB": _LADDER2,
                 "sectors": [{"n": 0, "e": ["1", 0]}]}, "sector 0 amplitude must be a number"),
    ("--state", {"N": 1, "generatorA": _LADDER2, "generatorB": _LADDER2,
                 "sectors": [{"n": 0, "e": 1.0, "lambdas": [True]}]},
     "sector 0 lambdas must be a list of numbers"),
    ("--cost", {"type": "fourier", "cq": [1.0, False]}, "fourier cq must be a list of numbers"),
    ("--cost", {"type": "fourier", "cq": [1.0, "-0.5"]}, "fourier cq must be a list of numbers"),
])
def test_spec_inner_fields_exit_one(capsys, tmp_path, flag, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "cost", flag, str(path))
    assert code == 1 and out == ""
    assert err.startswith("frame-sync: error: ") and message in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv, spec", [
    (["cost", "--state"], {"N": 1, "generatorA": _LADDER2, "generatorB": _LADDER2,
                           "sectors": [{"n": 0, "e": 1e200}]}),
    (["cost", "--state"], {"N": 1, "generatorA": _LADDER2, "generatorB": _LADDER2,
                           "sectors": [{"n": 0, "e": [1.7e308, 1.7e308]}]}),
    (["teleport-demo", "--state"], {"amplitudes": [1e200, 0]}),
    (["witness", "--state"], {"amplitudes": [[0, 1e200], 0, 0, 0],
                              "generatorA": _LADDER2, "generatorB": _LADDER2}),
    (["cost", "--cost"], {"type": "fourier", "cq": [0.0, -1e308, -1e308]}),
    (["sync-sim", "--trials", "200", "--cost"], {"type": "fourier", "cq": [0.0, -1e200]}),
])
def test_huge_spec_values_exit_one_without_a_warning(capsys, tmp_path, argv, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv, str(path))
    assert [str(w.message) for w in seen] == []
    assert code == 1 and out == ""
    assert err.startswith("frame-sync: error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("sectors", [
    [{"n": 0, "e": math.nan}],
    [{"n": 0, "e": math.nan}, {"n": 1, "e": 1.0}],
    [{"n": 0, "e": [0.6, math.nan]}, {"n": 1, "e": 0.8}],
])
def test_nan_sector_amplitudes_exit_one(capsys, tmp_path, sectors):
    # json writes the literal NaN, which json.load reads back as a float nan
    spec = {"N": 1, "generatorA": [[0, 1], [1, 1]], "generatorB": [[0, 1], [1, 1]],
            "sectors": sectors}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(spec))
    assert "NaN" in path.read_text()
    code, out, err = run(capsys, "cost", "--state", str(path))
    assert code == 1 and out == ""
    assert err.startswith(("frame-sync: invalid input: ", "frame-sync: error: "))
    assert len(err.strip().splitlines()) == 1


def _sectors_spec(sectors, gen_b=_LADDER2):
    return {"N": 1, "generatorA": _LADDER2, "generatorB": gen_b, "sectors": sectors}


@pytest.mark.parametrize("spec, stderr", [
    (_sectors_spec([{"n": 0, "e": 1.0}, {"n": 0, "e": 1.0}]),
     "error: invalid state spec: duplicate sector level 0"),
    (_sectors_spec([{"n": 1, "e": 1.0}], gen_b=[[0, 1]]),
     "error: invalid state spec: sector 1 needs level 0 on side A and level 1 on side B"),
    (_sectors_spec([{"n": 0, "e": 1.0, "lambdas": [0.6, 0.8]}]),
     "error: invalid state spec: sector 0: rank 2 exceeds min degeneracy 1"),
    (_sectors_spec([{"n": 0, "e": 1.0, "lambdas": []}]),
     "error: invalid state spec: nonzero amplitude at sector 0 without Schmidt data"),
    (_sectors_spec([{"n": 0, "e": 1.0, "lambdas": [-1.0]}]),
     "error: invalid state spec: sector 0: Schmidt coefficients must be finite and nonnegative"),
    (_sectors_spec([{"n": 0, "e": 1.0, "lambdas": [math.nan]}]),
     "error: invalid state spec: sector 0: Schmidt coefficients must be finite and nonnegative"),
    (_sectors_spec([{"n": 0, "e": 1.0, "lambdas": [0.5]}]),
     "error: invalid state spec: sector 0: Schmidt coefficients must have unit sum of squares"),
    (_sectors_spec([{"n": 0, "e": 0.5}]),
     "error: invalid state spec: sector amplitudes must have unit sum of squares"),
], ids=["duplicate-n", "unpaired", "rank", "lambdas-empty", "lambdas-negative",
        "lambdas-nan", "lambdas-non-unit", "e-non-unit"])
def test_sector_faults_in_a_spec_file_exit_one(capsys, tmp_path, spec, stderr):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "cost", "--state", str(path))
    assert code == 1 and out == ""
    assert err == f"frame-sync: {stderr}\n"


def test_sync_sim_self_check_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(cli, "monte_carlo_cost",
                        lambda *a, **k: (99.0, 1e-6))
    code, out, _ = run(capsys, "sync-sim", "--N", "2", "--trials", "200")
    assert code == 2
    assert any("self-check failed" in l for l in out.splitlines())


def test_sync_sim_gates_the_sector_form_residual(capsys, monkeypatch):
    monkeypatch.setattr(cli, "sector_form_residual", lambda state: 1e-6)
    code, out, _ = run(capsys, "sync-sim", "--N", "2", "--trials", "200")
    assert code == 2
    assert "# note: self-check failed: sector_form_residual 1.000e-06 exceeds 1e-10" in out
    monkeypatch.setattr(cli, "sector_form_residual", lambda state: 1e-10)
    code, out, _ = run(capsys, "sync-sim", "--N", "2", "--trials", "200")
    assert code == 0 and "self-check" not in out


def test_sync_sim_from_degenerate_spec_file(capsys, tmp_path):
    spec = {
        "N": 2,
        "generatorA": [[0, 2], [1, 2], [2, 2]],
        "generatorB": [[0, 2], [1, 2], [2, 2]],
        "sectors": [
            {"n": 0, "e": [0.6, 0.0], "lambdas": [1.0]},
            {"n": 1, "e": [0.0, 0.6], "lambdas": [0.8, 0.6]},
            {"n": 2, "e": [0.529150262212918, 0.0], "lambdas": [1.0]},
        ],
    }
    path = tmp_path / "deg.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "sync-sim", "--state", str(path),
                       "--trials", "300", "--seed", "2")
    assert code == 0
    _, rows = data_rows(out)
    assert float(rows[0][6]) < 1e-12


def _degenerate_spec(levels, deg):
    """Flat sector amplitudes over ``levels`` levels of degeneracy ``deg`` on
    both sides, every sector at full rank with equal Schmidt coefficients."""
    gen = [[n, deg] for n in range(levels)]
    return {"N": levels - 1, "generatorA": gen, "generatorB": gen,
            "sectors": [{"n": n, "e": levels ** -0.5, "lambdas": [deg ** -0.5] * deg}
                        for n in range(levels)]}


@pytest.mark.parametrize("levels", [10, 12])
def test_sync_sim_on_many_degenerate_levels_is_quick(capsys, tmp_path, levels):
    path = tmp_path / "deg.json"
    path.write_text(json.dumps(_degenerate_spec(levels, 3)))
    start = time.perf_counter()
    code, out, err = run(capsys, "sync-sim", "--state", str(path), "--trials", "1000")
    elapsed = time.perf_counter() - start
    assert code == 0, err
    _, rows = data_rows(out)
    assert float(rows[0][6]) < 1e-12
    assert elapsed < 5.0


# Expanding this state would need 10^12 x 2 amplitudes; the generator cap refuses it first.
_HUGE_GENERATORS = {"N": 1, "generatorA": [[0, 1], [1, 10**12]],
                    "generatorB": [[0, 10**12], [1, 1]], "sectors": [{"n": 0, "e": 1.0}]}


@pytest.mark.parametrize("argv, spec, message", [
    (["witness", "--state"], _HUGE_GENERATORS, "generatorA dimension 1000000000001 exceeds"),
    (["cost", "--state"], {**_HUGE_GENERATORS, "generatorA": _LADDER2},
     "generatorB dimension 1000000000001 exceeds"),
    (["cost", "--state"], {"N": 1, "generatorA": [[0, 1], [1, GENERATOR_DIM_CAP]],
                           "generatorB": _LADDER2, "sectors": [{"n": 0, "e": 1.0}]},
     f"generatorA dimension {GENERATOR_DIM_CAP + 1} exceeds the cap of {GENERATOR_DIM_CAP}"),
    (["witness", "--psi0"], {"amplitudes": [1.0, 0.0], "generator": [[0, 1], [1, 10**5]]},
     "generator dimension 100001 exceeds"),
])
def test_spec_generators_over_the_cap_exit_one(capsys, tmp_path, argv, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, *argv, str(path))
    assert code == 1 and out == ""
    assert err.startswith("frame-sync: error: ") and message in err
    assert len(err.strip().splitlines()) == 1


def test_spec_generators_at_the_cap_are_admitted(capsys, tmp_path):
    spec = {"N": 1, "generatorA": [[0, 1], [1, GENERATOR_DIM_CAP - 1]],
            "generatorB": [[0, GENERATOR_DIM_CAP - 1], [1, 1]], "sectors": [{"n": 0, "e": 1.0}]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "sync-sim", "--state", str(path), "--trials", "200")
    assert code == 0
    _, rows = data_rows(out)
    assert float(rows[0][6]) < 1e-12


@pytest.mark.parametrize("argv", [
    ["scaling", "--state", "optimal", "--cost", "c.json", "--N-range", "8..20"],
    ["sync-sim", "--state", "s.json", "--N-range", "1..10", "--cost", "c.json",
     "--trials", "200"],
    ["cost", "--state", "s.json", "--cost", "c.json"],
])
def test_spec_files_are_read_once_per_run(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps({"type": "likelihood", "qmax": 6}))
    (tmp_path / "s.json").write_text(json.dumps({"family": "optimal"}))
    reads = []
    load = config.load_json
    monkeypatch.setattr(config, "load_json", lambda path: (reads.append(path), load(path))[1])
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert sorted(reads) == sorted(a for a in argv if a.endswith(".json"))


def test_teleport_demo_curve_and_average(capsys):
    code, out, _ = run(capsys, "teleport-demo", "--grid", "8")
    assert code == 0
    header, rows = data_rows(out)
    assert header == ["phi", "ui_fidelity", "si_fidelity"]
    for row in rows[:-1]:
        phi = float(row[0])
        assert float(row[1]) == pytest.approx(0.5 + 0.5 * math.cos(phi) ** 2,
                                              abs=1e-12)
        assert float(row[2]) == pytest.approx(1.0, abs=1e-12)
    assert rows[-1][0] == "average"
    assert float(rows[-1][1]) == pytest.approx(0.75, abs=1e-6)


def _population_fidelity(amps, phi):
    """Per-phase teleport fidelity from level populations alone: outcome a
    multiplies the levels below a by exp(i phi d), so F = mean over a of
    P_<a^2 + P_>=a^2 + 2 P_<a P_>=a cos(phi d)."""
    weights = np.abs(amps) ** 2
    d = weights.size
    below = np.concatenate([[0.0], np.cumsum(weights)[:-1]])
    above = 1.0 - below
    return float(np.mean(below ** 2 + above ** 2 + 2 * below * above * math.cos(phi * d)))


@pytest.mark.parametrize("d, grid", [(2, 9), (3, 40), (5, 37), (8, 64)])
def test_teleport_demo_rows_match_per_phase_references(capsys, tmp_path, d, grid):
    gen = np.random.default_rng(d)
    amps = gen.normal(size=d) + 1j * gen.normal(size=d)
    amps /= np.linalg.norm(amps)
    path = tmp_path / "ket.json"
    path.write_text(json.dumps({"amplitudes": [[a.real, a.imag] for a in amps]}))
    code, out, _ = run(capsys, "teleport-demo", "--state", str(path), "--grid", str(grid))
    assert code == 0
    _, rows = data_rows(out)
    assert len(rows) == grid + 1
    for j, (phi, ui, si) in enumerate(rows[:-1]):
        assert float(phi) == TWO_PI * j / grid
        assert abs(float(ui) - _population_fidelity(amps, TWO_PI * j / grid)) <= 1e-12
        assert abs(float(si) - 1.0) <= 1e-12
    assert rows[-1][0] == "average"
    assert float(rows[-1][1]) == sum(float(r[1]) for r in rows[:-1]) / grid


@pytest.mark.parametrize("entries", [1, 4 * 25, 7 * 25])
def test_teleport_demo_rows_do_not_depend_on_the_chunk(capsys, monkeypatch, tmp_path, entries):
    amps = np.arange(1.0, 6.0) + 0.5j
    path = tmp_path / "ket.json"
    path.write_text(json.dumps({"amplitudes": [[a.real, a.imag] for a in amps / np.linalg.norm(amps)]}))
    argv = ("teleport-demo", "--state", str(path), "--grid", "9")
    _, whole, _ = run(capsys, *argv)
    monkeypatch.setattr(cli, "TELEPORT_CHUNK", entries)   # 1, 4 or 7 phases per call
    _, chunked, _ = run(capsys, *argv)
    assert chunked == whole and len(data_rows(chunked)[1]) == 10


def test_teleport_demo_at_the_caps_is_bounded(capsys, tmp_path):
    amps = np.full(64, 1 / 8.0)
    path = tmp_path / "ket.json"
    path.write_text(json.dumps({"amplitudes": amps.tolist()}))
    start = time.perf_counter()
    code, out, _ = run(capsys, "teleport-demo", "--state", str(path), "--grid", "4096")
    assert code == 0 and time.perf_counter() - start < 15.0
    _, rows = data_rows(out)
    assert len(rows) == 4097
    for j in (1, 1000, 4095):
        assert abs(float(rows[j][1]) - _population_fidelity(amps, TWO_PI * j / 4096)) <= 1e-12


def test_teleport_demo_degrees(capsys):
    _, out, _ = run(capsys, "teleport-demo", "--grid", "4", "--degrees")
    _, rows = data_rows(out)
    assert [float(r[0]) for r in rows[:-1]] == [0.0, 90.0, 180.0, 270.0]


def test_teleport_demo_invariant_input(capsys):
    code, out, _ = run(capsys, "teleport-demo", "--state", "zero", "--grid", "6")
    _, rows = data_rows(out)
    assert all(float(r[1]) == pytest.approx(1.0, abs=1e-12) for r in rows[:-1])


def test_teleport_demo_accepts_the_smallest_grid(capsys):
    code, out, _ = run(capsys, "teleport-demo", "--grid", "2")
    assert code == 0 and len(data_rows(out)[1]) == 3


@pytest.mark.parametrize("grid", ["1", "0", "-5", "4097"])
def test_teleport_demo_grid_out_of_range_exits_one(capsys, grid):
    code, out, err = run(capsys, "teleport-demo", "--grid", grid)
    assert code == 1 and out == ""
    assert err.startswith("frame-sync: error:") and "grid" in err


def test_witness_default_report(capsys):
    code, out, _ = run(capsys, "witness")
    assert code == 0
    _, rows = data_rows(out)
    got = dict((r[0], r[1]) for r in rows)
    assert got["level_differences"] == "-1 0 1"
    assert got["l_max"] == "1"
    assert float(got["invariance_residual"]) < 1e-12
    assert float(got["input_ui_norm"]) == pytest.approx(math.sqrt(2), abs=1e-12)


def test_witness_flat_resource_matches_bell(capsys):
    _, bell, _ = run(capsys, "witness")
    _, flat, _ = run(capsys, "witness", "--state", "flat", "--N", "1")
    assert data_rows(bell)[1] == data_rows(flat)[1]


def test_witness_invariant_input(capsys):
    _, out, _ = run(capsys, "witness", "--psi0", "zero")
    _, rows = data_rows(out)
    got = dict((r[0], r[1]) for r in rows)
    assert float(got["input_ui_norm"]) == pytest.approx(0.0, abs=1e-12)


def test_witness_at_the_demo_cap(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "witness", "--psi0", "plus", "--state", "optimal",
                       "--N", "64")
    assert code == 0 and time.perf_counter() - start < 5.0
    got = dict((r[0], r[1]) for r in data_rows(out)[1])
    assert got["l_max"] == "1"
    assert float(got["invariance_residual"]) <= 1e-12


def test_witness_self_check_exit_code(capsys, monkeypatch):
    bogus = WitnessReport((0,), (1.0,), 0, 1.0, 0.0)
    monkeypatch.setattr(cli, "no_go_witness", lambda *a, **k: bogus)
    code, out, _ = run(capsys, "witness")
    assert code == 2


def test_align_exact_rows(capsys):
    code, out, _ = run(capsys, "align", "--d", "3", "--trials", "40", "--seed", "5")
    assert code == 0
    _, rows = data_rows(out)
    assert [r[0] for r in rows] == ["0", "1", "2", "total"]
    assert all(r[2] == "0" for r in rows)
    assert rows[-1][1] == "120"


def test_align_draws_one_stream_per_mismatch(capsys, monkeypatch):
    seen = {}

    def record(group, g, trials, rng):
        assert g not in seen and trials == 5
        seen[g] = (rng, rng.bit_generator.state)
        return np.full(trials, g)
    monkeypatch.setattr(cli, "finite_group_align", record)
    code, out, _ = run(capsys, "align", "--d", "4", "--trials", "5", "--seed", "9")
    assert code == 0 and sorted(seen) == [0, 1, 2, 3]
    assert len({id(rng) for rng, _ in seen.values()}) == 4
    for g, (_, state) in seen.items():
        assert state == RandomSource(9).split(g).generator().bit_generator.state


def test_align_rows_are_unchanged(capsys):
    code, out, _ = run(capsys, "align", "--d", "5", "--trials", "40", "--seed", "5")
    assert code == 0
    _, rows = data_rows(out)
    assert rows == [[str(g), "40", "0"] for g in range(5)] + [["total", "200", "0"]]


def test_align_default_trials_are_admitted_up_to_the_order_cap(capsys, monkeypatch):
    monkeypatch.setattr(cli, "finite_group_align", lambda group, g, trials, rng: np.full(trials, g))
    code, out, _ = run(capsys, "align", "--d", "64")
    assert code == 0
    assert data_rows(out)[1][-1] == ["total", "64000", "0"]


@pytest.mark.parametrize("trials", [ALIGN_WORK_CAP // 64 + 1, 1000000000])
def test_align_work_beyond_the_cap_exits_before_any_attempt(capsys, monkeypatch, trials):
    attempts = []
    monkeypatch.setattr(cli, "finite_group_align", lambda *a: attempts.append(1))
    code, out, err = run(capsys, "align", "--d", "64", "--trials", str(trials))
    assert code == 1 and out == "" and attempts == []
    assert err.startswith("frame-sync: error:") and "capped" in err


def test_align_work_at_the_cap_is_admitted(capsys, monkeypatch):
    assert ALIGN_WORK_CAP % 64 == 0
    monkeypatch.setattr(cli, "finite_group_align", lambda group, g, trials, rng: np.full(trials, g))
    code, out, _ = run(capsys, "align", "--d", "64", "--trials", str(ALIGN_WORK_CAP // 64))
    assert code == 0 and data_rows(out)[1][-1] == ["total", str(ALIGN_WORK_CAP), "0"]


def test_output_file(capsys, tmp_path):
    path = tmp_path / "report.csv"
    code, out, _ = run(capsys, "cost", "--N", "2", "--out", str(path))
    assert code == 0 and out == ""
    text = path.read_text()
    assert text.startswith("# frame-sync ")
    assert "flat,2," in text


def test_output_file_in_missing_directory_exits_one(capsys, tmp_path):
    path = tmp_path / "no-such-dir" / "report.csv"
    code, out, err = run(capsys, "cost", "--N", "2", "--out", str(path))
    assert code == 1 and out == ""
    assert err.startswith("frame-sync: error:") and "report.csv" in err
    assert len(err.strip().splitlines()) == 1


def test_config_file_merge_through_main(capsys, tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"N": 2, "seed": 9}))
    _, out, _ = run(capsys, "cost", "--config", str(path), "--N", "3")
    _, rows = data_rows(out)
    assert rows[0][1] == "3"    # flag wins over file
    echo_line = [l for l in out.splitlines() if l.startswith("# config:")][0]
    assert json.loads(echo_line[len("# config: "):])["seed"] == 9


# ------------------------------------------------------------- exit codes

@pytest.mark.parametrize("argv", [
    ("nonsense",),
    ("cost", "--state", "warbly"),
    ("cost", "--N", "0"),
    ("scaling", "--N-range", "5..2"),
    ("sync-sim", "--N", "65", "--trials", "200"),
    ("sync-sim", "--N", "2", "--trials", "50"),     # below the MC floor
    ("align", "--d", "1"),
    ("witness", "--psi0", "no-such-file.json"),
    ("cost", "--config", "missing.json"),
])
def test_usage_errors_exit_one(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.strip()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "frame-sync" in capsys.readouterr().out
