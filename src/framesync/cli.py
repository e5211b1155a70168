"""frame-sync command line.

Usage: frame-sync <command> [flags], with the command one of cost, scaling,
sync-sim, teleport-demo, witness or align and the flags from config.SETTINGS.
Reports are CSV on stdout (or --out) with a '#'-prefixed metadata block, or
the same content as JSON with --json.  Exit codes: 0 success, 1 usage or
config error, 2 self-check failure (a computed invariant out of tolerance).
Angles cross the boundary in radians unless --degrees is given.
"""
from __future__ import annotations

import argparse
import io
import json
import math
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .config import (ALIGN_WORK_CAP, COST_N_CAP, DEMO_N_CAP, FAMILIES, GRID_CAP,
                     SETTINGS, SYNC_WORK_CAP, RunConfig, UsageError, cost_dict,
                     cost_from_spec, cost_label, frame_state_from_spec, ket_from_spec,
                     parse_n_range, resource_from_spec, run_config, state_dict)
from .core import ContractViolation, RandomSource, fidelity
from .estimation import TWO_PI, brute_force_min_cost, min_joint_cost
from .protocols import (GroupTable, sector_form_residual, fidelity_after_relay,
                        finite_group_align, monte_carlo_cost,
                        no_go_witness, teleport_with_mismatch)
from .states import family_profile

TELEPORT_CHUNK = 1 << 17   # density-matrix entries per teleport_with_mismatch call
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')   # a CSV field holding one of these is quoted


@dataclass
class ReportTable:
    """Rectangular result rows plus a reproducible metadata echo."""

    columns: list
    rows: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    exit_code: int = 0

    def add(self, *values):
        if len(values) != len(self.columns):
            raise AssertionError("row width does not match the columns")
        self.rows.append(list(values))


def _fmt(value) -> str:
    """A CSV field with RFC 4180 minimal quoting, which only text can need; so
    numbers skip the scan that ``csv.writer`` runs on every field."""
    if isinstance(value, float):
        return repr(float(value))   # normalizes numpy scalars to plain repr
    text = str(value)
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES.search(text) else text


def render_csv(table: ReportTable) -> str:
    out = io.StringIO()
    out.write(f"# frame-sync {__version__}\n")
    for key, value in table.metadata.items():
        if isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True)
        out.write(f"# {key}: {value}\n")
    for note in table.notes:
        out.write(f"# note: {note}\n")
    out.write(",".join(table.columns) + "\n")
    for row in table.rows:
        out.write(",".join(_fmt(v) for v in row) + "\n")
    return out.getvalue()


def _strict_json(value):
    """``value`` with every non-finite float as None: JSON (RFC 8259) has no
    NaN or infinity, so such a value is written as null."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _strict_json(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(v) for v in value]
    return value


def render_json(table: ReportTable) -> str:
    doc = {
        "tool": f"frame-sync {__version__}",
        "metadata": table.metadata,
        "notes": table.notes,
        "columns": table.columns,
        "rows": table.rows,
    }
    return json.dumps(_strict_json(doc), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _emit(table: ReportTable, cfg: RunConfig) -> int:
    text = render_json(table) if cfg.json_out else render_csv(table)
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except (OSError, ValueError) as exc:   # ValueError: a NUL in the path
            raise UsageError(
                f"cannot write --out {cfg.out!r}: {getattr(exc, 'strerror', None) or exc}")
    else:
        sys.stdout.write(text)
    return table.exit_code


def _state_label(cfg: RunConfig) -> str:
    if cfg.state is None:
        return "flat"
    if isinstance(cfg.state, str):
        return cfg.state
    return cfg.state.get("family", "custom") if isinstance(cfg.state, dict) else "custom"


def cmd_cost(cfg: RunConfig) -> ReportTable:
    """Optimal joint cost and frameness of a resource state."""
    cost_spec = cost_dict(cfg.cost)
    state = frame_state_from_spec(cfg.state, cfg.n if cfg.n is not None else 4,
                                  cost_spec, n_cap=COST_N_CAP)
    cost = cost_from_spec(cost_spec, state.total)
    value = min_joint_cost(state.magnitudes(), cost)

    columns = ["state", "N", "cost_type", "min_cost", "frameness"]
    if cfg.oracle:
        columns += ["oracle_cost", "oracle_gap"]
    table = ReportTable(columns)

    label = _state_label(cfg)
    row = [label, state.total, cost_label(cost_spec), value, -value]
    if cfg.oracle:
        oracle = brute_force_min_cost(state.amps, cost,
                                      rng=RandomSource(cfg.seed).split(0).generator())
        row += [oracle, oracle - value]
    table.add(*row)

    if label == "sine-paper":
        best = min_joint_cost(family_profile("optimal", state.total, cost), cost)
        if value > best + 1e-12:
            table.notes.append(
                f"sine-paper profile is not the minimizer at N={state.total}: "
                f"cost {value:.6f} exceeds optimal {best:.6f}")
    return table


def cmd_scaling(cfg: RunConfig) -> ReportTable:
    """Cost versus N for one or more state families."""
    lo, hi = parse_n_range(cfg.n_range or "8..256")
    if hi > COST_N_CAP:
        raise UsageError(f"N range capped at {COST_N_CAP}")
    if cfg.state is not None and not isinstance(cfg.state, str):
        raise UsageError("scaling takes comma-separated family names (a string) in state")
    families = "flat,sine-paper,optimal" if cfg.state is None else cfg.state
    family_list = [f.strip() for f in families.split(",") if f.strip()]
    if not family_list:
        raise UsageError(f"scaling needs at least one state family, got {families!r}")
    unknown = [f for f in family_list if f not in FAMILIES]
    if unknown:
        raise UsageError(f"scaling takes family names only, got {unknown[0]!r}; "
                         f"known: {', '.join(FAMILIES)}")

    # a family is its profile: each N resolves the cost once, and no state is built
    cost_spec = cost_dict(cfg.cost)
    ns = range(lo, hi + 1)
    values = [[] for _ in family_list]
    for n in ns:
        cost = cost_from_spec(cost_spec, n)
        for family, column in zip(family_list, values):
            column.append(min_joint_cost(family_profile(family, n, cost), cost))

    table = ReportTable(["family", "N", "min_cost"])
    slopes = []
    for family, column in zip(family_list, values):
        for n, value in zip(ns, column):
            table.add(family, n, value)
        upper = [(n, v) for n, v in zip(ns, column) if n >= (lo + hi) / 2 and v > 0]
        if len(upper) >= 2:
            xs = np.log([n for n, _ in upper])
            ys = np.log([v for _, v in upper])
            slope = float(np.polyfit(xs, ys, 1)[0])
            slopes.append((family, slope))
        else:
            slopes.append((family, float("nan")))
    for family, slope in slopes:
        table.add(family, "slope", slope)
    return table


def cmd_sync_sim(cfg: RunConfig) -> ReportTable:
    """Monte Carlo of the one-way sync protocol vs the optimum."""
    if cfg.n_range:
        lo, hi = parse_n_range(cfg.n_range)
    else:
        lo = hi = cfg.n if cfg.n is not None else 4
    if hi > DEMO_N_CAP:
        raise UsageError(f"sync-sim N capped at {DEMO_N_CAP}")
    n_values = range(lo, hi + 1)
    trials = cfg.trials if cfg.trials is not None else 10000
    if trials * len(n_values) > SYNC_WORK_CAP:
        raise UsageError(f"sync-sim work trials * N values capped at {SYNC_WORK_CAP}, "
                         f"got {trials} * {len(n_values)}")

    table = ReportTable(
        ["N", "state", "analytic_min_cost", "mc_mean", "std_error", "z_score",
         "sector_form_residual"])
    root = RandomSource(cfg.seed)
    worst_z, residuals = 0.0, []
    state_spec, cost_spec = state_dict(cfg.state), cost_dict(cfg.cost)
    for n in n_values:
        state = frame_state_from_spec(state_spec, n, cost_spec)
        cost = cost_from_spec(cost_spec, state.total)
        analytic = min_joint_cost(state.magnitudes(), cost)
        mean, sem = monte_carlo_cost(state, cost, trials, root.split(n))
        z = (mean - analytic) / sem if sem > 0 else 0.0
        worst_z = max(worst_z, abs(z))
        residuals.append(sector_form_residual(state))
        table.add(state.total, _state_label(cfg), analytic, mean, sem, z, residuals[-1])
    if worst_z > 5.0:
        table.notes.append(f"self-check failed: |z| = {worst_z:.2f} exceeds 5")
        table.exit_code = 2
    worst = float(np.max(residuals))
    if not worst <= 1e-10:   # the witness's gate; a NaN fails it
        table.notes.append(f"self-check failed: sector_form_residual {worst:.3e} exceeds 1e-10")
        table.exit_code = 2
    return table


def cmd_teleport_demo(cfg: RunConfig) -> ReportTable:
    """Teleportation fidelity under a frame mismatch."""
    psi, _ = ket_from_spec(cfg.state if cfg.state is not None else cfg.psi0)
    points = cfg.grid
    if not 2 <= points <= GRID_CAP:
        raise UsageError(f"grid must be in 2..{GRID_CAP}")
    table = ReportTable(
        ["phi", "ui_fidelity", "si_fidelity"],
        metadata={"angle_unit": "degrees" if cfg.degrees else "radians"})
    phis = TWO_PI * np.arange(points) / points
    step = max(1, TELEPORT_CHUNK // psi.dim ** 2)
    ui = np.concatenate([
        fidelity(teleport_with_mismatch(psi, phis[start:start + step]), psi)
        for start in range(0, points, step)]).tolist()
    si = fidelity_after_relay(psi.amplitudes, phis).tolist()
    for phi, ui_phi, si_phi in zip(phis.tolist(), ui, si):
        table.add(math.degrees(phi) if cfg.degrees else phi, ui_phi, si_phi)
    table.add("average", sum(ui) / points, 1.0)
    return table


def cmd_witness(cfg: RunConfig) -> ReportTable:
    """Level-difference witness for the classical no-go."""
    psi0, gen_s = ket_from_spec(cfg.psi0)
    resource, gen_a, gen_b = resource_from_spec(cfg.state, cfg.n, cfg.cost)
    if psi0.dim * resource.dim > (DEMO_N_CAP + 1) ** 3:
        raise UsageError("witness problem size is capped; reduce the dimensions")
    report = no_go_witness(psi0, gen_s, resource, gen_a, gen_b)

    table = ReportTable(["quantity", "value"])
    table.add("level_differences", " ".join(str(l) for l in report.levels))
    table.add("weights", " ".join(repr(w) for w in report.weights))
    table.add("l_max", report.l_max)
    table.add("invariance_residual", report.invariance_residual)
    table.add("input_ui_norm", report.input_ui_norm)
    if not report.passes():
        table.notes.append(
            f"self-check failed: top component residual {report.invariance_residual:.3e}")
        table.exit_code = 2
    return table


def cmd_align(cfg: RunConfig) -> ReportTable:
    """Exact alignment for a finite cyclic group."""
    order = cfg.group_order if cfg.group_order is not None else 2
    if not 2 <= order <= DEMO_N_CAP:
        raise UsageError(f"group order must be in 2..{DEMO_N_CAP}")
    trials = cfg.trials if cfg.trials is not None else 1000
    if trials < 1:
        raise UsageError("align needs at least one trial")
    if order * trials > ALIGN_WORK_CAP:
        raise UsageError(f"align work d * trials capped at {ALIGN_WORK_CAP}, "
                         f"got {order} * {trials}")
    group = GroupTable.cyclic(order)
    root = RandomSource(cfg.seed)

    table = ReportTable(["g", "trials", "errors"])
    total_errors = 0
    for g in range(order):
        # one stream per mismatch, all its attempts in one block
        estimates = finite_group_align(group, g, trials, root.split(g).generator())
        errors = int(np.count_nonzero(estimates != g))
        total_errors += errors
        table.add(g, trials, errors)
    table.add("total", order * trials, total_errors)
    if total_errors:
        table.notes.append(f"self-check failed: {total_errors} misidentified trials")
        table.exit_code = 2
    return table


COMMANDS = {
    "cost": cmd_cost,
    "scaling": cmd_scaling,
    "sync-sim": cmd_sync_sim,
    "teleport-demo": cmd_teleport_demo,
    "witness": cmd_witness,
    "align": cmd_align,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        # argparse quotes some arguments raw; escape control characters so
        # that the message stays on one line
        raise UsageError("".join(c if c.isprintable() else c.encode("unicode_escape").decode()
                                 for c in message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="frame-sync",
                     description="Phase-reference synchronization toolkit",
                     epilog="commands:\n" + "\n".join(
                         f"  {name:15}{fn.__doc__}" for name, fn in COMMANDS.items()),
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version",
                        version=f"frame-sync {__version__}")
    parser.add_argument("command", choices=COMMANDS, metavar="command")
    parser.add_argument("--config", help="JSON config file; flags override it")
    for s in SETTINGS:
        if s.field is not None:
            kind = {"int": {"type": int}, "bool": {"action": "store_true"}}.get(s.kind, {})
            parser.add_argument("--" + s.key.replace("_", "-"), dest=s.field, help=s.help, **kind)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = run_config(args.command, vars(args), args.config)
        table = COMMANDS[cfg.command](cfg)
        table.metadata = {"command": cfg.command, "config": cfg.echo(), **table.metadata}
        return _emit(table, cfg)
    except UsageError as exc:
        print(f"frame-sync: error: {exc}", file=sys.stderr)
        return 1
    except ContractViolation as exc:
        print(f"frame-sync: invalid input: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
