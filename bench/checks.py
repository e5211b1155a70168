"""Independent checks of `frame-sync` reports.

Every expected value here is computed from the inputs the benchmark generated,
with plain `math`, and never through `framesync`: closed forms of the joint
cost, the sine profile summed term by term, the teleportation fidelity under a
mismatch, the witness level weights.  A check returns a list of problems; an
empty list means the report is right.

The closed forms used:

* variance cost 2 - 2 cos(phi): flat state 2 / (N + 1); optimal state
  2 - 2 cos(pi / (N + 2)), the top eigenvalue of the path graph on N + 1 nodes;
* likelihood cost truncated at q_max = N: flat state -(1 + N) / (2 pi).  The
  optimal state for it is the flat one, since sum_{q>=1} sum_n e_n e_{n+q} is
  ((sum_n e_n)^2 - 1) / 2, largest for the uniform profile;
* sine-paper state: e_n = sin(pi (n + 1/2) / (N + 1)) sqrt(2 / (N + 1)),
  summed directly.
"""
from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi

COST_TOL = 1e-10          # closed forms against the report, relative to max(1, |v|)
RESIDUAL_TOL = 1e-10      # sector_form_residual and invariance_residual
ORACLE_GAP_MAX = 1e-3     # no covariant seed beats the joint optimum by more
Z_MAX = 5.0               # Monte Carlo mean against the closed form
SLOPES = {"optimal": (-2.1, -1.9), "flat": (-1.1, -0.9)}   # variance cost only


# ------------------------------------------------------------ report parsing

class Report:
    """A CSV report split into header and data rows (as strings)."""

    def __init__(self, text: str):
        lines = [line for line in text.splitlines() if line and not line.startswith("#")]
        self.header = lines[0].split(",") if lines else []
        self.rows = [line.split(",") for line in lines[1:]]

    def data_text(self) -> str:
        """The header and data rows, which replay byte for byte."""
        return "\n".join([",".join(self.header)] + [",".join(r) for r in self.rows])


def _close(got: float, want: float, tol: float = COST_TOL) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


# ----------------------------------------------------------- closed forms

def sine_profile(n: int) -> list:
    return [math.sin(math.pi * (k + 0.5) / (n + 1)) * math.sqrt(2.0 / (n + 1))
            for k in range(n + 1)]


def optimal_variance_profile(n: int) -> list:
    raw = [math.sin(math.pi * (k + 1) / (n + 2)) for k in range(n + 1)]
    norm = math.sqrt(sum(x * x for x in raw))
    return [x / norm for x in raw]


def profile(state: str, n: int, cost: str) -> list:
    """Sector magnitudes |e_n| of a named family."""
    if state == "flat" or (state == "optimal" and cost == "likelihood"):
        return [1.0 / math.sqrt(n + 1)] * (n + 1)
    if state == "sine-paper":
        return sine_profile(n)
    if state == "optimal":
        return optimal_variance_profile(n)
    raise ValueError(f"no closed form for state {state!r}")


def joint_cost(state: str, n: int, cost: str) -> float:
    """Minimum joint cost of a named family at total level n."""
    if cost == "variance":
        if state == "flat":
            return 2.0 / (n + 1)
        if state == "optimal":
            return 2.0 - 2.0 * math.cos(math.pi / (n + 2))
        e = sine_profile(n)
        return 2.0 - 2.0 * sum(e[k] * e[k + 1] for k in range(n))
    if cost == "likelihood":
        if state in ("flat", "optimal"):
            return -(1.0 + n) / TWO_PI
        e = sine_profile(n)
        pairs = (sum(e) ** 2 - sum(x * x for x in e)) / 2.0
        return -1.0 / TWO_PI - pairs / math.pi
    raise ValueError(f"no closed form for cost {cost!r}")


# ------------------------------------------------------------ per command

def _shape(report: Report, header: list, n_rows: int) -> list:
    problems = []
    if report.header != header:
        problems.append(f"header {report.header} != {header}")
    if len(report.rows) != n_rows:
        problems.append(f"{len(report.rows)} data rows, expected {n_rows}")
    return problems


def check_sync_sim(op: dict, report: Report) -> list:
    header = ["N", "state", "analytic_min_cost", "mc_mean", "std_error", "z_score",
              "sector_form_residual"]
    problems = _shape(report, header, 1)
    if problems:
        return problems
    n_col, state, analytic, mean, sem, z, residual = report.rows[0]
    n, want = op["N"], joint_cost(op["state"], op["N"], op["cost"])
    analytic, mean, sem, z, residual = map(float, (analytic, mean, sem, z, residual))
    if int(n_col) != n:
        problems.append(f"N {n_col} != {n}")
    if state != op["state"]:
        problems.append(f"state {state!r} != {op['state']!r}")
    if not _close(analytic, want):
        problems.append(f"analytic_min_cost {analytic!r} != closed form {want!r}")
    if not sem > 0.0:
        problems.append(f"std_error {sem!r} is not positive")
        return problems
    own_z = (mean - want) / sem
    if abs(own_z) > Z_MAX:
        problems.append(f"|z| = {abs(own_z):.3f} > {Z_MAX} against the closed form")
    if abs(z - own_z) > 1e-6:
        problems.append(f"z_score {z!r} != (mc_mean - closed form) / std_error = {own_z!r}")
    if not 0.0 <= residual <= RESIDUAL_TOL:
        problems.append(f"sector_form_residual {residual!r} outside [0, {RESIDUAL_TOL}]")
    return problems


def check_scaling(op: dict, report: Report) -> list:
    families, lo, hi, cost = op["families"], op["lo"], op["hi"], op["cost"]
    span = hi - lo + 1
    problems = _shape(report, ["family", "N", "min_cost"], len(families) * (span + 1))
    if problems:
        return problems
    values = {}
    for i, family in enumerate(families):
        for j in range(span):
            fam, n_col, value = report.rows[i * span + j]
            n = lo + j
            if fam != family or n_col != str(n):
                problems.append(f"row {i * span + j} is ({fam}, {n_col}), expected ({family}, {n})")
                continue
            value = float(value)
            values[family, n] = value
            want = joint_cost(family, n, cost)
            if not _close(value, want):
                problems.append(f"{family} N={n}: min_cost {value!r} != closed form {want!r}")
    for n in range(lo, hi + 1):
        best = values.get(("optimal", n))
        for other in ("flat", "sine-paper"):
            if best is not None and (other, n) in values and best > values[other, n] + 1e-12:
                problems.append(f"N={n}: optimal {best!r} above {other} {values[other, n]!r}")
    for i, family in enumerate(families):
        fam, label, slope = report.rows[len(families) * span + i]
        if fam != family or label != "slope":
            problems.append(f"slope row {i} is ({fam}, {label}), expected ({family}, slope)")
            continue
        if cost == "variance" and family in SLOPES:
            lo_s, hi_s = SLOPES[family]
            if not lo_s <= float(slope) <= hi_s:
                problems.append(f"{family} slope {slope} outside [{lo_s}, {hi_s}]")
    return problems


def check_cost(op: dict, report: Report) -> list:
    header = ["state", "N", "cost_type", "min_cost", "frameness", "oracle_cost", "oracle_gap"]
    problems = _shape(report, header, 1)
    if problems:
        return problems
    state, n_col, cost, value, frameness, oracle, gap = report.rows[0]
    n = op["N"]
    if (state, n_col, cost) != (op["state"], str(n), op["cost"]):
        problems.append(f"labels ({state}, {n_col}, {cost}) != ({op['state']}, {n}, {op['cost']})")
    value, frameness, oracle, gap = map(float, (value, frameness, oracle, gap))
    want = joint_cost(op["state"], n, op["cost"])
    if not _close(value, want):
        problems.append(f"min_cost {value!r} != closed form {want!r}")
    if op["state"] == "optimal":
        for other in ("flat", "sine-paper"):
            bound = joint_cost(other, n, op["cost"])
            if value > bound + 1e-12:
                problems.append(f"optimal min_cost {value!r} above {other} {bound!r}")
    if not _close(frameness, -value, 1e-12):
        problems.append(f"frameness {frameness!r} != -min_cost")
    if not -1e-12 <= gap <= ORACLE_GAP_MAX:
        problems.append(f"oracle_gap {gap!r} outside [0, {ORACLE_GAP_MAX}]")
    if not _close(oracle - value, gap, 1e-12):
        problems.append(f"oracle_gap {gap!r} != oracle_cost - min_cost")
    return problems


def teleport_fidelity(amplitudes: list, phi: float) -> float:
    """Outcome-averaged fidelity when each correction is rotated by the mismatch.

    With correction X^a Z^b applied in a frame turned by U = exp(-i phi G), the
    net map is diag(exp(i phi d) on levels < a, 1 on levels >= a) up to a
    global phase, so the fidelity for outcome a is
    P_<a^2 + P_>=a^2 + 2 P_<a P_>=a cos(phi d), averaged over a.
    """
    d = len(amplitudes)
    weights = [abs(a) ** 2 for a in amplitudes]
    total = 0.0
    for a in range(d):
        below = sum(weights[:a])
        above = sum(weights[a:])
        total += below ** 2 + above ** 2 + 2.0 * below * above * math.cos(phi * d)
    return total / d


def check_teleport(op: dict, report: Report) -> list:
    grid, amps = op["grid"], op["amplitudes"]
    problems = _shape(report, ["phi", "ui_fidelity", "si_fidelity"], grid + 1)
    if problems:
        return problems
    for j, (phi, ui, si) in enumerate(report.rows[:grid]):
        phi, ui, si = map(float, (phi, ui, si))
        want_phi = TWO_PI * j / grid
        if abs(phi - want_phi) > 1e-12:
            problems.append(f"row {j}: phi {phi!r} != {want_phi!r}")
        if abs(si - 1.0) > 1e-12:
            problems.append(f"row {j}: si_fidelity {si!r} != 1")
        want = teleport_fidelity(amps, want_phi)
        if abs(ui - want) > 1e-10:
            problems.append(f"row {j}: ui_fidelity {ui!r} != {want!r}")
        if j == 0 and abs(ui - 1.0) > 1e-10:
            problems.append(f"ui_fidelity {ui!r} != 1 at phi = 0")
    label, average, si_avg = report.rows[grid]
    weights = [abs(a) ** 2 for a in amps]
    d = len(amps)
    want = sum(sum(weights[:a]) ** 2 + sum(weights[a:]) ** 2 for a in range(d)) / d
    if label != "average" or abs(float(average) - want) > 1e-10 or float(si_avg) != 1.0:
        problems.append(f"average row ({label}, {average}, {si_avg}) != (average, {want!r}, 1.0)")
    return problems


def check_align(op: dict, report: Report) -> list:
    d, trials = op["d"], op["trials"]
    problems = _shape(report, ["g", "trials", "errors"], d + 1)
    if problems:
        return problems
    for g, row in enumerate(report.rows[:d]):
        if row != [str(g), str(trials), "0"]:
            problems.append(f"row {g} is {row}, expected [{g}, {trials}, 0]")
    if report.rows[d] != ["total", str(d * trials), "0"]:
        problems.append(f"total row is {report.rows[d]}, expected [total, {d * trials}, 0]")
    return problems


def witness_expectation(psi: list, bob: list, phi_points: int = 256):
    """Level weights, l_max and input_ui_norm of (input x resource).

    ``psi`` holds the input amplitudes on levels 0..d-1 and ``bob`` the
    resource's sector magnitudes |e_n|, one Alice slot per Bob level n.
    """
    weights = {}
    for m, a in enumerate(psi):
        for n, e in enumerate(bob):
            weights[m - n] = weights.get(m - n, 0.0) + abs(a) ** 2 * e * e
    weights = {l: w for l, w in sorted(weights.items()) if w > 1e-12}
    m_max = max(m for m, a in enumerate(psi) if abs(a) > 1e-12)
    n_min = min(n for n, e in enumerate(bob) if e > 1e-12)
    ui_norm = max(
        math.sqrt(sum(abs(a) ** 2 * (2.0 - 2.0 * math.cos(TWO_PI * j / phi_points * m))
                      for m, a in enumerate(psi)))
        for j in range(phi_points))
    return weights, m_max - n_min, ui_norm


def check_witness(op: dict, report: Report) -> list:
    problems = _shape(report, ["quantity", "value"], 5)
    if problems:
        return problems
    rows = dict((r[0], r[1]) for r in report.rows)
    keys = ["level_differences", "weights", "l_max", "invariance_residual", "input_ui_norm"]
    if [r[0] for r in report.rows] != keys:
        return [f"quantities {[r[0] for r in report.rows]} != {keys}"]
    weights, l_max, ui_norm = witness_expectation(
        op["psi"], profile(op["state"], op["N"], op["cost"]))
    levels = [int(x) for x in rows["level_differences"].split()]
    got = [float(x) for x in rows["weights"].split()]
    if levels != list(weights):
        problems.append(f"level_differences {levels} != {list(weights)}")
    elif any(abs(g - w) > 1e-10 for g, w in zip(got, weights.values())) or len(got) != len(levels):
        problems.append("weights differ from |psi_m|^2 |e_n|^2 summed over m - n")
    if abs(sum(got) - 1.0) > 1e-10:
        problems.append(f"weights sum to {sum(got)!r}, not 1")
    if int(rows["l_max"]) != l_max:
        problems.append(f"l_max {rows['l_max']} != {l_max}")
    residual = float(rows["invariance_residual"])
    if not 0.0 <= residual <= RESIDUAL_TOL:
        problems.append(f"invariance_residual {residual!r} outside [0, {RESIDUAL_TOL}]")
    if abs(float(rows["input_ui_norm"]) - ui_norm) > 1e-10:
        problems.append(f"input_ui_norm {rows['input_ui_norm']} != {ui_norm!r}")
    return problems


CHECKS = {
    "sync-sim": check_sync_sim,
    "scaling": check_scaling,
    "cost": check_cost,
    "teleport-demo": check_teleport,
    "align": check_align,
    "witness": check_witness,
}


def check(op: dict, text: str) -> list:
    """Problems with one operation's CSV report; empty when it is right."""
    return CHECKS[op["command"]](op, Report(text))
