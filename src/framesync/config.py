"""On-disk spec formats and their resolution into library objects.

Three small JSON shapes, shared by config files and command-line values:

* cost spec: ``{"type": "variance"}``, ``{"type": "likelihood", "qmax": 8}``,
  or explicit coefficients ``{"type": "fourier", "cq": [c0, c1, ...]}``.
* frame-state spec: either a named family
  ``{"family": "flat" | "sine-paper" | "optimal" | "single-sector", "N": 4}``
  or explicit sector data
  ``{"N": 2, "generatorA": [[0, 1], [1, 2], [2, 1]], "generatorB": [...],
  "sectors": [{"n": 0, "e": [re, im], "lambdas": [1.0]}, ...]}``.
* ket spec: ``{"amplitudes": [[re, im], ...], "generator": [[eig, deg], ...]}``
  with the generator optional (defaults to the 0..d-1 ladder), or the names
  "plus" / "zero" / "one".

String values are taken as a family/name first and a file path otherwise.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import NORM_ATOL, ContractViolation, Generator, Ket
from .estimation import CostFunction, likelihood_cost, variance_cost
from .states import (FAMILIES, BipartiteFrameState, _nondegenerate_state, expand,
                     family_profile)

COST_N_CAP = 512   # profile-only commands
DEMO_N_CAP = 64    # anything that expands a full statevector
GENERATOR_DIM_CAP = 8 * (DEMO_N_CAP + 1)   # basis slots of one spec-file generator
GRID_CAP = 4096    # teleport-demo phase grid points
ALIGN_WORK_CAP = 1 << 17   # align attempts d * trials, about 0.04 s at d = 64 on 2 cores
SYNC_WORK_CAP = 1 << 19    # sync-sim trials * N values, 6.3-8.3 s at N = 64 on 2 cores
COST_COEFF_CAP = 1e100     # keeps every cost, its square and a sum over trials finite


class UsageError(ValueError):
    """Bad command line or config file; maps to exit code 1."""


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"spec file not found: {path!r}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"invalid JSON in {path!r}: {exc}")
    except (OSError, ValueError) as exc:   # a directory, bad bytes, a NUL in the path
        raise UsageError(f"cannot read {path!r}: {getattr(exc, 'strerror', None) or exc}")
    if not isinstance(doc, dict):
        raise UsageError(f"{path!r} must hold a JSON object")
    return doc


def _as_spec_dict(value, kind: str) -> dict:
    if isinstance(value, dict):
        return value
    if isinstance(value, str):
        return load_json(value)
    raise UsageError(f"{kind} spec must be a name, path, or JSON object")


# JSON-value kinds of config-file values and spec-file fields.  A value of the
# wrong kind exits 1 (UsageError); nothing is coerced, and a bool is no integer.
_KINDS = {"int": (int, "an integer"), "count": (int, "a positive integer"),
          "str": (str, "a string"), "bool": (bool, "true or false")}


def _typed(value, what: str, kind: str = "int", lo: int | None = None, hi: int | None = None):
    """``value`` if it is a JSON value of ``kind``, and in lo..hi when they are given."""
    want, name = _KINDS[kind]
    if (not isinstance(value, want) or isinstance(value, bool) is not (want is bool)
            or kind == "count" and value < 1):
        raise UsageError(f"{what} must be {name}, got {value!r}")
    if lo is not None and not lo <= value <= hi:
        raise UsageError(f"{what} must be in {lo}..{hi}, got {value}")
    return value


def _numbers(values, what: str) -> tuple:
    if isinstance(values, list) and not any(
            isinstance(x, bool) or not isinstance(x, (int, float)) for x in values):
        try:
            return tuple(map(float, values))
        except OverflowError:   # an integer beyond the float range
            pass
    raise UsageError(f"{what} must be a list of numbers, got {values!r}")


def _amplitude(value, what: str) -> complex:
    # Every amplitude belongs to a normalized state, so NORM_ATOL bounds it too;
    # the bound also keeps its square finite.
    pair = value if isinstance(value, list) else [value, 0]
    try:
        c = complex(*_numbers(pair, what)) if len(pair) == 2 else math.nan
        if abs(c) <= 1.0 + NORM_ATOL:   # NaN fails
            return c
    except (UsageError, OverflowError):   # OverflowError: abs of a huge pair
        pass
    raise UsageError(
        f"{what} must be a number or an [re, im] pair of magnitude at most 1, got {value!r}")


def _unit_ket(values, what: str) -> Ket:
    if not isinstance(values, list):
        raise UsageError(f"{what} must be a list")
    psi = Ket(np.array([_amplitude(v, "amplitude") for v in values], dtype=complex))
    if not psi.is_unit():
        raise UsageError(f"{what} must be normalized")
    return psi


def cost_dict(spec) -> dict:
    """A cost spec as a dict: a cost name, a path read once, or the dict itself."""
    if spec in (None, "variance", "likelihood"):
        return {"type": spec or "variance"}
    return _as_spec_dict(spec, "cost")


def state_dict(spec) -> dict:
    """A frame-state spec as a dict: a family name, a path read once, or the dict itself."""
    if spec is None or isinstance(spec, str) and spec in FAMILIES:
        return {"family": spec or "flat"}
    return _as_spec_dict(spec, "state")


def cost_from_spec(spec, state_n: int | None = None) -> CostFunction:
    """Resolve a cost spec; likelihood truncation defaults to the state's N."""
    d = cost_dict(spec)
    kind = d.get("type", "fourier" if "cq" in d else None)
    if kind == "variance":
        return variance_cost()
    if kind == "likelihood":
        return likelihood_cost(_typed(d.get("qmax", state_n), "likelihood qmax", lo=1, hi=COST_N_CAP))
    if kind == "fourier":
        cq = d.get("cq")
        if not isinstance(cq, list) or not cq:
            raise UsageError("fourier cost spec needs a nonempty cq list [c0, c1, ...]")
        c = _numbers(cq, "fourier cq")
        if sum(map(abs, c)) > COST_COEFF_CAP:
            raise UsageError(f"fourier cq magnitudes must sum to at most {COST_COEFF_CAP:g}")
        return CostFunction(c[0], c[1:])
    raise UsageError(f"unknown cost type {kind!r}")


def cost_label(spec) -> str:
    return str(cost_dict(spec).get("type", "fourier"))


def _generator_from_spec(pairs, what: str) -> Generator:
    if (not isinstance(pairs, list) or not pairs
            or not all(isinstance(p, list) and len(p) == 2 for p in pairs)):
        raise UsageError(f"{what} must be a list of [eigenvalue, degeneracy] pairs")
    levels = tuple((_typed(n, f"{what} eigenvalue"), _typed(d, f"{what} degeneracy"))
                   for n, d in pairs)
    try:
        gen = Generator(levels)
    except ContractViolation as exc:
        raise UsageError(f"bad {what}: {exc}")
    if gen.dim > GENERATOR_DIM_CAP:
        raise UsageError(f"{what} dimension {gen.dim} exceeds the cap of {GENERATOR_DIM_CAP}")
    return gen


def frame_state_from_spec(spec, n: int | None, cost_spec,
                          n_cap: int = DEMO_N_CAP) -> BipartiteFrameState:
    """Resolve a frame-state spec (family name, path, or dict)."""
    d = state_dict(spec)

    if "family" in d:
        family = d["family"]
        n_eff = d.get("N", n)
        if n_eff is None:
            raise UsageError(f"family {family!r} needs N (flag --N or spec field)")
        n_eff = _typed(n_eff, "state N", lo=1, hi=n_cap)
        if family not in FAMILIES:
            raise UsageError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
        level = _typed(d.get("level", 0), "single-sector level") if family == "single-sector" else 0
        cost = cost_from_spec(cost_spec, n_eff) if family == "optimal" else None
        return _nondegenerate_state(n_eff, family_profile(family, n_eff, cost, level))

    for key in ("N", "generatorA", "generatorB", "sectors"):
        if key not in d:
            raise UsageError(f"explicit state spec is missing field {key!r}")
    n_tot = _typed(d["N"], "state N", lo=0, hi=n_cap)
    gen_a = _generator_from_spec(d["generatorA"], "generatorA")
    gen_b = _generator_from_spec(d["generatorB"], "generatorB")
    if not isinstance(d["sectors"], list):
        raise UsageError("state sectors must be a list")
    amps = np.zeros(n_tot + 1, dtype=complex)
    lams = {}
    for entry in d["sectors"]:
        if not isinstance(entry, dict) or "n" not in entry or "e" not in entry:
            raise UsageError("each sector needs fields 'n' and 'e'")
        level = _typed(entry["n"], "sector n", lo=0, hi=n_tot)
        if level in lams:
            raise UsageError(f"invalid state spec: duplicate sector level {level}")
        amps[level] = _amplitude(entry["e"], f"sector {level} amplitude")
        lams[level] = _numbers(entry.get("lambdas", [1.0]), f"sector {level} lambdas")
    ranks = [len(lams.get(n, ())) for n in range(n_tot + 1)]
    try:
        return BipartiteFrameState(n_tot, gen_a, gen_b, amps, ranks,
                                   [x for n in sorted(lams) for x in lams[n]])
    except ContractViolation as exc:
        raise UsageError(f"invalid state spec: {exc}")


_NAMED_KETS = {
    "plus": (1 / math.sqrt(2), 1 / math.sqrt(2)),
    "zero": (1.0, 0.0),
    "one": (0.0, 1.0),
}


def ket_from_spec(spec):
    """Resolve a single-system ket spec to (Ket, Generator)."""
    if spec is None:
        spec = "plus"
    if isinstance(spec, str) and spec in _NAMED_KETS:
        ampl = np.asarray(_NAMED_KETS[spec], dtype=complex)
        return Ket(ampl), Generator.ladder(2)
    d = _as_spec_dict(spec, "ket")
    if "amplitudes" not in d:
        raise UsageError("ket spec needs an 'amplitudes' field")
    psi = _unit_ket(d["amplitudes"], "ket spec amplitudes")
    if psi.dim > DEMO_N_CAP:
        raise UsageError(f"ket dimension capped at {DEMO_N_CAP}")
    gen = (_generator_from_spec(d["generator"], "generator")
           if "generator" in d else Generator.ladder(psi.dim))
    if gen.dim != psi.dim:
        raise UsageError("ket generator dimension does not match the amplitudes")
    return psi, gen


def resource_from_spec(spec, n: int | None, cost_spec):
    """Resolve a witness resource: named pair, family, or explicit spec.

    Returns (ket, generator A, generator B).  Unlike frame states, a witness
    resource need not be a total-level eigenstate, so raw bipartite kets are
    accepted too (fields amplitudes / generatorA / generatorB).
    """
    if spec is None:
        spec = "bell"
    if spec == "bell":
        g = Generator.ladder(2)
        return Ket(np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)), g, g
    if isinstance(spec, str) and spec in FAMILIES:
        spec = {"family": spec, "N": n} if n is not None else {"family": spec}
    d = _as_spec_dict(spec, "resource")
    if "amplitudes" in d:
        gen_a = _generator_from_spec(d.get("generatorA"), "generatorA")
        gen_b = _generator_from_spec(d.get("generatorB"), "generatorB")
        psi = _unit_ket(d["amplitudes"], "resource amplitudes")
        if psi.dim != gen_a.dim * gen_b.dim:
            raise UsageError("resource amplitudes do not match generator dimensions")
        return psi, gen_a, gen_b
    state = frame_state_from_spec(d, n, cost_spec)
    return expand(state), state.gen_a, state.gen_b


class Setting(NamedTuple):
    """One run setting of the command line and of ``--config`` files."""

    key: str            # config-file key; the flag is "--" + key with "_" -> "-"
    field: str | None   # RunConfig field; None: a file-only key, checked, then unused
    kind: str           # "int", "count" (positive), "str", "bool" or "spec" (any JSON)
    help: str
    echo: bool = True   # part of the report's config echo


SETTINGS = (
    Setting("seed", "seed", "int", "master RNG seed (u64)"),
    Setting("trials", "trials", "int", "Monte Carlo trials"),
    Setting("N", "n", "int", "total level N"),
    Setting("N_range", "n_range", "str", "inclusive range a..b"),
    Setting("state", "state", "spec", "state family or spec path (teleport-demo: input ket)"),
    Setting("cost", "cost", "spec", "variance | likelihood | cost spec path"),
    Setting("psi0", "psi0", "spec", "input ket name or spec path (witness)"),
    Setting("oracle", "oracle", "bool", "add the brute-force seed-search value"),
    Setting("out", "out", "str", "write the report to a file", echo=False),
    Setting("degrees", "degrees", "bool", "angles in degrees at the boundary"),
    Setting("json", "json_out", "bool", "JSON report instead of CSV", echo=False),
    Setting("grid", "grid", "int", "phase grid points (teleport-demo)"),
    Setting("d", "group_order", "int", "cyclic group order (align)"),
    Setting("threads", None, "count", "kept for old config files; changes no work", echo=False),
)


@dataclass
class RunConfig:
    """Effective, merged settings for one CLI invocation."""

    command: str
    seed: int = 0
    trials: int | None = None   # commands pick their own default
    n: int | None = None
    n_range: str | None = None
    state: object = None
    cost: object = None
    psi0: object = None
    oracle: bool = False
    degrees: bool = False
    json_out: bool = False
    out: str | None = None
    grid: int = 24
    group_order: int | None = None

    def echo(self) -> dict:
        """Stable config echo for report metadata; unset, false and zero values are left out."""
        keep = {"command": self.command}
        keep.update((s.key, getattr(self, s.field)) for s in SETTINGS if s.echo)
        return {k: v for k, v in keep.items() if v not in (None, False)}


def parse_n_range(text: str) -> tuple[int, int]:
    parts = text.split("..")
    if len(parts) != 2:
        raise UsageError(f"N range must look like a..b, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"N range bounds must be integers, got {text!r}")
    if lo < 1 or hi < lo:
        raise UsageError(f"N range needs 1 <= a <= b, got {text!r}")
    return lo, hi


def run_config(command: str, flags: dict, path: str | None) -> RunConfig:
    """Settings for one run: ``flags`` by field, and the values of the config
    file at ``path`` where a flag is unset.  An unknown key or a wrongly typed
    file value raises UsageError."""
    doc = load_json(path) if path is not None else {}
    unknown = [key for key in doc if key not in {s.key for s in SETTINGS}]
    if unknown:
        raise UsageError(f"unknown config key {unknown[0]!r}")
    values = {}
    for s in SETTINGS:
        value = flags.get(s.field)
        if (value is None or value is False) and doc.get(s.key) is not None:
            value = doc[s.key]
            if s.kind != "spec":   # a spec resolver types its own value
                value = _typed(value, f"config {s.key}", s.kind)
        if s.field is not None and value is not None:
            values[s.field] = value
    return RunConfig(command, **values)
