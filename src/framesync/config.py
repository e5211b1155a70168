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

import numpy as np

from .core import ContractViolation, Generator, Ket
from .estimation import CostFunction, likelihood_cost, variance_cost
from .states import (BipartiteFrameState, SchmidtSector, expand, flat_state,
                     optimal_frameness_state, sine_state, single_sector_state)

FAMILIES = ("flat", "sine-paper", "optimal", "single-sector")

COST_N_CAP = 512   # profile-only commands
DEMO_N_CAP = 64    # anything that expands a full statevector
GRID_CAP = 4096    # teleport-demo phase grid points
ALIGN_WORK_CAP = 1 << 17   # align attempts d * trials, about 8 s at d = 64


class UsageError(ValueError):
    """Bad command line or config file; maps to exit code 1."""


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"spec file not found: {path}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"invalid JSON in {path}: {exc}")
    except (OSError, ValueError) as exc:   # a directory, bad bytes, a NUL in the path
        raise UsageError(f"cannot read {path!r}: {getattr(exc, 'strerror', None) or exc}")
    if not isinstance(doc, dict):
        raise UsageError(f"{path} must hold a JSON object")
    return doc


def _as_spec_dict(value, kind: str) -> dict:
    if isinstance(value, dict):
        return value
    if isinstance(value, str):
        return load_json(value)
    raise UsageError(f"{kind} spec must be a name, path, or JSON object")


def _spec_int(value, what: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise UsageError(f"{what} must be an integer, got {value!r}")


def _spec_list(values, what: str) -> list:
    if not isinstance(values, list):
        raise UsageError(f"{what} must be a list")
    return values


def _spec_floats(values, what: str) -> tuple:
    if isinstance(values, (list, tuple)):
        try:
            return tuple(float(x) for x in values)
        except (TypeError, ValueError, OverflowError):
            pass
    raise UsageError(f"{what} must be a list of numbers, got {values!r}")


def cost_from_spec(spec, state_n: int | None = None) -> CostFunction:
    """Resolve a cost spec; likelihood truncation defaults to the state's N."""
    if spec is None or spec == "variance":
        return variance_cost()
    if spec == "likelihood":
        if state_n is None:
            raise UsageError("likelihood cost needs a state (for the default qmax) or an explicit qmax")
        return likelihood_cost(state_n)
    d = _as_spec_dict(spec, "cost")
    kind = d.get("type", "fourier" if "cq" in d else None)
    if kind == "variance":
        return variance_cost()
    if kind == "likelihood":
        qmax = d.get("qmax", state_n)
        if qmax is None:
            raise UsageError("likelihood cost spec needs qmax or a state context")
        qmax = _spec_int(qmax, "likelihood qmax")
        if qmax > COST_N_CAP:
            raise UsageError(f"likelihood qmax capped at {COST_N_CAP}, got {qmax}")
        return likelihood_cost(qmax)
    if kind == "fourier":
        cq = d.get("cq")
        if not isinstance(cq, (list, tuple)) or not cq:
            raise UsageError("fourier cost spec needs a nonempty cq list [c0, c1, ...]")
        c = _spec_floats(cq, "fourier cq")
        return CostFunction(c[0], c[1:])
    raise UsageError(f"unknown cost type {kind!r}")


def cost_label(spec) -> str:
    if spec is None:
        return "variance"
    if isinstance(spec, str) and spec in ("variance", "likelihood"):
        return spec
    d = _as_spec_dict(spec, "cost")
    return str(d.get("type", "fourier"))


def _complex_entry(value, what: str) -> complex:
    if isinstance(value, (int, float)):
        value = (value, 0.0)
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise UsageError(f"{what} must be a number or an [re, im] pair")
    re, im = _spec_floats(value, what)
    return complex(re, im)


def _generator_from_spec(pairs, what: str) -> Generator:
    if not isinstance(pairs, (list, tuple)) or not pairs:
        raise UsageError(f"{what} must be a list of [eigenvalue, degeneracy] pairs")
    try:
        return Generator(tuple((int(n), int(d)) for n, d in pairs))
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"bad {what}: {exc}")


def frame_state_from_spec(spec, n: int | None, cost_spec,
                          n_cap: int = DEMO_N_CAP) -> BipartiteFrameState:
    """Resolve a frame-state spec (family name, path, or dict)."""
    if spec is None:
        spec = "flat"
    if isinstance(spec, str) and spec in FAMILIES:
        spec = {"family": spec}
    d = _as_spec_dict(spec, "state")

    if "family" in d:
        family = d["family"]
        n_eff = d.get("N", n)
        if n_eff is None:
            raise UsageError(f"family {family!r} needs N (flag --N or spec field)")
        n_eff = _spec_int(n_eff, "state N")
        if not 1 <= n_eff <= n_cap:
            raise UsageError(f"N must be in 1..{n_cap}, got {n_eff}")
        if family == "flat":
            return flat_state(n_eff)
        if family == "sine-paper":
            return sine_state(n_eff)
        if family == "optimal":
            return optimal_frameness_state(n_eff, cost_from_spec(cost_spec, n_eff))
        if family == "single-sector":
            return single_sector_state(n_eff, _spec_int(d.get("level", 0), "single-sector level"))
        raise UsageError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")

    for key in ("N", "generatorA", "generatorB", "sectors"):
        if key not in d:
            raise UsageError(f"explicit state spec is missing field {key!r}")
    n_tot = _spec_int(d["N"], "state N")
    if not 0 <= n_tot <= n_cap:
        raise UsageError(f"N must be in 0..{n_cap}, got {n_tot}")
    gen_a = _generator_from_spec(d["generatorA"], "generatorA")
    gen_b = _generator_from_spec(d["generatorB"], "generatorB")
    if not isinstance(d["sectors"], list):
        raise UsageError("state sectors must be a list")
    amps = np.zeros(n_tot + 1, dtype=complex)
    sectors = []
    for entry in d["sectors"]:
        if not isinstance(entry, dict) or "n" not in entry or "e" not in entry:
            raise UsageError("each sector needs fields 'n' and 'e'")
        level = _spec_int(entry["n"], "sector n")
        if not 0 <= level <= n_tot:
            raise UsageError(f"sector level {level} outside 0..{n_tot}")
        amps[level] = _complex_entry(entry["e"], f"sector {level} amplitude")
        lam = _spec_floats(entry.get("lambdas", [1.0]), f"sector {level} lambdas")
        sectors.append(SchmidtSector(level, lam))
    try:
        return BipartiteFrameState(n_tot, gen_a, gen_b, amps, tuple(sectors))
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
    ampl = np.asarray([_complex_entry(v, "amplitude")
                       for v in _spec_list(d["amplitudes"], "ket amplitudes")])
    if ampl.size > DEMO_N_CAP:
        raise UsageError(f"ket dimension capped at {DEMO_N_CAP}")
    gen = (_generator_from_spec(d["generator"], "generator")
           if "generator" in d else Generator.ladder(ampl.size))
    if gen.dim != ampl.size:
        raise UsageError("ket generator dimension does not match the amplitudes")
    psi = Ket(ampl)
    if not psi.is_unit(1e-10):
        raise UsageError("ket spec amplitudes must be normalized")
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
        ampl = np.asarray([_complex_entry(v, "amplitude")
                           for v in _spec_list(d["amplitudes"], "resource amplitudes")])
        if ampl.size != gen_a.dim * gen_b.dim:
            raise UsageError("resource amplitudes do not match generator dimensions")
        psi = Ket(ampl)
        if not psi.is_unit(1e-10):
            raise UsageError("resource amplitudes must be normalized")
        return psi, gen_a, gen_b
    state = frame_state_from_spec(d, n, cost_spec)
    return expand(state), state.gen_a, state.gen_b


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

    _FILE_KEYS = ("seed", "trials", "N", "N_range", "state", "cost", "psi0",
                  "oracle", "degrees", "json", "out", "grid", "d", "threads")

    def echo(self) -> dict:
        """Stable config echo for report metadata."""
        keep = {
            "command": self.command, "seed": self.seed, "trials": self.trials,
            "N": self.n, "N_range": self.n_range, "state": self.state,
            "cost": self.cost, "psi0": self.psi0, "oracle": self.oracle,
            "degrees": self.degrees, "grid": self.grid, "d": self.group_order,
        }
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


def merge_file_config(args_dict: dict, path: str | None) -> dict:
    """Overlay config-file values under explicit command-line flags."""
    if path is None:
        return args_dict
    raw = load_json(path)
    rename = {"N": "n", "N_range": "n_range", "json": "json_out", "d": "group_order"}
    merged = dict(args_dict)
    for key, value in raw.items():
        if key not in RunConfig._FILE_KEYS:
            raise UsageError(f"unknown config key {key!r}")
        dest = rename.get(key, key)
        if merged.get(dest) is None or merged.get(dest) is False:
            merged[dest] = value
    return merged
