"""Run configurations: strict JSON parsing, execution, CSV and summaries.

A scenario names one computation. Physics modes ("reduced", "composite",
"analytic") need a configuration, given either as the evenly tuned
shortcut (Omega plus a uniform coupling G) or as explicit levels, cavity
and couplings blocks; "validate" runs the reduced-versus-full comparison
ladder. Parsing is strict: unknown or malformed fields are rejected with
their path rather than ignored.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
from dataclasses import dataclass

import numpy as np

from . import composite as composite_mod
from .analytic import BeatMeasurement, beat_frequency, measure_beats, symmetric_solution
from .model import CavityParams, CouplingSet, LevelScheme, derive_rates, midpoint_levels
from .reduced import evolve
from .series import TimeSeries

MODES = ("reduced", "composite", "analytic", "validate")
CSV_COLUMNS = ("t", "rho_ee", "rho_11", "rho_22", "rho_gg", "re_rho_12", "im_rho_12", "abs_rho_12")
SWEEP_PARAMS = ("Omega", "eta", "t_end", "G")
# Output files are <name>.csv and <name>.summary.json inside --out-dir.
NAME_PATTERN = re.compile(r"\w[\w.+-]*", re.ASCII)


class ScenarioError(ValueError):
    """Malformed or inconsistent scenario input."""


def _check_keys(obj: dict, allowed: tuple[str, ...], path: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ScenarioError(f"{path}: unknown field(s) {', '.join(unknown)}")


def _finite(v, where: str, expected: str = "a number") -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ScenarioError(f"{where}: expected {expected}")
    try:
        x = float(v)
    except OverflowError:  # an integer literal beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ScenarioError(f"{where}: must be finite")
    return x


def _real(obj: dict, key: str, path: str, default=None, required: bool = False):
    if key not in obj:
        if required:
            raise ScenarioError(f"{path}.{key}: required")
        return default
    return _finite(obj[key], f"{path}.{key}")


def _complex(obj: dict, key: str, path: str, default=None, required: bool = False):
    if key not in obj:
        if required:
            raise ScenarioError(f"{path}.{key}: required")
        return default
    v = obj[key]
    parts = v if isinstance(v, list) and len(v) == 2 else [v, 0.0]
    re_part, im_part = (_finite(x, f"{path}.{key}", "a number or a [re, im] pair") for x in parts)
    return complex(re_part, im_part)


def _integer(obj: dict, key: str, path: str, default=None):
    if key not in obj:
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ScenarioError(f"{path}.{key}: expected an integer")
    return v


def _block(obj: dict, key: str, path: str, cls, read):
    """The explicit configuration block obj[key], one read(...) per field of cls."""
    where = f"{path}.{key}"
    block = obj[key]
    if not isinstance(block, dict):
        raise ScenarioError(f"{where}: expected an object")
    fields = dataclasses.fields(cls)
    _check_keys(block, tuple(f.name for f in fields), where)
    values = {
        f.name: read(block, f.name, where, f.default, f.default is dataclasses.MISSING)
        for f in fields
    }
    try:
        return cls(**values)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class Scenario:
    name: str
    mode: str
    eta: float = 1.0
    Omega: float | None = None
    G: complex | None = None
    levels: LevelScheme | None = None
    cavity: CavityParams | None = None
    couplings: CouplingSet | None = None
    t_end: float | None = None
    samples: int = 1601
    n_max_a: int = 1
    n_max_b: int = 1
    g_values: tuple[float, ...] = (0.2, 0.1, 0.05)


_PHYSICS_KEYS = (
    "name", "mode", "eta", "Omega", "G", "levels", "cavity", "couplings",
    "t_end", "samples", "n_max_a", "n_max_b",
)
_VALIDATE_KEYS = ("name", "mode", "g_values", "Omega", "samples")


def parse_scenario(obj: dict, path: str = "scenario") -> Scenario:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: expected an object")
    name = obj.get("name")
    if not isinstance(name, str) or not NAME_PATTERN.fullmatch(name):
        raise ScenarioError(
            f"{path}.name: required file stem of letters, digits, _ . + - (no leading . + -)"
        )
    mode = obj.get("mode")
    if mode not in MODES:
        raise ScenarioError(f"{path}.mode: must be one of {', '.join(MODES)}")
    _check_keys(obj, _VALIDATE_KEYS if mode == "validate" else _PHYSICS_KEYS, path)
    omega = _real(obj, "Omega", path, default=1.0 if mode == "validate" else None)
    if omega is not None and omega < 0:
        raise ScenarioError(f"{path}.Omega: must be nonnegative")
    samples = _integer(obj, "samples", path, default=151 if mode == "validate" else 1601)
    if samples < 2:
        raise ScenarioError(f"{path}.samples: need at least 2")

    if mode == "validate":
        gv = obj.get("g_values", [0.2, 0.1, 0.05])
        g_values = tuple(_finite(x, f"{path}.g_values") for x in gv) if isinstance(gv, list) else ()
        if len(g_values) < 2 or min(g_values) <= 0:
            raise ScenarioError(f"{path}.g_values: expected a list of at least two positive numbers")
        return Scenario(name=name, mode=mode, Omega=omega, samples=samples, g_values=g_values)

    g = _complex(obj, "G", path)
    explicit = [k for k in ("levels", "cavity", "couplings") if k in obj]
    if omega is not None and explicit:
        raise ScenarioError(f"{path}: give either Omega/G or levels/cavity/couplings, not both")
    levels = cavity = couplings = None
    if omega is None:
        if g is not None:
            raise ScenarioError(f"{path}.G: only meaningful together with Omega")
        if len(explicit) != 3:
            raise ScenarioError(f"{path}: need levels, cavity and couplings (or the Omega shortcut)")
        levels = _block(obj, "levels", path, LevelScheme, _real)
        cavity = _block(obj, "cavity", path, CavityParams, _real)
        couplings = _block(obj, "couplings", path, CouplingSet, _complex)

    t_end = _real(obj, "t_end", path, required=True)
    if t_end <= 0:
        raise ScenarioError(f"{path}.t_end: must be positive")
    n_max_a = _integer(obj, "n_max_a", path, default=1)
    n_max_b = _integer(obj, "n_max_b", path, default=1)
    if (n_max_a < 1 or n_max_b < 1) and mode == "composite":
        raise ScenarioError(f"{path}: photon truncation must keep at least one photon")

    return Scenario(
        name=name,
        mode=mode,
        eta=_real(obj, "eta", path, default=1.0),
        Omega=omega,
        G=complex(1.0) if (omega is not None and g is None) else g,
        levels=levels,
        cavity=cavity,
        couplings=couplings,
        t_end=t_end,
        samples=samples,
        n_max_a=n_max_a,
        n_max_b=n_max_b,
    )


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path} is not valid JSON: {exc}") from exc
    return parse_scenario(obj)


@dataclass
class RunResult:
    scenario: Scenario
    summary: dict
    series: TimeSeries | None = None
    check: composite_mod.EliminationCheck | None = None
    partial: bool = False


def _json_complex(z: complex | None):
    if z is None:
        return None
    return [float(z.real), float(z.imag)]


def _summarize(sc: Scenario, series: TimeSeries, rates) -> dict:
    pred = None
    if rates.alpha is not None:
        pred = beat_frequency(rates, sc.eta)
    meas = BeatMeasurement(None, "none", "not measured")
    if len(series) >= 8:
        try:
            meas = measure_beats(series, allow_tone_fit=True)
        except ValueError as exc:
            meas = BeatMeasurement(None, "none", f"measurement failed: {exc}")
    gg = series.population("g")
    slope = np.gradient(gg, series.times) if len(series) >= 2 else np.zeros(1)
    return {
        "name": sc.name,
        "mode": sc.mode,
        "eta": sc.eta,
        "rates": {
            "Gamma_1": rates.Gamma_1,
            "Gamma_2": rates.Gamma_2,
            "Gamma_1p": rates.Gamma_1p,
            "Gamma_2p": rates.Gamma_2p,
            "delta_1": rates.delta_1,
            "delta_2": rates.delta_2,
            "delta_1p": rates.delta_1p,
            "delta_2p": rates.delta_2p,
            "Omega": rates.Omega,
        },
        "alpha": _json_complex(rates.alpha),
        "beats_predicted": None if pred is None else pred.beats,
        "two_f_predicted": None if pred is None else pred.two_f,
        "two_f_measured": meas.two_f,
        "measure_method": meas.method,
        "measure_detail": meas.detail,
        "max_abs_rho_12": float(np.max(np.abs(series.coherence("1", "2")))),
        "min_rho_gg_slope": float(np.min(slope)),
        "max_drift_correction": float(series.max_drift_correction),
        "diagnostics": list(series.diagnostics),
        "partial": False,
    }


def run_scenario(sc: Scenario) -> RunResult:
    """Execute one scenario; DriftError propagates and nothing is returned."""
    if sc.mode == "validate":
        check = composite_mod.validate_elimination(
            g_values=sc.g_values, Omega=sc.Omega, samples=sc.samples
        )
        summary = {
            "name": sc.name,
            "mode": sc.mode,
            "g_values": list(check.g_values),
            "deviations": list(check.deviations),
            "monotone": check.monotone,
        }
        return RunResult(scenario=sc, summary=summary, check=check)

    levels, cavity, couplings = sc.levels, sc.cavity, sc.couplings
    if sc.Omega is not None:
        levels, cavity = midpoint_levels(sc.Omega + 1.0, sc.Omega, sc.Omega)
        couplings = CouplingSet.uniform(sc.G)
    rates = derive_rates(couplings, levels, cavity)
    t = np.linspace(0.0, sc.t_end, sc.samples)
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[0, 0] = 1.0

    if sc.mode == "reduced":
        series = evolve(rho0, t, rates, eta=sc.eta)
    elif sc.mode == "analytic":
        if rates.alpha is None:
            raise ScenarioError(
                "analytic mode needs the evenly tuned configuration (use the Omega shortcut)"
            )
        series = symmetric_solution(t, rates, eta=sc.eta)
    else:
        if sc.eta != 1.0:
            raise ScenarioError("the full model has no interference dial; eta must stay 1")
        system = composite_mod.build_system(
            couplings, levels, cavity, n_max_a=sc.n_max_a, n_max_b=sc.n_max_b
        )
        states = composite_mod.evolve_composite(composite_mod.excited_vacuum(system), t, system)
        series = composite_mod.reduced_from_composite(states, t, system, levels)

    return RunResult(scenario=sc, summary=_summarize(sc, series, rates), series=series)


def write_csv(series: TimeSeries, path: str) -> None:
    """All channels at 17 significant digits, LF line endings."""
    ch = series.channels()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for k in range(len(series)):
            fh.write(",".join(f"{ch[c][k]:.17g}" for c in CSV_COLUMNS) + "\n")


def write_summary(summary: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")


def sweep_variant(sc: Scenario, param: str, value: float) -> Scenario:
    """Derive the scenario for one sweep point.

    Omega and G sweeps keep the evenly tuned shortcut honest (the mode
    frequencies track the moving levels), so they require a shortcut
    scenario to begin with.
    """
    if param not in SWEEP_PARAMS:
        raise ScenarioError(f"sweep parameter must be one of {', '.join(SWEEP_PARAMS)}")
    tag = f"{value:g}"
    name = f"{sc.name}_{param}_{tag}"
    if param in ("Omega", "G") and sc.Omega is None:
        raise ScenarioError(f"{param} sweep needs the Omega/G shortcut configuration")
    if param == "Omega":
        if value < 0:
            raise ScenarioError("Omega must be nonnegative")
        return dataclasses.replace(sc, Omega=float(value), name=name)
    if param == "G":
        return dataclasses.replace(sc, G=complex(value), name=name)
    if param == "eta":
        return dataclasses.replace(sc, eta=float(value), name=name)
    if value <= 0:
        raise ScenarioError("t_end must be positive")
    return dataclasses.replace(sc, t_end=float(value), name=name)


def run_sweep(sc: Scenario, param: str, values: list[float]) -> list[RunResult]:
    """Run one scenario per value; a failed point is recorded, not fatal."""
    if sc.mode == "validate":
        raise ScenarioError("sweep applies to the physics modes, not validate")
    if not values:
        raise ScenarioError("sweep needs at least one value")
    results = []
    for v in values:
        variant = sc
        try:
            variant = sweep_variant(sc, param, v)
            results.append(run_scenario(variant))
        except (ScenarioError, ValueError) as exc:
            # a bad point is recorded under its would-be name, the rest still run
            name = f"{sc.name}_{param}_{v:g}"
            results.append(
                RunResult(
                    scenario=variant,
                    summary={"name": name, "mode": variant.mode, "error": str(exc)},
                    partial=True,
                )
            )
    return results
