"""Run configurations: strict JSON parsing, execution, CSV and summaries.

A scenario names one computation. Physics modes ("reduced", "composite",
"analytic") need a configuration, given either as the evenly tuned
shortcut (Omega plus a uniform coupling G) or as explicit levels, cavity
and couplings blocks; "validate" runs the reduced-versus-full comparison
ladder. Parsing is strict: unknown or malformed fields are rejected with
their path, and a repeated key with its name, rather than ignored.
"""

from __future__ import annotations

import cmath
import dataclasses
import json
import math
import re
from typing import NamedTuple

import numpy as np

from . import composite as composite_mod
from ._csvformat import CELL, format_rows
from .analytic import BeatMeasurement, beat_frequency, measure_beats, symmetric_solution, tuned_alpha
from .linalg import pure_state
from .model import CavityParams, CouplingSet, LevelScheme, derive_rates, tuned_configuration
from .reduced import evolve
from .series import CHANNELS, TimeSeries

MODES = ("reduced", "composite", "analytic", "validate")
CSV_COLUMNS = tuple(CHANNELS)
# Most rows formatted per write: a file goes out in the fewest equal blocks of at most
# this many, their 32-byte cells built in one buffer per file. Larger blocks make fewer
# numpy calls per value (a 20001-row file writes about 6% faster than at 512 rows) until
# a block's cells and temporaries cross glibc's heap-trim threshold, and every block
# faults its pages back in: at 2048 a 1601-row file is one block with 410 KB of cells,
# and a reduced-scan pass of bench/run.py takes 3880 minor faults (0 at 1024, seed 3).
CSV_BLOCK = 1024
SWEEP_PARAMS = ("Omega", "eta", "t_end", "G")
# Output files are <name>.csv and <name>.summary.json inside --out-dir.
NAME_PATTERN = re.compile(r"\w[\w.+-]*", re.ASCII)


class ScenarioError(ValueError):
    """Malformed or inconsistent scenario input."""


def _check_keys(obj: dict, allowed: tuple[str, ...], path: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ScenarioError(f"{path}: unknown field(s) {', '.join(unknown)}")


# Bounds on the run's size and the validate ladder. At unit rates a step of
# t_end stays far below the step norm (about 2e10) where expm loses the
# stationary state; a composite run at 100001 samples takes about 0.1 s and
# peaks near 0.03 GB, since the field is traced out of the propagated
# coordinates and the run keeps only the atom's; validate runs each
# rung of the ladder to t = 1.5/g^2, and the adiabatic elimination it checks
# needs g below the unit cavity linewidth. G and the block couplings have no
# bound, so large rates are not kept runnable: a reduced run at G = 1e5 over
# t_end = 5, or at G = 1e3 over t_end = 1e6, drifts and exits 3. Conditioning
# decides that, not the span |L| t_end alone, so no bound stands in for it.
# Below T_END_MIN a step can be so small that the product of two steps, which
# np.gradient takes for the slope of rho_gg, leaves the normal float range (a step
# below about 1e-154, so t_end below about 1e-149 at SAMPLES_MAX samples) and the
# summary would read NaN; the bound stays far above that.
# Below KAPPA_MIN a linewidth's square can underflow to 0, and at zero detuning
# derive_rates would divide by kappa^2 + Delta^2 = 0; kappa^2 stays normal far below
# it. Above OMEGA_MAX the shortcut's levels come close to 2^52, where the float
# spacing reaches 1 and omega_eg = 2 Omega + 1 no longer lies above omega_1g = 2 Omega.
T_END_MIN = 1e-100
T_END_MAX = 1e6
KAPPA_MIN = 1e-100
OMEGA_MAX = 1e15
SAMPLES_MAX = 100001
G_RUNG_MIN = 1e-3
G_RUNG_MAX = 1.0
# The most samples one command asks for: rungs x samples of a validate ladder, points x samples
# of a sweep. A rung takes about 82 ms at SAMPLES_MAX and 1.3 ms at 2 samples, so a ladder at the
# budget runs for at most about 11 minutes (500000 rungs of 2 samples), not unbounded.
WORK_MAX = 1_000_000


class Field(NamedTuple):
    kind: type
    lower: float = -math.inf
    upper: float = math.inf


# Every number a scenario can set, top-level or in a configuration block;
# g_values bounds each rung of the validate ladder.
FIELDS = {
    "eta": Field(float, 0.0, 1.0),
    "Omega": Field(float, 0.0, OMEGA_MAX),
    "G": Field(complex),
    "t_end": Field(float, T_END_MIN, T_END_MAX),
    "samples": Field(int, 2, SAMPLES_MAX),
    "g_values": Field(float, G_RUNG_MIN, G_RUNG_MAX),
    **dict.fromkeys(("omega_eg", "omega_1g", "omega_2g", "omega_a", "omega_b"), Field(float)),
    **dict.fromkeys(("kappa_a", "kappa_b"), Field(float, KAPPA_MIN)),
    **dict.fromkeys(("G_1e", "G_2e", "G_g1", "G_g2"), Field(complex)),
}
_EXPECTED = {float: "a number", int: "an integer", complex: "a number or a [re, im] pair"}


def read_field(key: str, value, where: str):
    """value checked as FIELDS[key]: type, finiteness, then bounds.

    A complex field takes a number or a [re, im] pair. Raises ScenarioError
    naming where.
    """
    kind, lower, upper = FIELDS[key]
    parts = value if kind is complex and isinstance(value, list) and len(value) == 2 else [value]
    numeric = int if kind is int else (int, float)
    if any(isinstance(v, bool) or not isinstance(v, numeric) for v in parts):
        raise ScenarioError(f"{where}: expected {_EXPECTED[kind]}")
    try:
        x = kind(*parts)
    except OverflowError:  # an integer literal beyond the float range
        x = math.inf
    if kind is not int and not cmath.isfinite(x):
        raise ScenarioError(f"{where}: must be finite")
    if kind is not complex and not lower <= x <= upper:
        raise ScenarioError(f"{where}: must lie in [{lower:g}, {upper:g}]")
    return x


def _within_budget(count: int, samples: int, what: str, where: str) -> None:
    if count * samples > WORK_MAX:
        raise ScenarioError(f"{where}: {count} {what} of {samples} samples exceed the budget of "
                            f"{WORK_MAX} samples per command")


def _read(obj: dict, key: str, path: str, default=None):
    return read_field(key, obj[key], f"{path}.{key}") if key in obj else default


def _block(obj: dict, key: str, path: str, cls):
    """The explicit configuration block obj[key], one read_field per field of cls."""
    where = f"{path}.{key}"
    block = obj[key]
    if not isinstance(block, dict):
        raise ScenarioError(f"{where}: expected an object")
    fields = dataclasses.fields(cls)
    _check_keys(block, tuple(f.name for f in fields), where)
    for f in fields:
        if f.name not in block and f.default is dataclasses.MISSING:
            raise ScenarioError(f"{where}.{f.name}: required")
    values = {k: read_field(k, v, f"{where}.{k}") for k, v in block.items()}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


class Scenario(NamedTuple):
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
    g_values: tuple[float, ...] = (0.2, 0.1, 0.05)


_PHYSICS_KEYS = tuple(k for k in Scenario._fields if k != "g_values")
_VALIDATE_KEYS = ("name", "mode", "g_values", "Omega", "samples")


def parse_scenario(obj: dict) -> Scenario:
    path = "scenario"
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

    omega = _read(obj, "Omega", path, default=1.0 if mode == "validate" else None)
    defaults = Scenario._field_defaults
    samples = _read(obj, "samples", path, default=151 if mode == "validate" else defaults["samples"])

    if mode == "validate":
        gv = obj.get("g_values", list(defaults["g_values"]))
        if not isinstance(gv, list) or len(gv) < 2:
            raise ScenarioError(f"{path}.g_values: expected a list of at least two numbers")
        _within_budget(len(gv), samples, "rungs", f"{path}.g_values")
        g_values = tuple(
            read_field("g_values", x, f"{path}.g_values[{i}]") for i, x in enumerate(gv)
        )
        rungs = set()
        for i, g in enumerate(g_values):  # equal rungs give equal deviations, which cannot shrink
            if g in rungs:
                raise ScenarioError(
                    f"{path}.g_values[{i}]: repeats the coupling {g:g} of an earlier rung"
                )
            rungs.add(g)
        return Scenario(name=name, mode=mode, Omega=omega, samples=samples, g_values=g_values)

    g = _read(obj, "G", path)
    explicit = [k for k in ("levels", "cavity", "couplings") if k in obj]
    if omega is not None and explicit:
        raise ScenarioError(f"{path}: give either Omega/G or levels/cavity/couplings, not both")
    levels = cavity = couplings = None
    if omega is None:
        if g is not None:
            raise ScenarioError(f"{path}.G: only meaningful together with Omega")
        if len(explicit) != 3:
            raise ScenarioError(f"{path}: need levels, cavity and couplings (or the Omega shortcut)")
        levels = _block(obj, "levels", path, LevelScheme)
        cavity = _block(obj, "cavity", path, CavityParams)
        couplings = _block(obj, "couplings", path, CouplingSet)
    if "t_end" not in obj:
        raise ScenarioError(f"{path}.t_end: required")

    return Scenario(
        name=name,
        mode=mode,
        eta=_read(obj, "eta", path, default=defaults["eta"]),
        Omega=omega,
        G=complex(1.0) if (omega is not None and g is None) else g,
        levels=levels,
        cavity=cavity,
        couplings=couplings,
        t_end=_read(obj, "t_end", path),
        samples=samples,
    )


def _distinct_keys(pairs: list) -> dict:
    """One JSON object of the file; a repeated key, which dict() would overwrite, is refused."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ScenarioError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh, object_pairs_hook=_distinct_keys)
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8, deep nesting, an overlong int
        raise ScenarioError(f"{path} is not valid JSON: {exc}") from exc
    return parse_scenario(obj)


class RunResult(NamedTuple):
    """A run's summary, and its series; a failed sweep point has "error" and no series."""

    summary: dict
    series: TimeSeries | None = None


def _summarize(sc: Scenario, series: TimeSeries, rates) -> dict:
    alpha = tuned_alpha(rates)
    pred = None if alpha is None else beat_frequency(rates, sc.eta)
    meas = BeatMeasurement(None, "none", "not measured")
    if len(series) >= 8:
        try:
            meas = measure_beats(series, allow_tone_fit=True)
        except ValueError as exc:
            meas = BeatMeasurement(None, "none", f"measurement failed: {exc}")
    gg = series.population("g")
    slope = np.gradient(gg, series.times)
    return {
        "name": sc.name,
        "mode": sc.mode,
        "eta": sc.eta,
        # the nine real rates; the cross coefficients are reported through alpha
        "rates": {k: v for k, v in rates._asdict().items() if not k.startswith("cross_")},
        "alpha": None if alpha is None else [float(alpha.real), float(alpha.imag)],
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


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def run_scenario(sc: Scenario) -> RunResult:
    """Execute one scenario.

    DriftError propagates and nothing is returned. Any other ValueError or
    ArithmeticError the model raises (such as an overflow from huge rates)
    becomes a ScenarioError naming the scenario. numpy's floating-point
    warnings are silenced: the finiteness checks that follow an overflow
    raise, so bad input reads as its one clean error.
    """
    try:
        if sc.mode == "validate":
            check = composite_mod.validate_elimination(
                g_values=sc.g_values, Omega=sc.Omega, samples=sc.samples
            )
            return RunResult({"name": sc.name, "mode": sc.mode, **check._asdict(),
                              "monotone": check.monotone})

        couplings, levels, cavity = sc.couplings, sc.levels, sc.cavity
        if sc.Omega is not None:
            couplings, levels, cavity = tuned_configuration(sc.Omega, sc.G)
        rates = derive_rates(couplings, levels, cavity)
        t = np.linspace(0.0, sc.t_end, sc.samples)

        if sc.mode == "reduced":
            series = evolve(pure_state(0, 4), t, rates, eta=sc.eta)
        elif sc.mode == "analytic":
            series = symmetric_solution(t, rates, eta=sc.eta)
        else:
            if sc.eta != 1.0:
                raise ScenarioError("the full model has no interference dial; eta must stay 1")
            system = composite_mod.build_system(couplings, levels, cavity)
            series = composite_mod.evolve_composite(pure_state(0, system.dim), t, system)

        return RunResult(_summarize(sc, series, rates), series)
    except ScenarioError:
        raise
    except (ValueError, ArithmeticError) as exc:
        raise ScenarioError(f"{sc.name}: {exc}") from exc


def write_csv(series: TimeSeries, path: str) -> None:
    """All channels at 17 significant digits, LF line endings.

    Every value is written exactly as "%.17g" (or f"{x:.17g}") formats it.
    Rows go out in equal blocks of at most CSV_BLOCK (1601 rows as 801 + 800)
    through `_csvformat.format_rows`, which builds every value's text of a
    block from lookup tables in numpy and keeps "%.17g" itself for the few
    values whose rounding it cannot settle. One row block and one cell
    buffer, both sized for the first block, serve every block of the file.
    """
    ch = series.channels()
    n = len(series)
    # the fewest blocks of at most CSV_BLOCK rows, all of one size but the last
    rows = -(-n // -(-n // CSV_BLOCK)) if n else 1
    block = np.empty((rows, len(CSV_COLUMNS)))
    buf = bytearray(block.size * CELL)
    with open(path, "wb") as fh:
        fh.write((",".join(CSV_COLUMNS) + "\n").encode())
        for a in range(0, n, rows):
            part = block[:n - a]
            for j, c in enumerate(CSV_COLUMNS):
                part[:, j] = ch[c][a:a + rows]
            fh.write(format_rows(part, buf))


def write_summary(summary: dict, path: str) -> None:
    """The summary as JSON with a two-space indent and a final newline.

    The text is encoded whole and written in one call; json.dump would hand
    every token to the file separately. The bytes are the same.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(summary, indent=2) + "\n")


def sweep_variant(sc: Scenario, param: str, value: float) -> Scenario:
    """Derive the scenario for one sweep point; value is checked as the file field is.

    Omega and G sweeps keep the evenly tuned shortcut honest (the mode
    frequencies track the moving levels), so they require a shortcut
    scenario to begin with.
    """
    if param not in SWEEP_PARAMS:
        raise ScenarioError(f"sweep parameter must be one of {', '.join(SWEEP_PARAMS)}")
    if param in ("Omega", "G") and sc.Omega is None:
        raise ScenarioError(f"{param} sweep needs the Omega/G shortcut configuration")
    name = _point_name(sc, param, value)
    value = read_field(param, value, f"{name}.{param}")
    return sc._replace(name=name, **{param: value})


def _point_name(sc: Scenario, param: str, value: float) -> str:
    return f"{sc.name}_{param}_{value:g}"


def run_sweep(sc: Scenario, param: str, values: list[float]) -> list[RunResult]:
    """Run one scenario per value; a failed point is recorded, not fatal.

    Each point's outputs are named after its value as %g prints it, so two values
    that print alike are rejected before any point runs, as are more points than
    WORK_MAX samples hold.
    """
    if sc.mode == "validate":
        raise ScenarioError("sweep applies to the physics modes, not validate")
    if not values:
        raise ScenarioError("sweep needs at least one value")
    _within_budget(len(values), sc.samples, "points", "--values")
    names = [_point_name(sc, param, v) for v in values]
    seen = set()
    for v, name in zip(values, names):
        if name in seen:
            raise ScenarioError(f"sweep value {v!r}: names its run {name}, as an earlier value does")
        seen.add(name)
    results = []
    for v, name in zip(values, names):
        try:
            results.append(run_scenario(sweep_variant(sc, param, v)))
        except ScenarioError as exc:
            # a bad point is recorded under its would-be name, the rest still run
            results.append(RunResult({"name": name, "mode": sc.mode, "error": str(exc)}))
    return results
