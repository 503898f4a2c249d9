"""Seeded workload generation for the cavity-beats benchmark.

A workload is a list of ops. Each op is one CLI invocation, given as an argv
list in which "{scenarios}" stands for the directory of generated scenario
files and "{out}" for the op's output directory, plus what the checks need:
the files the op must write and the number of rows in each CSV.

The same (workload, seed, size) always gives byte-identical scenario files
and op lists. Parameters are drawn from narrow strata (one draw per stratum)
so that every seed gets the same number of ops on each branch and about the
same amount of work; only the values inside the strata change.

main() is the timed set-up step: setup_step.py runs it in a fresh
interpreter, which imports cavity_beats.cli and writes one workload's plan
into --out.
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np

from cavity_beats.analytic import beat_frequency
from cavity_beats.model import CouplingSet, derive_rates, midpoint_levels

WORKLOADS = ("reduced-scan", "full-model", "closed-form-io")
SIZES = ("full", "tiny")

# The presets' splittings as documented, kept here rather than read from the
# CLI so that the expected-file check does not follow a change to the CLI.
PRESET_OMEGAS = {"fig3": (0.5, 1.0, 3.0), "fig4": (0.0, 0.5, 1.0, 3.0)}

# Omega ranges of the tuned branches at G = 1. Resonant: degenerate or nearly
# degenerate levels, no beats at full interference. Slow: beats that the
# crossing count cannot time, so measure_beats falls back to the tone fit.
# Fast: five or more clean zero crossings.
RESONANT = (0.0, 0.3)
SLOW = (0.6, 1.25)
FAST = (2.0, 4.0)
ETA_BEATS = (0.3, 1.0)

# Fixed tuned cases run by every workload outside the timed passes; their
# largest deviation from the closed form is max_dev_closed_form. Exact
# resonance, the paper's Omega = 1 beat, and a fast beat with a large RK error.
ANCHOR_OMEGAS = (0.0, 1.0, 2.5)


def _window(omega: float, eta: float) -> float:
    """The presets' window: t_end = max(8, 3.5/2f), or 8 when no beats are predicted."""
    levels, cavity = midpoint_levels(omega + 1.0, omega, omega)
    pred = beat_frequency(derive_rates(CouplingSet.uniform(1.0), levels, cavity), eta)
    return round(max(8.0, 3.5 / pred.two_f) if pred.beats else 8.0, 6)


def _strata(rng: np.random.Generator, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw from each of n equal slices of [lo, hi], shuffled."""
    edges = np.linspace(lo, hi, n + 1)
    draws = [round(float(rng.uniform(a, b)), 6) for a, b in zip(edges[:-1], edges[1:])]
    return [draws[i] for i in rng.permutation(n)]


def _tuned(name: str, mode: str, omega: float, eta: float, samples: int) -> dict:
    return {
        "name": name, "mode": mode, "Omega": omega, "G": 1.0, "eta": eta,
        "t_end": _window(omega, eta), "samples": samples,
    }


def _explicit(rng: np.random.Generator, name: str, omega: float, samples: int) -> dict:
    """A non-tuned configuration: detuned modes, unequal linewidths and couplings.

    It starts from the midpoint layout at the given splitting and breaks
    every symmetry the closed form needs, so no beat frequency is predicted.
    """
    levels, cavity = midpoint_levels(omega + 1.0, omega, omega)

    def u(a, b):
        return round(float(rng.uniform(a, b)), 6)

    phase = u(0.1, 0.6)
    g2e = u(0.8, 1.1)
    return {
        "name": name,
        "mode": "reduced",
        "eta": u(0.0, 1.0),
        "levels": {
            "omega_eg": levels.omega_eg,
            "omega_1g": levels.omega_1g,
            "omega_2g": levels.omega_2g,
        },
        "cavity": {
            "omega_a": round(cavity.omega_a + u(-0.3, 0.3), 6),
            "omega_b": round(cavity.omega_b + u(-0.3, 0.3), 6),
            "kappa_a": 1.0,
            "kappa_b": u(0.8, 1.25),
        },
        "couplings": {
            "G_1e": u(0.8, 1.1),
            "G_2e": [round(g2e * np.cos(phase), 6), round(g2e * np.sin(phase), 6)],
            "G_g1": u(0.8, 1.1),
            "G_g2": u(0.8, 1.1),
        },
        "t_end": 12.0,
        "samples": samples,
    }


def _run_op(sc: dict) -> dict:
    name = sc["name"]
    return {
        "id": name,
        "argv": ["run", "{scenarios}/" + name + ".json", "--out-dir", "{out}"],
        "files": [name + ".csv", name + ".summary.json"],
        "rows": sc["samples"],
    }


def _sweep_op(sc: dict, param: str, values: list[float]) -> dict:
    name = sc["name"]
    return {
        "id": name,
        "argv": [
            "sweep", "{scenarios}/" + name + ".json", "--param", param,
            "--values", ",".join(f"{v:g}" for v in values), "--out-dir", "{out}",
        ],
        "files": [f"{name}_{param}_{v:g}.csv" for v in values] + [name + ".sweep.json"],
        "rows": sc["samples"],
    }


def _preset_op(which: str, mode: str, etas: tuple[float, ...]) -> dict:
    names = [f"{which}_omega{om:g}_eta{eta:g}" for om in PRESET_OMEGAS[which] for eta in etas]
    files = [n + ext for n in names for ext in (".csv", ".summary.json")]
    return {
        "id": f"{which}-{mode}",
        "argv": ["preset", which, "--mode", mode, "--out-dir", "{out}"],
        "files": files + [which + ".summary.json"],
        "rows": 1601,
    }


def _validate_op(g_values: str) -> dict:
    return {
        "id": "validate",
        "argv": ["validate", "--g-values", g_values, "--out-dir", "{out}"],
        "files": ["validate.summary.json"],
        "rows": 0,
    }


def _reduced_scan(rng, tiny: bool) -> tuple[list[dict], list[dict]]:
    # Two runs per branch plus the sweep, nine ops: op_p90_s is then the
    # slowest op, the sweep, rather than whichever run drew the costliest values.
    samples = 401 if tiny else 1601
    n = 1 if tiny else 2
    scenarios = [_tuned("rs_res0", "reduced", 0.0, round(float(rng.uniform(0, 1)), 6), samples)]
    if not tiny:
        scenarios.append(_tuned(
            "rs_res1", "reduced", round(float(rng.uniform(1e-3, RESONANT[1])), 6),
            round(float(rng.uniform(0, 1)), 6), samples,
        ))
    for branch, (lo, hi) in (("slow", SLOW), ("fast", FAST)):
        etas = _strata(rng, *ETA_BEATS, n)
        for k, om in enumerate(_strata(rng, lo, hi, n)):
            scenarios.append(_tuned(f"rs_{branch}{k}", "reduced", om, etas[k], samples))
    for k, om in enumerate(_strata(rng, SLOW[0], FAST[1], n)):
        scenarios.append(_explicit(rng, f"rs_xcfg{k}", om, samples))
    base = _tuned("rs_sweep", "reduced", _strata(rng, *SLOW, 1)[0], 1.0, samples)
    values = [0.0, 1.0] if tiny else [0.0, 0.5, 1.0]
    ops = [_run_op(sc) for sc in scenarios] + [_sweep_op(base, "eta", values)]
    return scenarios + [base], ops


def _closed_form_io(rng, tiny: bool) -> tuple[list[dict], list[dict]]:
    # One resonant, two slow and one fast run: the resonant run costs about
    # what a slow one does (both end in the tone fit), so the median op falls
    # inside one cluster of latencies rather than in the gap between two.
    samples = 2001 if tiny else 20001
    scenarios = [_tuned("cf_res", "analytic", 0.0, round(float(rng.uniform(0, 1)), 6), samples)]
    for branch, (lo, hi), n in (("slow", SLOW, 1 if tiny else 2), ("fast", FAST, 1)):
        etas = _strata(rng, *ETA_BEATS, n)
        for k, om in enumerate(_strata(rng, lo, hi, n)):
            scenarios.append(_tuned(f"cf_{branch}{k}", "analytic", om, etas[k], samples))
    ops = [_run_op(sc) for sc in scenarios] + [_preset_op("fig4", "analytic", (0.0, 1.0))]
    return scenarios, ops


def _full_model(rng, tiny: bool) -> tuple[list[dict], list[dict]]:
    # The default ladder and the fig3 preset have no free parameters to draw,
    # so the seed changes nothing here.
    ladder = "0.4,0.2" if tiny else "0.2,0.1,0.05"
    return [], [_validate_op(ladder), _preset_op("fig3", "composite", (1.0,))]


def _anchor_probe(tiny: bool) -> tuple[dict, dict]:
    base = _tuned("anchor", "reduced", 1.0, 1.0, 401 if tiny else 1601)
    return base, _sweep_op(base, "Omega", list(ANCHOR_OMEGAS))


def generate(workload: str, seed: int, size: str = "full") -> dict:
    """The plan of one workload: scenario dicts, timed ops and the probe op."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    build = {"reduced-scan": _reduced_scan, "full-model": _full_model,
             "closed-form-io": _closed_form_io}[workload]
    scenarios, ops = build(rng, size == "tiny")
    anchor, probe = _anchor_probe(size == "tiny")
    return {
        "workload": workload,
        "seed": seed,
        "size": size,
        "scenarios": scenarios + [anchor],
        "ops": ops,
        "probe": probe,
        "anchors": [{"Omega": om, "eta": 1.0, "t_end": anchor["t_end"],
                     "samples": anchor["samples"], "csv": f"anchor_Omega_{om:g}.csv"}
                    for om in ANCHOR_OMEGAS],
    }


def write_plan(plan: dict, directory: str) -> None:
    """Scenario files under directory/scenarios, the plan in directory/plan.json."""
    scen_dir = os.path.join(directory, "scenarios")
    os.makedirs(scen_dir, exist_ok=True)
    for sc in plan["scenarios"]:
        with open(os.path.join(scen_dir, sc["name"] + ".json"), "w", encoding="utf-8") as fh:
            json.dump(sc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    with open(os.path.join(directory, "plan.json"), "w", encoding="utf-8") as fh:
        json.dump(plan, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="write one workload's scenario files and op list")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--size", default="full", choices=SIZES)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    import cavity_beats.cli  # noqa: F401  (the import is part of the timed set-up)

    write_plan(generate(args.workload, args.seed, args.size), args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
