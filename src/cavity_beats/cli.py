"""Command line front end: run, sweep, preset families, validation ladder.

Exit codes: 0 success, 2 bad scenario input or an output location that
cannot be written, 3 drift beyond tolerance or failed sweep points (nothing
partial is written for a drifted run), 4 reduced-versus-full validation
failure. Everything printed about a run is read from its summary.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from . import scenario as scn
from .analytic import beat_frequency
from .linalg import DriftError
from .model import derive_rates, tuned_configuration

EXIT_OK = 0
EXIT_SCENARIO = 2
EXIT_DRIFT = 3
EXIT_VALIDATION = 4

PRESET_OMEGAS = {"fig3": (0.5, 1.0, 3.0), "fig4": (0.0, 0.5, 1.0, 3.0)}


def _values(text: str, flag: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise scn.ScenarioError(f"{flag}: {exc}") from exc


def _write_series(result: scn.RunResult, out_dir: str) -> None:
    if result.series is not None:
        csv_path = os.path.join(out_dir, f"{result.summary['name']}.csv")
        scn.write_csv(result.series, csv_path)
        print(f"wrote {csv_path}")


def _emit(result: scn.RunResult, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    _write_series(result, out_dir)
    s = result.summary
    summary_path = os.path.join(out_dir, f"{s['name']}.summary.json")
    scn.write_summary(s, summary_path)
    print(f"wrote {summary_path}")
    if "two_f_predicted" in s:
        print(
            f"  beats predicted: {s['beats_predicted']}"
            f" (2f = {s['two_f_predicted']}), measured: {s['two_f_measured']}"
            f" [{s['measure_method']}]"
        )


def _run(sc: scn.Scenario, out_dir: str) -> int:
    result = scn.run_scenario(sc)
    _emit(result, out_dir)
    s = result.summary
    if s["mode"] != "validate":
        return EXIT_OK
    for g, dev in zip(s["g_values"], s["deviations"]):
        print(f"  g = {g:<8g} max deviation = {dev:.6e}")
    if not s["monotone"]:
        print("validation FAILED: deviations do not shrink with the coupling")
        return EXIT_VALIDATION
    print("validation passed: deviations shrink with the coupling")
    return EXIT_OK


def _cmd_run(args) -> int:
    return _run(scn.load_scenario(args.scenario), args.out_dir)


def _cmd_sweep(args) -> int:
    sc = scn.load_scenario(args.scenario)
    values = _values(args.values, "--values")
    results = scn.run_sweep(sc, args.param, values)
    os.makedirs(args.out_dir, exist_ok=True)
    rows = []
    failed = 0
    for value, result in zip(values, results):
        _write_series(result, args.out_dir)
        if "error" in result.summary:
            failed += 1
            print(f"  point {value:g} failed: {result.summary['error']}")
        # strict JSON: a non-finite value is written as in the point's name
        shown = value if math.isfinite(value) else f"{value:g}"
        rows.append({"value": shown, "summary": result.summary})
    combined = os.path.join(args.out_dir, f"{sc.name}.sweep.json")
    scn.write_summary({"name": sc.name, "param": args.param, "runs": rows}, combined)
    print(f"wrote {combined}")
    return EXIT_DRIFT if failed else EXIT_OK


def _preset_scenarios(which: str, eta_values, mode: str) -> list[scn.Scenario]:
    cases = []
    for omega in PRESET_OMEGAS[which]:
        rates = derive_rates(*tuned_configuration(omega, 1.0))
        for eta in eta_values:
            pred = beat_frequency(rates, eta)
            t_end = max(8.0, 3.5 / pred.two_f) if pred.beats else 8.0
            cases.append(scn.parse_scenario({
                "name": f"{which}_omega{omega:g}_eta{eta:g}", "mode": mode, "eta": eta,
                "Omega": omega, "t_end": t_end,
            }))
    return cases


def _cmd_preset(args) -> int:
    if args.eta is not None:
        eta_values = (scn.read_field("eta", args.eta, "scenario.eta"),)
    elif args.mode == "composite":
        eta_values = (1.0,)  # the full model has no interference dial
    else:
        eta_values = (0.0, 1.0)
    runs = []
    for sc in _preset_scenarios(args.which, eta_values, args.mode):
        result = scn.run_scenario(sc)
        _emit(result, args.out_dir)
        runs.append(result.summary)
    combined = os.path.join(args.out_dir, f"{args.which}.summary.json")
    scn.write_summary({"preset": args.which, "runs": runs}, combined)
    print(f"wrote {combined}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    sc = scn.parse_scenario({
        "name": args.name, "mode": "validate", "Omega": args.omega,
        "samples": args.samples, "g_values": _values(args.g_values, "--g-values"),
    })
    return _run(sc, args.out_dir)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every main() call.

    Building it costs about a millisecond of argparse (every add_argument makes a
    help formatter), which a process driving main() repeatedly pays only once.
    Each subcommand's func default is bound to its _cmd_* function here, so
    patching a _cmd_* function after the first call has no effect.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", default=".", help="directory for CSV and JSON outputs")

    p = argparse.ArgumentParser(
        prog="cavity-beats",
        description="Cascade emission in a damped two-mode cavity: reduced, analytic and full dynamics.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", parents=[common], help="run one scenario JSON file")
    run_p.add_argument("scenario", help="path to the scenario JSON")
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", parents=[common], help="run a scenario over parameter values")
    sweep_p.add_argument("scenario", help="path to the base scenario JSON")
    sweep_p.add_argument("--param", required=True, choices=scn.SWEEP_PARAMS)
    sweep_p.add_argument("--values", required=True, help="comma-separated values")
    sweep_p.set_defaults(func=_cmd_sweep)

    preset_p = sub.add_parser("preset", parents=[common], help="run a stored configuration family")
    preset_p.add_argument("which", choices=sorted(PRESET_OMEGAS))
    preset_p.add_argument("--eta", type=float, default=None,
                          help="single interference weight (default: both 0 and 1)")
    preset_p.add_argument("--mode", choices=("reduced", "analytic", "composite"),
                          default="reduced")
    preset_p.set_defaults(func=_cmd_preset)

    val_p = sub.add_parser("validate", parents=[common],
                           help="compare reduced and full dynamics over a coupling ladder")
    val_p.add_argument("--g-values", default="0.2,0.1,0.05")
    val_p.add_argument("--omega", type=float, default=1.0)
    val_p.add_argument("--samples", type=int, default=151)
    val_p.add_argument("--name", default="validate")
    val_p.set_defaults(func=_cmd_validate)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except scn.ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except DriftError as exc:
        print(f"evolution drifted out of tolerance: {exc}", file=sys.stderr)
        return EXIT_DRIFT
    except OSError as exc:
        print(f"cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_SCENARIO


if __name__ == "__main__":
    sys.exit(main())
