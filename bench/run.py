"""Seeded end-to-end and per-layer benchmark of the cavity-beats CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload reduced-scan --seed 7 --seconds 15 --trace 0

One client runs a closed loop of passes; a pass is every op of the workload
once, and an op is one in-process cavity_beats.cli.main([...]) call on the
generated scenario files. Passes repeat until --seconds of wall time have
passed, with at least two passes so that every op is rerun and its
outputs compared byte for byte. Every op is checked; a failed
check counts against ok_rate and never stops the run.

Every reported time is scaled to a reference host speed by the host clock
(hostclock.py), because on a shared machine the speed of the same code
moves by a third within minutes; the wall times are kept in the context.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced passes and reports per-layer calls and self times from the traced
ones, per traced pass, with the tracing overhead. The last stdout line is
the JSON result; the lines above it print every metric with its unit and
the run context. Results and spans are also written under .bench_out/.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads. The ops are single-client and their matrices
# are at most 16x16 (tall only in the tone-fit least squares), where extra
# BLAS threads add jitter rather than speed on a small shared machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402

import hostclock  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_REPS = 5
BEAT_TOL = 0.02  # acceptance criterion 3: measured 2f within 2% of predicted

CSV_HEADER = "t,rho_ee,rho_11,rho_22,rho_gg,re_rho_12,im_rho_12,abs_rho_12"
RUN_FIELDS = (
    "name", "mode", "eta", "rates", "alpha", "beats_predicted", "two_f_predicted",
    "two_f_measured", "measure_method", "measure_detail", "max_abs_rho_12",
    "min_rho_gg_slope", "max_drift_correction", "diagnostics", "partial",
)
VALIDATE_FIELDS = ("name", "mode", "g_values", "deviations", "monotone")

# Layers whose calls and self time are reported (see tracing.SPAN_TARGETS).
LAYER_CALLS = (
    "model.derive_rates", "reduced.evolve", "reduced.rhs", "integrator.integrate",
    "linalg.hermitize_and_check", "composite.lindblad_rhs", "analytic.measure_beats",
)
LAYER_SELF = (
    "model.derive_rates", "reduced.evolve", "reduced.rhs", "integrator.integrate",
    "linalg.hermitize_and_check", "composite.build_system", "composite.lindblad_rhs",
    "composite.evolve_composite", "composite.reduced_from_composite",
    "composite.validate_elimination", "analytic.symmetric_solution",
    "analytic.measure_beats", "scenario.load_scenario", "scenario.run_scenario",
    "scenario.write_csv", "scenario.write_summary", "cli.main",
)


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no package source, broken set-up)."""


def _checkout() -> tuple[str, str]:
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "cavity_beats", "__init__.py")):
        raise SetupError(f"no package source at {os.path.join(src, 'cavity_beats')}")
    return root, src


def _import_cli(src: str):
    sys.path.insert(0, src)
    import cavity_beats
    import cavity_beats.cli

    if not os.path.abspath(cavity_beats.__file__).startswith(src + os.sep):
        raise SetupError(f"cavity_beats imported from {cavity_beats.__file__}, not {src}")
    return cavity_beats.cli


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _tree_hashes(directory: str) -> dict[str, str]:
    out = {}
    for base, _, files in os.walk(directory):
        for f in files:
            path = os.path.join(base, f)
            out[os.path.relpath(path, directory)] = _sha256(path)
    return out


def _setup(workload: str, seed: int, size: str, src: str,
           work: str) -> tuple[list[float], list[float], str, bool]:
    """Time SETUP_REPS fresh interpreters that import the CLI and write the plan.

    Each one runs its own host clock (setup_step.py); its wall time is scaled
    by its own ticks. Returns the scaled and the wall seconds.
    """
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "setup_step.py"),
           "--workload", workload, "--seed", str(seed), "--size", size]
    scaled, walls, trees, last = [], [], [], ""
    for k in range(SETUP_REPS):
        last = os.path.join(work, f"setup{k}")
        t0 = time.perf_counter()
        proc = subprocess.run(cmd + ["--out", last], env=env, capture_output=True,
                              text=True, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SetupError(f"workload generation failed:\n{proc.stderr}")
        ticks = json.loads(proc.stdout.strip().splitlines()[-1])
        walls.append(wall)
        scaled.append(hostclock.scale(wall, ticks["ticks"], ticks["tick_s"]))
        trees.append(_tree_hashes(last))
    return scaled, walls, last, all(t == trees[0] for t in trees)


# -- one op ------------------------------------------------------------------

def _run_op(cli, argv: list[str], tracer, clock) -> dict:
    """Call the CLI in-process with stdout, stderr and warnings captured."""
    buf = io.StringIO()
    code, error = None, None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with clock.window() as window:
            try:
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                    if tracer is None:
                        code = cli.main(argv)
                    else:
                        code = tracer.span("cli.main", cli.main, argv)
            except SystemExit as exc:  # argparse rejects its arguments this way
                code = exc.code
            except Exception as exc:  # an op that raises is a failed op, not a crash
                error = f"{type(exc).__name__}: {exc}"
    positivity = sum(str(w.message).startswith("positivity violated") for w in caught)
    return {"code": code, "error": error, "window": window, "stdout": buf.getvalue(),
            "positivity_warnings": positivity}


def _check_summary(s: dict, where: str, problems: list[str]) -> None:
    if s.get("mode") == "validate":
        missing = [k for k in VALIDATE_FIELDS if k not in s]
        if missing:
            problems.append(f"{where}: missing {missing}")
        elif s["monotone"] is not True:
            problems.append(f"{where}: validation not monotone {s['deviations']}")
        return
    missing = [k for k in RUN_FIELDS if k not in s]
    if missing:
        problems.append(f"{where}: missing {missing}")
        return
    if s["partial"]:
        problems.append(f"{where}: partial result")
    pred, meas = s["two_f_predicted"], s["two_f_measured"]
    if pred is not None and meas is not None and abs(meas - pred) > BEAT_TOL * pred:
        problems.append(f"{where}: 2f measured {meas} vs predicted {pred}")


def _check_op(op: dict, out: str, res: dict) -> tuple[list[str], dict[str, str]]:
    """Every check on one op; returns the problems and the output hashes."""
    problems = []
    if res["error"] is not None:
        problems.append(f"raised {res['error']}")
    elif res["code"] != 0:
        problems.append(f"exit code {res['code']}, expected 0")
    written = sorted(os.listdir(out)) if os.path.isdir(out) else []
    if written != sorted(op["files"]):
        problems.append(f"wrote {written}, expected {sorted(op['files'])}")
    hashes = {}
    for name in written:
        path = os.path.join(out, name)
        with open(path, "rb") as fh:
            data = fh.read()
        hashes[name] = hashlib.sha256(data).hexdigest()
        if name.endswith(".csv"):
            lines = data.decode("utf-8").split("\n")
            if lines[0] != CSV_HEADER or len(lines) != op["rows"] + 2 or lines[-1] != "":
                problems.append(f"{name}: header or row count differs ({len(lines) - 2} rows)")
            continue
        try:
            obj = json.loads(data)
        except json.JSONDecodeError as exc:
            problems.append(f"{name}: not JSON ({exc})")
            continue
        if "runs" in obj:
            for k, run in enumerate(obj["runs"]):
                _check_summary(run.get("summary", run), f"{name} run {k}", problems)
        else:
            _check_summary(obj, name, problems)
    if op["id"] == "validate" and "validation passed" not in res["stdout"]:
        problems.append("validate did not report a pass")
    return problems, hashes


# -- accuracy probe ----------------------------------------------------------

def _anchor_deviation(plan: dict, out: str) -> float:
    """Largest |rho_reduced - symmetric_solution| over the anchor CSVs."""
    from cavity_beats.analytic import symmetric_solution
    from cavity_beats.model import CouplingSet, derive_rates, midpoint_levels

    worst = 0.0
    for a in plan["anchors"]:
        data = np.loadtxt(os.path.join(out, a["csv"]), delimiter=",", skiprows=1)
        t = np.linspace(0.0, a["t_end"], a["samples"])
        levels, cavity = midpoint_levels(a["Omega"] + 1.0, a["Omega"], a["Omega"])
        closed = symmetric_solution(t, derive_rates(CouplingSet.uniform(1.0), levels, cavity),
                                    eta=a["eta"]).channels()
        for col, name in enumerate(CSV_HEADER.split(",")[:7]):
            worst = max(worst, float(np.max(np.abs(data[:, col] - closed[name]))))
    return worst


# -- metrics -----------------------------------------------------------------

def _nearest_rank(values: list[float], q: float) -> float:
    """The smallest observed value with at least a share q of values at or below it."""
    return sorted(values)[math.ceil(q * len(values)) - 1]


def _layer_metrics(tracer, warnings_traced: int, pass_traced: list[float],
                   pass_plain: list[float], traced_speed: float, traced_wall: float) -> dict:
    """Per traced pass: calls and self time of each layer, ratios, overhead.

    Self times are span wall times scaled like pass_s: the traced passes'
    scaled time over their wall time, which also takes the ticks out.
    """
    totals = tracer.layer_totals()
    counters = tracer.counters
    n = len(pass_traced)

    def calls(layer):
        return totals.get(layer, {}).get("calls", 0)

    m = {}
    for layer in LAYER_CALLS:
        m[f"{layer}.calls"] = (calls(layer) / n, "count")
    for layer in LAYER_SELF:
        m[f"{layer}.self_s"] = (totals.get(layer, {}).get("self_s", 0.0) * traced_speed / n,
                                "s")
    samples = counters["integrator.samples"]
    rhs = calls("reduced.rhs") + calls("composite.lindblad_rhs")
    beats = calls("analytic.measure_beats")
    m["integrator.rhs_per_sample"] = (rhs / samples if samples else 0.0, "calls/sample")
    m["reduced.positivity_warnings"] = (warnings_traced / n, "count")
    m["analytic.measure_beats.measured_ratio"] = (
        counters["analytic.measure_beats.measured"] / beats if beats else 0.0, "ratio")
    m["analytic.measure_beats.tone_fit_share"] = (
        counters["analytic.tone_fit.calls"] / beats if beats else 0.0, "ratio")
    m["scenario.write_csv.bytes"] = (counters["scenario.write_csv.bytes"] / n, "B")
    traced = statistics.median(pass_traced)
    m["trace.pass_s"] = (traced, "s")
    m["trace.overhead_s"] = (traced - statistics.median(pass_plain), "s")
    m["trace.coverage"] = (totals.get("cli.main", {}).get("total_s", 0.0) / traced_wall,
                           "ratio")
    return m


def _context(args, root: str, src: str) -> dict:
    git_sha = None
    try:
        top = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], root):
            git_sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    pkg = os.path.join(src, "cavity_beats")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0" + _sha256(os.path.join(pkg, name)).encode())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "git_sha": git_sha,
        "src_sha256": digest.hexdigest(), "python": platform.python_version(),
        "numpy": np.__version__, "nproc": os.cpu_count(), "blas_threads": int(BLAS_THREADS),
    }


# -- the run -----------------------------------------------------------------

def _timed_pass(cli, plan: dict, scen_dir: str, out_root: str, tracer,
                clock) -> tuple[float, float, list]:
    """Every op once; tracer is None for an untraced pass.

    Returns the pass's scaled seconds (the sum of its ops' scaled times; an op
    too short for its own ticks borrows the pass's), its wall seconds and the
    op results, each with its scaled "seconds".
    """
    if tracer is not None:
        tracer.install()
    results = []
    try:
        with clock.window() as whole:
            for op in plan["ops"]:
                out = os.path.join(out_root, op["id"])
                argv = [a.format(scenarios=scen_dir, out=out) for a in op["argv"]]
                results.append((op, out, _run_op(cli, argv, tracer, clock)))
    finally:
        if tracer is not None:
            tracer.uninstall()
    for _, _, res in results:
        res["seconds"] = res["window"].scaled(whole)
        res["wall_s"] = res["window"].wall
    return sum(r["seconds"] for _, _, r in results), whole.wall, results


def run(args) -> dict:
    root, src = _checkout()
    cli = _import_cli(src)
    import tracing

    work_parent = os.path.join(root, ".bench_work")
    os.makedirs(work_parent, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_parent)
    clock = hostclock.HostClock()
    try:
        setup_times, setup_walls, plan_dir, same_plans = _setup(args.workload, args.seed,
                                                                args.size, src, work)
        clock.start()
        with open(os.path.join(plan_dir, "plan.json"), encoding="utf-8") as fh:
            plan = json.load(fh)
        scen_dir = os.path.join(plan_dir, "scenarios")
        failures = [] if same_plans else [{"op": "setup", "pass": None,
                                           "problems": ["plans differ between set-up runs"]}]
        attempted = 1  # the set-up counts as one operation

        tracer = tracing.Tracer() if args.trace else None
        first_hashes: dict[str, dict] = {}
        op_seconds: dict[str, list[float]] = {}
        op_wall: dict[str, list[float]] = {}
        passes: list[tuple[float, float, bool]] = []  # (scaled s, wall s, traced)
        warnings_total = warnings_traced = 0
        while len(passes) < 2 or sum(w for _, w, _ in passes) < args.seconds:
            k = len(passes)
            traced = tracer is not None and k % 2 == 1
            out_root = os.path.join(work, f"p{k}")
            gc.collect()
            seconds, wall, results = _timed_pass(cli, plan, scen_dir, out_root,
                                                 tracer if traced else None, clock)
            passes.append((seconds, wall, traced))
            for op, out, res in results:
                attempted += 1
                op_seconds.setdefault(op["id"], []).append(res["seconds"])
                op_wall.setdefault(op["id"], []).append(res["wall_s"])
                warnings_total += res["positivity_warnings"]
                warnings_traced += res["positivity_warnings"] if traced else 0
                problems, hashes = _check_op(op, out, res)
                if first_hashes.setdefault(op["id"], hashes) != hashes:
                    problems.append("outputs differ from the first pass")
                if problems:
                    failures.append({"op": op["id"], "pass": k, "problems": problems})
            shutil.rmtree(out_root)

        # Accuracy probe: untimed and untraced, checked like every other op.
        probe = plan["probe"]
        out = os.path.join(work, "probe")
        argv = [a.format(scenarios=scen_dir, out=out) for a in probe["argv"]]
        res = _run_op(cli, argv, None, clock)
        attempted += 1
        problems, _ = _check_op(probe, out, res)
        if problems:
            failures.append({"op": probe["id"], "pass": None, "problems": problems})
        anchors_written = all(os.path.isfile(os.path.join(out, a["csv"])) for a in plan["anchors"])
        max_dev = _anchor_deviation(plan, out) if anchors_written else 1.0
    finally:
        clock.stop()
        shutil.rmtree(work, ignore_errors=True)

    failed = len({(f["op"], f["pass"]) for f in failures})
    pass_plain = [p for p, _, traced in passes if not traced]
    pass_traced = [p for p, _, traced in passes if traced]
    # Each op's latency is its median over the passes, which keeps a burst of
    # machine noise in one pass from deciding a percentile.
    op_medians = [statistics.median(xs) for xs in op_seconds.values()]
    if args.trace:
        traced_wall = sum(w for _, w, traced in passes if traced)
        metrics = _layer_metrics(tracer, warnings_traced, pass_traced, pass_plain,
                                 sum(pass_traced) / traced_wall, traced_wall)
    else:
        metrics = {
            "pass_s": (statistics.median(pass_plain), "s"),
            "op_p50_s": (_nearest_rank(op_medians, 0.5), "s"),
            "op_p90_s": (_nearest_rank(op_medians, 0.9), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_rate": ((attempted - failed) / attempted, "ratio"),
            "max_dev_closed_form": (max_dev, "1"),
        }
    context = _context(args, root, src)
    context.update({
        "passes": len(passes), "passes_traced": len(pass_traced),
        "pass_seconds": [p for p, _, _ in passes], "pass_wall_s": [w for _, w, _ in passes],
        "ops_per_pass": len(plan["ops"]), "latency_samples": len(op_medians),
        "op_seconds": op_seconds, "op_wall_s": op_wall, "setup_seconds": setup_times,
        "setup_wall_s": setup_walls, "host_ticks": len(clock.ticks),
        "host_tick_mean_s": clock.tick_total / max(1, len(clock.ticks)),
        "host_tick_ref_s": hostclock.REF_TICK_S, "positivity_warnings": warnings_total,
        "failures": failures, "missing_trace_targets": tracer.missing if tracer else [],
        "spans": len(tracer.start) if tracer else 0,
    })
    return {"context": context, "tracer": tracer,
            "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("reduced-scan", "full-model",
                                                         "closed-form-io"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--size", default="full", choices=("full", "tiny"),
                   help="tiny: a few small ops, for the benchmark's own smoke test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        out = run(args)
    except SetupError as exc:
        print(f"benchmark cannot run here: {exc}", file=sys.stderr)
        return 2
    result, context = out["result"], out["context"]
    for name, m in result["metrics"].items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")
    print("context " + json.dumps(context, sort_keys=True))
    out_dir = os.path.join(os.getcwd(), ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.size != "full":
        stem += f"-{args.size}"
    with open(os.path.join(out_dir, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"context": context, **result}, fh, indent=2, sort_keys=True)
    if out["tracer"] is not None:
        out["tracer"].save(os.path.join(out_dir, f"spans-{args.workload}.npz"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
