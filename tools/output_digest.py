"""Digest every output of the benchmark's op set, one line per op.

Usage, from the root of a checkout:

    python3 tools/output_digest.py [SEED ...]        (default seeds: 1 3 7 91)

For each seed it builds the plan of every benchmark workload (bench/workloads.py,
imported read-only) and runs each timed op and the accuracy probe; then it runs
`validate` with the default ladder and with a repeated rung, `preset fig3` and
`preset fig4` in every mode, an analytic run of an explicit block whose rates have
the evenly tuned form (PHASE_COMPENSATED), and a composite Omega sweep whose second point
drifts (DRIFTING), so that a recorded point and its exit 3 are digested too. Everything runs
in this one process, as in-process cavity_beats.cli.main calls on the package under ./src.

Each line names the op and gives its exit code, then a sha256 (first 16 hex digits)
of its stdout, of its stderr and of the warnings it raised, then one of each file it
wrote. Ops run inside a temporary directory, removed at the end, on relative paths,
so the lines do not depend on where it lies. Two checkouts give the same outputs
when their digests do not differ:

    diff <(cd A && python3 tools/output_digest.py) <(cd B && python3 tools/output_digest.py)
"""

from __future__ import annotations

import os

# The benchmark's BLAS pin, set before numpy loads, so the digests are of the
# bytes the benchmark checks.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402

DEFAULT_SEEDS = (1, 3, 7, 91)
MODES = ("reduced", "analytic", "composite")
EXTRA_OPS = [
    ("validate", ["validate"]),
    ("validate-repeated-rung", ["validate", "--g-values", "0.2,0.2"]),
] + [
    (f"{which}-{mode}", ["preset", which, "--mode", mode])
    for which in ("fig3", "fig4") for mode in MODES
] + [
    ("run-phase-compensated-analytic", ["run", "phase_compensated.json"]),
    ("sweep-drifting-point", ["sweep", "drifting.json", "--param", "Omega", "--values", "1,1e11"]),
]
# Couplings turned by a phase that the lower transition gives back: not the shortcut's, but
# with its rates, so analytic mode runs them in the closed form.
PHASE_COMPENSATED = {
    "name": "phase_compensated", "mode": "analytic", "t_end": 8.0, "samples": 1601,
    "levels": {"omega_eg": 3.0, "omega_1g": 2.0, "omega_2g": 0.0},
    "cavity": {"omega_a": 2.0, "omega_b": 1.0},
    "couplings": {"G_1e": 1.0, "G_2e": [math.cos(0.7), math.sin(0.7)],
                  "G_g1": 1.0, "G_g2": [math.cos(0.7), -math.sin(0.7)]},
}
# The full model at Omega = 1e11 loses the trace at its first step.
DRIFTING = {"name": "drifting", "mode": "composite", "Omega": 1.0, "t_end": 8.0, "samples": 41}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _import_checkout(root: str):
    """cavity_beats.cli from root/src and workloads from root/bench."""
    src = os.path.join(root, "src")
    sys.path[:0] = [src, os.path.join(root, "bench")]
    sys.dont_write_bytecode = True  # nothing is written into the checkout
    import cavity_beats
    import cavity_beats.cli
    import workloads

    if not os.path.abspath(cavity_beats.__file__).startswith(src + os.sep):
        raise SystemExit(f"cavity_beats imported from {cavity_beats.__file__}, not {src}")
    return cavity_beats.cli, workloads


def _run(cli, argv: list[str]) -> str:
    """Run one op in the current directory with its outputs under ./out; its digest line."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code
        except Exception as exc:  # noqa: BLE001  (an op that raises is an output too)
            code = f"raised-{type(exc).__name__}"
            err.write(str(exc))
    caught_text = "\n".join(f"{w.category.__name__}: {w.message}" for w in caught)
    fields = [f"exit={code}", f"stdout={_digest(out.getvalue().encode())}",
              f"stderr={_digest(err.getvalue().encode())}",
              f"warnings={_digest(caught_text.encode())}"]
    if os.path.isdir("out"):
        for base, _, files in sorted(os.walk("out")):
            for name in sorted(files):
                path = os.path.join(base, name)
                with open(path, "rb") as fh:
                    fields.append(f"{os.path.relpath(path, 'out')}={_digest(fh.read())}")
        shutil.rmtree("out")
    return " ".join(fields)


def _argv(op_argv: list[str]) -> list[str]:
    return [a.replace("{scenarios}", "scenarios").replace("{out}", "out") for a in op_argv]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="digest every output of the benchmark's op set")
    p.add_argument("seeds", nargs="*", type=int, default=list(DEFAULT_SEEDS))
    args = p.parse_args(argv)
    cli, workloads = _import_checkout(os.getcwd())
    here = os.getcwd()
    work = tempfile.mkdtemp(prefix="output_digest_")
    try:
        os.chdir(work)
        for seed in args.seeds:
            for workload in workloads.WORKLOADS:
                plan = workloads.generate(workload, seed)
                workloads.write_plan(plan, ".")
                for op in plan["ops"] + [dict(plan["probe"], id="probe")]:
                    print(f"{workload} seed={seed} {op['id']}: {_run(cli, _argv(op['argv']))}",
                          flush=True)
                shutil.rmtree("scenarios")
                os.remove("plan.json")
        for scenario in (PHASE_COMPENSATED, DRIFTING):
            with open(f"{scenario['name']}.json", "w", encoding="utf-8") as fh:
                json.dump(scenario, fh)
        for label, op_argv in EXTRA_OPS:
            print(f"{label}: {_run(cli, op_argv + ['--out-dir', 'out'])}", flush=True)
    finally:
        os.chdir(here)
        shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
