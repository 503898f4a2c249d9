"""Run the benchmark on two checkouts in alternating pairs and compare every end-to-end metric.

Usage:

    python3 tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload W --seed S --pairs N --seconds T

Each pair runs `bench/run.py --trace 0` once in each checkout, from its root, one
process at a time: the parent goes first in pairs 1, 3, 5, ... and the change in pairs
2, 4, 6, .... Only the last stdout line of a run, its JSON result, is read.

For each end-to-end metric of CHANGE_DIR's BENCHMARK.json it prints both sides'
median, first and third quartiles (statistics.quantiles, n=4) and IQR (Q3 - Q1), the
change of the median, and the pairs the change won: it wins a pair when its value is
better in the metric's direction, and a tie counts for neither side. `gain` marks a
metric where the change won at least nine tenths of the pairs and its median is better
than the parent's by more than the parent's IQR, the rule a claimed gain must meet.
One more row per side, `minor_faults`, gives the minor page faults of each run (the
change in getrusage(RUSAGE_CHILDREN).ru_minflt across it), so an A/B shows when the
heap's trim state moved a side rather than the code; it is never marked as a gain. The
row counts every process of the run, not only its timed passes: bench/run.py's own
start-up and warm-up, its five set-up interpreters (SETUP_REPS), which take about 5.5k
faults each on a 2-vCPU VM with Python 3.11 and numpy 2.4, and one `git rev-parse`. So a
tree whose timed passes fault nothing still reads about 34k per 6 s run there, not 0.
The runs get no malloc setting of their own, so they fault as the benchmark's runs do.

The runs write only what bench/run.py writes, under each checkout's .bench_out/ and
.bench_work/; they run with PYTHONDONTWRITEBYTECODE=1, so no bytecode lands in the
checkouts. A run that fails or outlives its timeout ends the comparison with exit 1;
a run cut short is killed with every process it started.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys

RUN_TIMEOUT_S = 900


class RunError(RuntimeError):
    """A benchmark run exited with an error or printed no result."""


def _run(root: str, args: argparse.Namespace) -> dict[str, float]:
    """One `bench/run.py --trace 0` run in root: its end-to-end metric values and minor_faults."""
    cmd = [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", f"{args.seconds:g}", "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    # A session of its own, so that the run's set-up interpreters die with it.
    with subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{root}: exit {proc.returncode}\n{err}")
    result = json.loads(lines[-1])
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    return {**{name: m["value"] for name, m in result["metrics"].items()}, "minor_faults": faults}


def _spread(values: list[float]) -> tuple[float, float, float]:
    """Median, first and third quartile."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return statistics.median(values), q1, q3


def compare(parent: list[float], change: list[float], better: str) -> dict[str, float | int | bool]:
    """The paired comparison of one metric; parent[i] and change[i] come from pair i."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p_med, p_q1, p_q3 = _spread(parent)
    c_med, c_q1, c_q3 = _spread(change)
    return {
        "parent_median": p_med, "parent_q1": p_q1, "parent_q3": p_q3, "parent_iqr": p_q3 - p_q1,
        "change_median": c_med, "change_q1": c_q1, "change_q3": c_q3, "change_iqr": c_q3 - c_q1,
        "wins": wins,
        "gain": wins >= 0.9 * len(parent) and sign * (p_med - c_med) > p_q3 - p_q1,
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent_dir")
    p.add_argument("change_dir")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, required=True)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    for root in (args.parent_dir, args.change_dir):
        if not os.path.isfile(os.path.join(root, "bench", "run.py")):
            p.error(f"{root} is not the root of a checkout with bench/run.py")
    with open(os.path.join(args.change_dir, "BENCHMARK.json"), encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}

    values: dict[str, dict[str, list[float]]] = {"parent": {}, "change": {}}
    sides = (("parent", args.parent_dir), ("change", args.change_dir))
    try:
        for i in range(args.pairs):
            for side, root in sides if i % 2 == 0 else sides[::-1]:
                for name, value in _run(root, args).items():
                    values[side].setdefault(name, []).append(value)
            print(f"pair {i + 1}/{args.pairs} done ({sides[i % 2][0]} first)", flush=True)
    except (RunError, subprocess.TimeoutExpired) as exc:
        print(f"ab_pairs: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{args.pairs} pairs of {args.seconds:g} s runs")
    print(f"{'metric':20s} {'side':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr':>12s}"
          f" {'change':>8s} {'wins':>6s}")
    for name, direction in [*better.items(), ("minor_faults", "lower")]:
        if name not in values["parent"] or name not in values["change"]:
            continue
        c = compare(values["parent"][name], values["change"][name], direction)
        p_med = c["parent_median"]
        rel = c["change_median"] / p_med - 1.0 if p_med else float("nan")
        for side in ("parent", "change"):
            row = (f"{name if side == 'parent' else '':20s} {side:6s} "
                   f"{c[side + '_median']:12.6g} {c[side + '_q1']:12.6g} "
                   f"{c[side + '_q3']:12.6g} {c[side + '_iqr']:12.6g}")
            if side == "change":
                row += f" {rel:+8.2%} {c['wins']:>3d}/{args.pairs}"
                row += "  gain" if c["gain"] and name in better else ""
            print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
