"""The benchmark's own smoke test: a tiny run of every workload.

    python3 bench/smoke.py

Run from the root of a checkout. It checks that
- every workload, traced and untraced, finishes with no failed op and prints
  exactly the metric names and units BENCHMARK.json lists;
- every wrapper the traced run installs is removed afterwards;
- the same seed gives byte-identical scenario files and op lists, and
  another seed gives different ones where the workload draws parameters;
- in a directory holding only BENCHMARK.json and the benchmark, the command
  exits non-zero without printing a result.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

import run  # sets the BLAS pin before anything imports numpy

def _targets() -> dict[tuple, object]:
    """The object each traced lookup holds right now."""
    import tracing

    return {t[:3]: tracing.lookup(*t[:3]) for t in tracing.SPAN_TARGETS + tracing.COUNT_TARGETS}


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    originals = None
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = run.main(["--workload", w, "--seed", "3", "--seconds", "0",
                                 "--trace", str(trace), "--size", "tiny"])
            if originals is None:
                originals = _targets()  # the package is importable after the first run
            result = json.loads(buf.getvalue().strip().splitlines()[-1])
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            tag = f"{w} trace={trace}"
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{tag}: exit {code}, {result['failed']} failed ops")
            if got != expected[trace]:
                problems.append(f"{tag}: metric names or units differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(expected[trace].items()))}")
            after = _targets()
            left = [k for k in originals if after[k] is not originals[k]]
            if left:
                problems.append(f"{tag}: wrappers left installed on {left}")
            print(f"{tag}: {result['attempted']} ops, {len(got)} metrics", flush=True)

    import workloads

    work = tempfile.mkdtemp(prefix="smoke-", dir=os.path.join(os.getcwd(), ".bench_work"))
    try:
        for w in workloads.WORKLOADS:
            trees = []
            for k, seed in enumerate((5, 5, 6)):
                d = os.path.join(work, f"{w}-{k}")
                workloads.write_plan(workloads.generate(w, seed, "full"), d)
                trees.append(run._tree_hashes(d))
            if trees[0] != trees[1]:
                problems.append(f"{w}: the same seed gave different scenario files")
            scenarios = [{k: v for k, v in t.items() if k.startswith("scenarios")} for t in trees]
            if w != "full-model" and scenarios[0] == scenarios[2]:
                problems.append(f"{w}: another seed gave the same scenario files")

        bare = os.path.join(work, "bare")
        os.makedirs(bare)
        shutil.copy("BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(path, os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            spec["command"] + ["--workload", "reduced-scan", "--seed", "1", "--seconds", "1",
                               "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in problems:
        print("FAIL " + p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
