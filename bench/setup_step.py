"""The timed set-up step, run by run.py in a fresh interpreter.

    PYTHONPATH=src python3 bench/setup_step.py --workload reduced-scan --seed 7 --out DIR

It imports cavity_beats.cli and writes one workload's scenario files and op
list into DIR (workloads.main), with the host clock ticking from just after
numpy loads. The last stdout line is the tick count and tick seconds, from
which run.py scales the wall time it measured around this process.
"""

from __future__ import annotations

import json
import sys

import hostclock

clock = hostclock.HostClock()
clock.start()
try:
    import workloads

    code = workloads.main()
finally:
    clock.stop()
print(json.dumps({"ticks": len(clock.ticks), "tick_s": clock.tick_total}))
sys.exit(code)
