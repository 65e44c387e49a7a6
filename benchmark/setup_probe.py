"""One fresh-process set-up, timed by the parent from spawn to the 'ready' line.

Usage: python3 benchmark/setup_probe.py <workload> <config> <seed> <size>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import prepare  # noqa: E402

if __name__ == "__main__":
    workload, cfg, seed, size = sys.argv[1:5]
    prepare(workload, Path(cfg), int(seed), size)
    print("ready", flush=True)
